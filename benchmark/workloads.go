package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/raytracer"
	"repro/internal/transport"
	"repro/parc"
)

// shape is how a workload offers its calls.
type shape int

const (
	closed  shape = iota // each caller sends its next call when the last returned
	scatter              // one submitter issues waves through parc.Scatter + Gather
	open                 // calls are sent on a seeded Poisson schedule, whatever the replies do
	farm                 // frames of row blocks pulled by one goroutine per worker
)

// spec is one workload. BENCHMARK.json records why each was chosen.
type spec struct {
	name    string
	shape   shape
	nodes   int  // cluster size; node 0 is the entry node
	objects int  // parallel objects the calls go to
	callers int  // closed loop: concurrent callers
	local   bool // objects live on the entry node, so no call leaves it
	bulk    bool // 256 KiB []byte payload where the others send 64 B of []int32
}

const (
	smallInts  = 16        // 16 × int32 = the paper's 64-byte message
	bulkBytes  = 256 << 10 // the Fig. 8a bandwidth point
	waveCalls  = 256       // scatter_async: calls per wave
	openRate   = 500       // serve_open: offered calls per second (frozen; BENCHMARK.json)
	rateSlices = 16        // rate samples a pass is cut into
	sceneGrid  = 8
	blockRows  = 10
	poolSmall  = 16 // distinct small payloads a seed generates
	poolBulk   = 4
	hashDraws  = 4096 // choices per caller folded into the input hash
)

var specs = []spec{
	{name: "pingpong_small", shape: closed, nodes: 2, objects: 1, callers: 1},
	{name: "fanout_small", shape: closed, nodes: 2, objects: 4, callers: 32},
	{name: "pingpong_bulk", shape: closed, nodes: 2, objects: 1, callers: 1, bulk: true},
	{name: "call_local", shape: closed, nodes: 1, objects: 4, callers: 32, local: true},
	{name: "scatter_async", shape: scatter, nodes: 3, objects: 8},
	{name: "serve_open", shape: open, nodes: 2, objects: 4},
	{name: "app_raytrace", shape: farm, nodes: 3, objects: 2},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// The profile: the full one below, or the smoke profile useQuickProfile
// switches to, which runs everything but measures nothing worth keeping.
var (
	sceneSize   = 1000 // width and height of the ray-traced image
	warmup      = time.Second
	setupMin    = 15
	setupBudget = 400 * time.Millisecond
	setupSettle = 2 * time.Millisecond
	smoke       = false
)

const (
	quickWindow = 100 * time.Millisecond
	setupMax    = 50 // every set-up leaves TCP connections in TIME_WAIT
)

func useQuickProfile() {
	sceneSize, warmup, setupMin, setupBudget, setupSettle, smoke = 100, 20*time.Millisecond, 2, 0, 0, true
}

// inputs is everything a seed decides: payload contents, each caller's
// stream of (object, payload) choices, and the open loop's arrival times.
// The runtime under test sees only these generated values.
type inputs struct {
	small  [][]int32
	bulk   [][]byte
	rngs   []*rand.Rand // one per caller; index 0 also drives the span pass
	hash   uint64
	seqSum int64   // app_raytrace: checksum of the sequential render
	seqNs  float64 // app_raytrace: time of the sequential render
}

func newInputs(sp spec, seed uint64) *inputs {
	in := &inputs{}
	h := fnv.New64a()
	word := make([]byte, 4)
	hash32 := func(v uint32) {
		binary.LittleEndian.PutUint32(word, v)
		h.Write(word)
	}
	gen := rand.New(rand.NewPCG(seed, 0))
	for i := 0; i < poolSmall; i++ {
		p := make([]int32, smallInts)
		for j := range p {
			p[j] = int32(gen.Uint32())
			hash32(uint32(p[j]))
		}
		in.small = append(in.small, p)
	}
	if sp.bulk {
		for i := 0; i < poolBulk; i++ {
			p := make([]byte, bulkBytes)
			for j := 0; j < len(p); j += 8 {
				binary.LittleEndian.PutUint64(p[j:], gen.Uint64())
			}
			h.Write(p)
			in.bulk = append(in.bulk, p)
		}
	}
	for c := 0; c < max(sp.callers, 1); c++ {
		preview := rand.New(rand.NewPCG(seed, uint64(c)+1))
		for i := 0; i < hashDraws; i++ {
			hash32(preview.Uint32())
		}
		in.rngs = append(in.rngs, rand.New(rand.NewPCG(seed, uint64(c)+1)))
	}
	in.hash = h.Sum64()
	return in
}

// renderReference renders the farm's scene sequentially: the checksum every
// farmed frame must match, and the fair single-thread baseline of the
// speed-up. It renders twice, because the first pass pays for the image's
// pages.
func (in *inputs) renderReference() {
	scene := raytracer.JGFScene(sceneGrid, sceneSize, sceneSize)
	in.seqSum = raytracer.Checksum(scene.Render(1))
	t0 := time.Now()
	scene.Render(1)
	in.seqNs = float64(time.Since(t0))
}

// schedule draws the open loop's arrival offsets for a window of d: Poisson
// arrivals at openRate, each with the choice word that picks its object and
// payload.
func (in *inputs) schedule(d time.Duration) (due []int64, choice []uint32) {
	r := in.rngs[0]
	for t := 0.0; ; {
		t += r.ExpFloat64() / openRate * 1e9
		if t >= float64(d) {
			return due, choice
		}
		due = append(due, int64(t))
		choice = append(choice, r.Uint32())
	}
}

// instance is one booted workload: its cluster, its objects and the
// bookkeeping that checks every call.
type instance struct {
	sp     spec
	in     *inputs
	cl     nodes
	echo   []*EchoPO
	tracer []*TracerPO
	group  *parc.Group[Echo] // scatter: waveCalls members over the objects
	wave   [][]int32         // scatter: one argument slice per member, reused between waves
	waveNo int32

	issued    []atomic.Int64 // calls sent per object
	attempted atomic.Int64
	failed    atomic.Int64
}

var ctx = context.Background()

// setup boots the cluster on net, creates the workload's objects and makes
// one checked call on each, which is the work setup_s times.
func setup(sp spec, in *inputs, net transport.Network) (*instance, error) {
	cl, err := boot(net, sp.nodes, sp.local)
	if err != nil {
		return nil, err
	}
	w, err := setupOn(cl, sp, in)
	if err != nil {
		cl.close()
		return nil, err
	}
	return w, nil
}

// setupOn is setup on a cluster that is already up.
func setupOn(cl nodes, sp spec, in *inputs) (*instance, error) {
	w := &instance{sp: sp, in: in, cl: cl, issued: make([]atomic.Int64, sp.objects)}
	for i := 0; i < sp.objects; i++ {
		if sp.shape == farm {
			po, err := NewTracer(cl[0])
			if err == nil {
				_, err = po.Load(ctx, sceneGrid, sceneSize, sceneSize)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: create worker %d: %w", sp.name, i, err)
			}
			w.tracer = append(w.tracer, po)
			continue
		}
		po, err := NewEcho(cl[0])
		if err != nil {
			return nil, fmt.Errorf("%s: create object %d: %w", sp.name, i, err)
		}
		if po.Proxy().IsLocal() != sp.local {
			return nil, fmt.Errorf("%s: object %d placed on the wrong side (local=%v)", sp.name, i, !sp.local)
		}
		w.echo = append(w.echo, po)
	}
	if sp.shape == scatter {
		members := make([]*parc.Object[Echo], waveCalls)
		for i := range members {
			members[i] = w.echo[i%sp.objects].Object()
			w.wave = append(w.wave, slices.Clone(in.small[i%poolSmall]))
		}
		w.group = parc.GroupOf(members...)
	}
	for i := 0; i < sp.objects; i++ {
		if !w.call(uint32(i)) {
			return nil, fmt.Errorf("%s: first call on object %d failed", sp.name, i)
		}
	}
	return w, nil
}

// call makes one synchronous checked call; the choice word picks the object
// (low bits) and the payload (high bits). It reports whether the call
// succeeded and echoed its payload.
func (w *instance) call(choice uint32) bool {
	obj := int(choice) % w.sp.objects
	pick := int(choice >> 16)
	w.attempted.Add(1)
	w.issued[obj].Add(1)
	ok := false
	switch {
	case w.sp.shape == farm:
		blocks := sceneSize / blockRows
		_, ok = w.rows(obj, pick%blocks)
	case w.sp.bulk:
		want := w.in.bulk[pick%poolBulk]
		got, err := w.echo[obj].Bytes(ctx, want)
		ok = err == nil && bytes.Equal(got, want)
	case w.sp.shape == open:
		want := w.in.small[pick%poolSmall]
		got, err := w.echo[obj].Serve(ctx, want)
		ok = err == nil && slices.Equal(got, want)
	default:
		want := w.in.small[pick%poolSmall]
		got, err := w.echo[obj].Ints(ctx, want)
		ok = err == nil && slices.Equal(got, want)
	}
	if !ok {
		w.failed.Add(1)
	}
	return ok
}

// rows renders one block on one worker.
func (w *instance) rows(worker, block int) ([]int32, bool) {
	px, err := w.tracer[worker].Rows(ctx, block*blockRows, (block+1)*blockRows)
	return px, err == nil && len(px) == blockRows*sceneSize
}

// payloadBytes is the argument plus result payload one call moves.
func (sp spec) payloadBytes() float64 {
	switch {
	case sp.bulk:
		return 2 * bulkBytes
	case sp.shape == farm:
		return float64(4 * blockRows * sceneSize)
	default:
		return 2 * 4 * smallInts
	}
}

// samples is what one pass measured, slice by slice: the latency of every
// operation a caller waited for, filed under the slice it completed in.
// Reporting the median slice keeps a stretch of bad machine weather shorter
// than half the pass out of every number.
type samples struct {
	lat        [][]int64 // per slice, ns
	dur        []int64   // per slice, its length in ns
	callsPerOp int64     // calls one latency sample stands for
	calls      int64     // calls completed, the overrun after the last slice included
	lateP50Ns  float64   // open loop: median delay of the generator behind its schedule
	usage                // what the process spent between the first call and the last
}

// rate is the median slice's calls per second.
func (s samples) rate() float64 {
	var r []float64
	for i, l := range s.lat {
		r = append(r, float64(int64(len(l))*s.callsPerOp)*1e9/float64(s.dur[i]))
	}
	return median(r)
}

// quantile is the median over the slices of each slice's q-quantile.
func (s samples) quantile(q float64) float64 {
	var v []float64
	for _, l := range s.lat {
		if len(l) > 0 {
			v = append(v, quantile(l, q))
		}
	}
	return median(v)
}

func (s samples) count() (n int) {
	for _, l := range s.lat {
		n += len(l)
	}
	return n
}

// sliced files latencies under rateSlices equal slices of a pass of length
// d, plus one more for operations that complete after d, which timed
// reports leave out.
type sliced struct {
	d   time.Duration
	lat [rateSlices + 1][]int64
}

func newSliced(d time.Duration, prealloc int) *sliced {
	b := &sliced{d: d}
	for i := range b.lat {
		b.lat[i] = make([]int64, 0, prealloc/rateSlices+64)
	}
	return b
}

// add files a latency that ended at offset end into the pass.
func (b *sliced) add(end, lat int64) {
	i := min(int(end*rateSlices/int64(b.d)), rateSlices)
	b.lat[i] = append(b.lat[i], lat)
}

// merge folds the callers' buckets into samples.
func merge(d time.Duration, callsPerOp int64, parts ...*sliced) samples {
	s := samples{lat: make([][]int64, rateSlices), dur: make([]int64, rateSlices), callsPerOp: callsPerOp}
	for _, p := range parts {
		for i, l := range p.lat {
			s.calls += int64(len(l)) * callsPerOp
			if i < rateSlices {
				s.lat[i] = append(s.lat[i], l...)
			}
		}
	}
	for i := range s.dur {
		s.dur[i] = int64(d) / rateSlices
	}
	return s
}

// run drives the workload for d and returns what it measured. prealloc
// sizes the latency buffers so the measured pass does not grow them.
func (w *instance) run(d time.Duration, prealloc int) samples {
	switch w.sp.shape {
	case scatter:
		return w.scatterLoop(d, prealloc)
	case open:
		return w.openLoop(d)
	case farm:
		return w.farmLoop(d)
	default:
		return w.closedLoop(d, prealloc)
	}
}

func (w *instance) closedLoop(d time.Duration, prealloc int) samples {
	parts := make([]*sliced, w.sp.callers)
	for c := range parts {
		parts[c] = newSliced(d, prealloc/w.sp.callers)
	}
	m := startMeter()
	start := nanotime()
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := w.in.rngs[c]
			for t0 := nanotime(); t0-start < int64(d); {
				w.call(rng.Uint32())
				t1 := nanotime()
				parts[c].add(t1-start, t1-t0)
				t0 = t1
			}
		}(c)
	}
	wg.Wait()
	used := m.stop()
	s := merge(d, 1, parts...)
	s.usage = used
	return s
}

// scatterWave issues one wave through parc.Scatter and Gather and checks
// every result against the index it was sent with.
func (w *instance) scatterWave() {
	w.waveNo++
	for i := range w.wave {
		w.wave[i][0], w.wave[i][1] = w.waveNo, int32(i)
	}
	w.attempted.Add(waveCalls)
	for i := range w.issued {
		w.issued[i].Add(waveCalls / int64(len(w.issued)))
	}
	got, err := parc.Gather(ctx, parc.Scatter[[]int32](ctx, w.group, "Ints", func(i int) []any {
		return []any{w.wave[i]}
	}))
	if err != nil {
		w.failed.Add(waveCalls)
		return
	}
	for i, v := range got {
		if !slices.Equal(v, w.wave[i]) {
			w.failed.Add(1)
		}
	}
}

// scatterLoop issues waves back to back from one goroutine; a latency
// sample is one whole wave and stands for its waveCalls calls.
func (w *instance) scatterLoop(d time.Duration, prealloc int) samples {
	part := newSliced(d, prealloc/waveCalls)
	m := startMeter()
	start := nanotime()
	for t0 := start; t0-start < int64(d); {
		w.scatterWave()
		t1 := nanotime()
		part.add(t1-start, t1-t0)
		t0 = t1
	}
	used := m.stop()
	s := merge(d, waveCalls, part)
	s.usage = used
	return s
}

// openLoop sends each call when the schedule says so, on its own goroutine
// as an independent user would, and times it from when it was due: a stall
// shows as latency on every call queued behind it.
func (w *instance) openLoop(d time.Duration) samples {
	due, choice := w.in.schedule(d)
	lat := make([]int64, len(due))
	end := make([]int64, len(due))
	late := make([]int64, len(due))
	m := startMeter()
	start := nanotime()
	var wg sync.WaitGroup
	for i := range due {
		at := start + due[i]
		if wait := at - nanotime(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		late[i] = nanotime() - at
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w.call(choice[i])
			end[i] = nanotime() - start
			lat[i] = end[i] - due[i]
		}(i)
	}
	wg.Wait()
	used := m.stop()
	part := newSliced(d, len(due))
	for i := range lat {
		part.add(end[i], lat[i])
	}
	s := merge(d, 1, part)
	s.usage, s.lateP50Ns = used, quantile(late, 0.5)
	return s
}

// farmLoop renders whole frames until d has passed. One goroutine per
// worker pulls the next block, as the paper's farm does; each frame's
// checksum is compared with the sequential render. A slice is one frame.
func (w *instance) farmLoop(d time.Duration) samples {
	blocks := sceneSize / blockRows
	image := make([]int32, sceneSize*sceneSize)
	s := samples{callsPerOp: 1}
	m := startMeter()
	start := nanotime()
	for frameStart := start; frameStart-start < int64(d); frameStart = nanotime() {
		lats := make([][]int64, len(w.tracer))
		var next atomic.Int64
		var wg sync.WaitGroup
		for k := range w.tracer {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				for {
					b := int(next.Add(1) - 1)
					if b >= blocks {
						return
					}
					w.attempted.Add(1)
					w.issued[k].Add(1)
					t0 := nanotime()
					px, ok := w.rows(k, b)
					lats[k] = append(lats[k], nanotime()-t0)
					if !ok {
						w.failed.Add(1)
						continue
					}
					copy(image[b*blockRows*sceneSize:], px)
				}
			}(k)
		}
		wg.Wait()
		s.dur = append(s.dur, nanotime()-frameStart)
		s.lat = append(s.lat, slices.Concat(lats...))
		s.calls += int64(blocks)
		if raytracer.Checksum(image) != w.in.seqSum {
			w.failed.Add(1)
		}
	}
	s.usage = m.stop()
	return s
}

// seqOp runs one call of an echo workload as a plain method call on a plain
// object in the caller's goroutine: the fair sequential baseline the
// speed-up is taken against. (The farm's baseline is the sequential render
// renderReference timed.)
func (w *instance) seqOp() func() {
	e := &Echo{}
	switch {
	case w.sp.bulk:
		return func() { e.Bytes(w.in.bulk[0]) }
	case w.sp.shape == open:
		return func() { e.Serve(w.in.small[0]) }
	default:
		return func() { e.Ints(w.in.small[0]) }
	}
}

// verify reads every object's own call counter and compares it with the
// calls the harness sent there: a lost or doubled call shows as a
// difference, which counts as that many failed calls.
func (w *instance) verify() error {
	for i := range w.issued {
		var got int64
		var err error
		if w.sp.shape == farm {
			got, err = w.tracer[i].Calls(ctx)
		} else {
			got, err = w.echo[i].Calls(ctx)
		}
		if err != nil {
			w.failed.Add(1)
			return fmt.Errorf("%s: read call counter of object %d: %w", w.sp.name, i, err)
		}
		if want := w.issued[i].Load(); got != want {
			w.failed.Add(max(got-want, want-got))
			return fmt.Errorf("%s: object %d executed %d calls, %d were sent", w.sp.name, i, got, want)
		}
	}
	return nil
}

func (w *instance) close() { w.cl.close() }
