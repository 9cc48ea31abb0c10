package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/internal/transport"
)

// quantile sorts v and returns its q-quantile, interpolating between
// neighbours; 0 for an empty slice.
func quantile(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	hi := min(lo+1, len(v)-1)
	return float64(v[lo]) + (pos-float64(lo))*float64(v[hi]-v[lo])
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// cpuNs is the process's user plus system CPU time so far.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// usage is what the process spent over a pass: CPU time of both ends of
// every call and of the load generator, heap objects and heap bytes.
type usage struct {
	cpuNs            int64
	mallocs, allocBs uint64
}

// meter reads the process's counters when a pass's buffers are in place
// and again when its last call has returned, so that neither the buffers
// nor the merging of the samples count as the workload's.
type meter struct {
	cpu int64
	mem runtime.MemStats
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.mem)
	m.cpu = cpuNs()
	return m
}

func (m *meter) stop() usage {
	cpu := cpuNs()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return usage{cpuNs: cpu - m.cpu, mallocs: mem.Mallocs - m.mem.Mallocs, allocBs: mem.TotalAlloc - m.mem.TotalAlloc}
}

// metrics maps a metric name to its value; units come from BENCHMARK.json.
type metrics map[string]float64

// outcome is one run of one workload.
type outcome struct {
	attempted, failed int64
	inputHash         uint64
	metrics           metrics
	notes             []string // diagnostics printed with the table, not gated
	err               error    // first output check that did not hold
}

// timedSetup sets the workload up between setupMin and setupMax times,
// until setupBudget is spent, tearing every instance but the last down
// again, and returns the last with the median set-up time: one set-up takes
// about a millisecond on the small workloads, too short to repeat run to
// run. Each repeat starts from a collected heap and an idle process, so
// that the previous instance's teardown does not run into it. repeat false
// sets up once.
func timedSetup(sp spec, in *inputs, net transport.Network, repeat bool) (*instance, float64, error) {
	var took []float64
	for start := time.Now(); ; {
		if repeat {
			runtime.GC()
			time.Sleep(setupSettle)
		}
		t0 := time.Now()
		w, err := setup(sp, in, net)
		if err != nil {
			return nil, 0, err
		}
		took = append(took, time.Since(t0).Seconds())
		if n := len(took); !repeat || n >= setupMax || n >= setupMin && time.Since(start) >= setupBudget {
			return w, median(took), nil
		}
		w.close()
	}
}

// timedInputs generates the workload's inputs setupMin times and returns
// them with the median time one generation took. The farm's reference
// render is made once, untimed: it is the check's cost, not set-up.
func timedInputs(sp spec, seed uint64) (*inputs, float64) {
	var in *inputs
	var took []float64
	for i := 0; i < setupMin; i++ {
		t0 := time.Now()
		in = newInputs(sp, seed)
		took = append(took, time.Since(t0).Seconds())
	}
	if sp.shape == farm {
		in.renderReference()
	}
	return in, median(took)
}

// endToEnd is the untraced run: timed set-up, warm-up so bind handshakes
// and pools settle, then the measured window on plain loopback TCP.
func endToEnd(sp spec, seed uint64, window time.Duration) outcome {
	in, inputsS := timedInputs(sp, seed)
	w, clusterS, err := timedSetup(sp, in, transport.TCPNetwork{}, true)
	if err != nil {
		return outcome{attempted: 1, failed: 1, err: err}
	}
	defer w.close()
	warm := w.run(warmup, 0)
	prealloc := int(float64(warm.calls) * float64(window) / float64(warmup) * 1.5)

	s := w.run(window, prealloc)

	out := outcome{inputHash: in.hash}
	out.err = w.verify()
	out.attempted, out.failed = w.attempted.Load(), w.failed.Load()
	calls := float64(s.calls)
	rate := s.rate()
	out.metrics = metrics{
		"setup_s":         inputsS + clusterS,
		"calls_per_s":     rate,
		"p50_us":          s.quantile(0.50) / 1e3,
		"p99_us":          s.quantile(0.99) / 1e3,
		"mb_per_s":        rate * sp.payloadBytes() / 1e6,
		"cpu_us_per_call": float64(s.cpuNs) / 1e3 / calls,
		"allocs_per_call": float64(s.mallocs) / calls,
		"bytes_per_call":  float64(s.allocBs) / calls,
	}
	out.notes = append(out.notes,
		fmt.Sprintf("setup_s = inputs %.6f s (payloads, choice streams) + cluster %.6f s (boot, join, create, first calls), each the median of its repeats", inputsS, clusterS),
		fmt.Sprintf("latency samples %d in %d slices, fail_ratio %g", s.count(), len(s.lat), float64(out.failed)/float64(out.attempted)))
	switch sp.shape {
	case scatter:
		out.notes = append(out.notes, fmt.Sprintf("wave_p50_us %.1f (p50_us is one wave of %d calls)", out.metrics["p50_us"], waveCalls))
	case open:
		out.notes = append(out.notes, fmt.Sprintf("generator ran %.1f us behind its schedule at the median", s.lateP50Ns/1e3))
	case farm:
		frame := float64(sceneSize/blockRows) / rate
		out.notes = append(out.notes, fmt.Sprintf("frame_s %.4f, sequential frame_s %.4f, speedup_vs_seq %.3f on %d workers", frame, in.seqNs/1e9, in.seqNs/1e9/frame, sp.objects))
	}
	for name, v := range out.metrics {
		// A gated metric must never read 0; only the smoke profile's
		// windows are short enough for an empty median slice.
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 && !smoke {
			out.err = fmt.Errorf("%s: metric %s is %v", sp.name, name, v)
		}
	}
	return out
}

// traced is the per-layer run. It times the layers one by one, then boots
// the workload twice, on plain TCP and on the counting network. Each runs
// the workload at full load: the plain one for the load.* timing figures,
// the counting one for the transport and runtime counters per call. Then
// both run it with one call in flight, in
// alternating slots so that they share the machine's weather: the plain one
// is the untraced reference, the counting one has every span boundary
// stamped. The span trees go to outdir.
func traced(sp spec, seed uint64, window time.Duration, outdir string) (out outcome) {
	m, err := layers(window*4/10, seed)
	out = outcome{metrics: m, err: err}
	in := newInputs(sp, seed)
	if sp.shape == farm {
		in.renderReference()
	}
	out.inputHash = in.hash
	fail := func(err error) outcome {
		out.attempted, out.failed, out.err = max(out.attempted, 1), out.failed+1, err
		return out
	}
	finish := func(w *instance) {
		if err := w.verify(); err != nil && out.err == nil {
			out.err = err
		}
		out.attempted += w.attempted.Load()
		out.failed += w.failed.Load()
		w.close()
	}

	plain, _, err := timedSetup(sp, in, transport.TCPNetwork{}, false)
	if err != nil {
		return fail(err)
	}
	defer finish(plain)
	tn := &tracedNet{inner: transport.TCPNetwork{}}
	w, _, err := timedSetup(sp, in, tn, false)
	if err != nil {
		return fail(err)
	}
	defer finish(w)

	if sp.shape == farm {
		m["app.seq_op_ns"] = in.seqNs / float64(sceneSize/blockRows)
	} else {
		seq := &row{op: w.seqOp()}
		timeRows([]*row{seq}, window/20)
		m["app.seq_op_ns"] = seq.ns()
	}

	plain.run(window/20, 0)
	load := plain.run(window*3/20, 0)
	m["load.calls_per_s"] = load.rate()
	m["load.p50_us"] = load.quantile(0.50) / 1e3
	m["load.p99_us"] = load.quantile(0.99) / 1e3
	m["load.cpu_us_per_call"] = float64(load.cpuNs) / 1e3 / float64(load.calls)
	m["app.speedup_vs_seq"] = load.rate() * m["app.seq_op_ns"] / 1e9

	w.run(window/20, 0)
	k := &tn.counts
	frames, writes, bytes, busy := k.frames.Load(), k.writes.Load(), k.bytes.Load(), k.sendBusyNs.Load()
	st0 := w.cl.stats()
	s := w.run(window*3/20, 0)
	st1 := w.cl.stats()
	frames, writes, bytes, busy = k.frames.Load()-frames, k.writes.Load()-writes, k.bytes.Load()-bytes, k.sendBusyNs.Load()-busy
	calls := float64(s.calls)
	m["transport.frames_per_call"] = float64(frames) / calls
	m["transport.writes_per_call"] = float64(writes) / calls
	m["transport.bytes_per_call"] = float64(bytes) / calls
	m["transport.send_busy_ns_per_call"] = float64(busy) / calls
	m["transport.batch_frames_mean"] = 0
	if writes > 0 {
		m["transport.batch_frames_mean"] = float64(frames) / float64(writes)
	}
	m["core.sync_calls"] = float64(st1.SyncCalls - st0.SyncCalls)
	m["core.async_calls"] = float64(st1.AsyncCalls - st0.AsyncCalls)
	m["core.batches_sent"] = float64(st1.BatchesSent - st0.BatchesSent)
	m["core.mailbox_sheds"] = float64(st1.MailboxSheds - st0.MailboxSheds)
	m["core.deadline_drops"] = float64(st1.DeadlineDrops - st0.DeadlineDrops)

	// oneByOne makes checked calls on v, one at a time, for d.
	rng := in.rngs[0]
	oneByOne := func(v *instance, d time.Duration, each func(t0, t7 int64)) {
		for t0, end := nanotime(), nanotime()+int64(d); t0 < end; t0 = nanotime() {
			v.call(rng.Uint32())
			each(t0, nanotime())
		}
	}
	const rounds = 5
	slot := window / 5 / (2*rounds + 1)
	var plainLat, tracedLat []int64
	var stages [7][]int64
	var trees []callTrace
	oneByOne(plain, slot, func(int64, int64) {})
	for r := 0; r < rounds; r++ {
		oneByOne(plain, slot, func(t0, t7 int64) { plainLat = append(plainLat, t7-t0) })
		bodyStamps.Store(&tn.st)
		oneByOne(w, slot, func(t0, t7 int64) {
			b := tn.st.boundaries(t0, t7, !sp.local)
			for i := range stages {
				stages[i] = append(stages[i], b[i+1]-b[i])
			}
			if len(trees) < traceFileCalls {
				trees = append(trees, tree(len(tracedLat), b))
			}
			tracedLat = append(tracedLat, t7-t0)
		})
		bodyStamps.Store(nil)
	}
	for i, name := range stageNames {
		m["span."+name+"_ns"] = quantile(stages[i], 0.5)
	}
	m["trace.p50_us"] = quantile(tracedLat, 0.5) / 1e3
	m["trace.overhead_pct"] = 100 * (quantile(tracedLat, 0.5)/quantile(plainLat, 0.5) - 1)
	if err := writeTraceFile(outdir, sp.name, trees); err != nil && out.err == nil {
		out.err = err
	}
	return out
}
