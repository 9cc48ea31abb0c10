// Package sieve implements the prime-number workloads of the paper: the
// pipelined prime sieve built from PrimeFilter parallel objects (the
// running example of Figs. 4–7, where each filter's process method receives
// candidate numbers and forwards survivors) and the sequential array sieve
// used for the Mono-vs-JVM sequential comparison ("running another
// application, a prime number sieve, the Mono execution time is about the
// same as the JVM").
package sieve

import (
	"context"
	"math"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/parc"
)

// SequentialCount counts primes <= n with a classic sieve of Eratosthenes.
// workFactor >= 1 injects the VM compute factor by re-running a fraction of
// the marking passes (real integer work, same result).
func SequentialCount(n int, workFactor float64) int {
	if n < 2 {
		return 0
	}
	if workFactor < 1 {
		workFactor = 1
	}
	passes := int(workFactor)
	frac := workFactor - float64(passes)
	composite := make([]bool, n+1)
	for p := 2; p*p <= n; p++ {
		if composite[p] {
			continue
		}
		reps := passes
		if frac > 0 && p%1000 < int(frac*1000) {
			reps++
		}
		for r := 0; r < reps; r++ {
			for m := p * p; m <= n; m += p {
				composite[m] = true
			}
		}
	}
	count := 0
	for p := 2; p <= n; p++ {
		if !composite[p] {
			count++
		}
	}
	return count
}

// SequentialList returns the primes <= n.
func SequentialList(n int) []int {
	if n < 2 {
		return nil
	}
	composite := make([]bool, n+1)
	var out []int
	for p := 2; p <= n; p++ {
		if composite[p] {
			continue
		}
		out = append(out, p)
		for m := p * p; m <= n; m += p {
			composite[m] = true
		}
	}
	return out
}

// Sink collects the primes discovered by the filter pipeline. It is a
// parallel-object class: register with RegisterClasses.
type Sink struct {
	mu     sync.Mutex
	primes []int
	done   chan struct{}
	want   int
}

// Configure sets how many candidate numbers will flow so Done can fire
// after the final Flush marker.
func (s *Sink) Configure(expectFlushes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.want = expectFlushes
	s.done = make(chan struct{})
}

// Add records one discovered prime.
func (s *Sink) Add(p int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.primes = append(s.primes, p)
}

// Flushed signals that a flush marker traversed the whole pipeline.
func (s *Sink) Flushed() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.want--
	if s.want == 0 && s.done != nil {
		close(s.done)
	}
}

// Primes returns the collected primes in ascending order.
func (s *Sink) Primes() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, len(s.primes))
	copy(out, s.primes)
	sort.Ints(out)
	return out
}

// WaitDone blocks until the expected flush markers arrived.
func (s *Sink) WaitDone() {
	s.mu.Lock()
	ch := s.done
	s.mu.Unlock()
	if ch != nil {
		<-ch
	}
}

// Filter is the PrimeFilter parallel object of the paper's running example.
// Each filter owns one prime; candidates that survive every filter are new
// primes: the last filter reports them to the sink and extends the pipeline
// with a new filter, exactly the classic sieve-of-Eratosthenes process
// pipeline SCOOPP papers use to stress fine grains.
type Filter struct {
	rt *core.Runtime

	mu    sync.Mutex
	prime int
	next  *core.Proxy
	sink  *core.Proxy
	sref  core.ProxyRef
	alone bool // send each post alone (see Pipeline)
	sent  int  // Process calls posted to next
}

// NewFilterFactory returns the factory to register on a node; filters need
// their node's runtime to create successor filters.
func NewFilterFactory(rt *core.Runtime) func() any {
	return func() any { return &Filter{rt: rt} }
}

// Setup initialises the filter with its prime, the sink reference and
// whether it sends each post alone (see Pipeline).
func (f *Filter) Setup(prime int, sink core.ProxyRef, alone bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.prime = prime
	f.sref = sink
	f.alone = alone
	f.sink = f.rt.Attach(sink)
	f.sink.Post("Add", prime)
}

// Process handles one candidate: drop multiples of the filter's prime,
// forward survivors, and extend the pipeline when a survivor reaches the
// end (it is a newly discovered prime). This is the fine-grain method whose
// per-number messages the RTS aggregates in ablation A1.
func (f *Filter) Process(n int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.prime == 0 {
		// First candidate seeds this filter.
		f.prime = n
		f.sink.Post("Add", n)
		return nil
	}
	if n%f.prime == 0 {
		return nil
	}
	if f.next == nil {
		next, err := f.rt.NewParallelObject("sieve.Filter")
		if err != nil {
			return err
		}
		if _, err := next.Invoke("Setup", n, f.sref, f.alone); err != nil {
			return err
		}
		f.next = next
		return nil
	}
	f.next.Post(processAs(f.alone, f.sent), n)
	f.sent++
	return nil
}

// Next is Process under a second name, for a pipeline that sends each post
// alone: alternating the two, no post queues right behind a post of its own
// method, so none joins a batch.
func (f *Filter) Next(n int) error { return f.Process(n) }

// processAs names the i-th Process call a stage sends: Process, or with
// alone set, Process and Next in turn.
func processAs(alone bool, i int) string {
	if alone && i%2 == 1 {
		return "Next"
	}
	return "Process"
}

// Flush propagates the end-of-stream marker down the pipeline and then
// notifies the sink. Each filter first drains its own lane to the sink so
// that, when the marker arrives at the sink, every prime discovered by a
// filter the marker already passed has landed.
func (f *Filter) Flush() {
	f.mu.Lock()
	next := f.next
	sink := f.sink
	f.mu.Unlock()
	if sink != nil {
		sink.Wait()
	}
	if next != nil {
		next.Post("Flush")
		next.Wait()
		return
	}
	if sink != nil {
		sink.Post("Flushed")
		sink.Wait()
	}
}

// SegmentWorker is the parallel-object class of the farmed segmented
// sieve: each call counts the primes in one half-open range given the
// base primes up to the range's square root.
type SegmentWorker struct{}

// CountSegment counts primes in [lo, hi) by marking multiples of the base
// primes; correct as long as hi <= (max(base)+1)^2, which the driver's
// partitioning guarantees.
func (SegmentWorker) CountSegment(lo, hi int, base []int) int {
	if lo < 2 {
		lo = 2
	}
	if hi <= lo {
		return 0
	}
	composite := make([]bool, hi-lo)
	for _, p := range base {
		start := (lo + p - 1) / p * p
		if start < p*p {
			start = p * p
		}
		for m := start; m < hi; m += p {
			composite[m-lo] = true
		}
	}
	count := 0
	for i := range composite {
		if !composite[i] {
			count++
		}
	}
	return count
}

// RegisterClasses registers the pipeline classes on a runtime.
func RegisterClasses(rt *core.Runtime) {
	rt.RegisterClass("sieve.Filter", NewFilterFactory(rt))
	rt.RegisterClass("sieve.Sink", func() any { return &Sink{} })
	rt.RegisterClass("sieve.SegmentWorker", func() any { return SegmentWorker{} })
}

// Pipeline drives a full pipelined sieve on an existing runtime and
// returns the primes <= n. The entry node creates the sink and the first
// filter, streams candidates with asynchronous Sends and waits for the
// flush marker. The Sends, and the posts of every stage, queued behind one
// in flight leave together as one batch; with alone set, each leaves in a
// frame of its own (the A1 ablation's baseline). The driver rides the typed
// parc API; the filter chain itself stays dynamic — it grows one parallel
// object per discovered prime, the paper's running example.
func Pipeline(rt *core.Runtime, n int, alone bool) ([]int, error) {
	ctx := context.Background()
	sink, err := parc.NewAt[Sink](rt, "sieve.Sink")
	if err != nil {
		return nil, err
	}
	defer sink.Destroy(ctx) //nolint:errcheck // best-effort cleanup
	if _, err := sink.Invoke(ctx, "Configure", 1); err != nil {
		return nil, err
	}
	first, err := parc.NewAt[Filter](rt, "sieve.Filter")
	if err != nil {
		return nil, err
	}
	if _, err := first.Invoke(ctx, "Setup", 2, sink.Ref(), alone); err != nil {
		return nil, err
	}
	for i := 3; i <= n; i++ {
		_ = first.Send(ctx, processAs(alone, i), i) // execution errors flow to Err
	}
	_ = first.Send(ctx, "Flush")
	if err := first.Wait(ctx); err != nil {
		return nil, err
	}
	if err := first.Err(); err != nil {
		return nil, err
	}
	return parc.Call[[]int](ctx, sink, "Primes")
}

// FarmedCount counts primes <= n with the MapReduce skeleton: the base
// primes up to sqrt(n) are sieved locally, the remaining range is split
// into one segment per worker, and each SegmentWorker parallel object
// counts its segment against the scattered base — the farming
// counterpoint to the fine-grained Pipeline above, and the shape the
// skeletons benchmark drives across nodes.
func FarmedCount(rt *core.Runtime, n, workers int) (int, error) {
	if n < 2 {
		return 0, nil
	}
	if workers < 1 {
		workers = 1
	}
	root := int(math.Sqrt(float64(n)))
	base := SequentialList(root)
	objs := make([]*parc.Object[SegmentWorker], workers)
	for i := range objs {
		o, err := parc.NewAt[SegmentWorker](rt, "sieve.SegmentWorker")
		if err != nil {
			for _, prev := range objs[:i] {
				prev.Destroy(context.Background()) //nolint:errcheck // best-effort unwind
			}
			return 0, err
		}
		objs[i] = o
	}
	g := parc.GroupOf(objs...)
	defer g.Destroy(context.Background()) //nolint:errcheck // best-effort cleanup
	span := n - root
	return parc.MapReduce(context.Background(), g, "CountSegment",
		func(i int) []any {
			return []any{root + 1 + i*span/workers, root + 1 + (i+1)*span/workers, base}
		},
		len(base),
		func(acc int, c int) int { return acc + c },
	)
}
