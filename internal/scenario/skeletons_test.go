package scenario

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/parc"
)

// The skeletons population: skelOutstanding unresolved futures held at once
// by one goroutine, skelWorkers scatter workers spread over the two
// non-entry nodes, skelWindow of Scatter/Gather rounds. skelMaxInFlight
// caps concurrent wire exchanges per mux lane; the goroutine-flatness bound
// derives from it, so it is set here rather than left to the default.
const (
	skelOutstanding = 10000
	skelWorkers     = 8
	skelWindow      = 300 * time.Millisecond
	skelMaxInFlight = 64
)

// skelWorker is the scatter workload class: a trivial echo, so what runs is
// the call path, not the method body.
type skelWorker struct{}

// Echo returns its argument.
func (skelWorker) Echo(v int) int { return v }

// skelGate is the async workload class: Hit parks until release closes, so
// futures pile up client-side while the server's concurrency stays pinned
// to the in-flight window.
type skelGate struct {
	release <-chan struct{}
}

// Hit blocks until released, then echoes.
func (g *skelGate) Hit(v int) int {
	<-g.release
	return v
}

// TestSkeletons drives the completion-driven async path and the
// Scatter/Gather skeleton over a 3-node loopback-TCP cluster. Hard
// assertions: with skelOutstanding unresolved futures held by a single
// goroutine, the process goroutine count has grown by no more than a small
// multiple of the per-lane in-flight window (a regression to
// goroutine-per-call fails here); every future then drains to its own
// value; and every echo of every scatter round comes back in member order.
func TestSkeletons(t *testing.T) {
	if testing.Short() {
		t.Skip("skeletons drives real time windows")
	}
	release := make(chan struct{})
	open := make(chan struct{})
	close(open)
	rts := startTCP(t, 3, func(cfg *core.Config) {
		cfg.Channel.MaxInFlight = skelMaxInFlight
		cfg.Placement = core.LocalOnly{}
	})
	for _, rt := range rts {
		rt.RegisterClass("skel.worker", func() any { return skelWorker{} })
		rt.RegisterClass("skel.gate", func() any { return &skelGate{release: release} })
		rt.RegisterClass("skel.gate.open", func() any { return &skelGate{release: open} })
	}
	ctx := context.Background()

	// gate hosts a gate class on node 1 and returns the entry node's handle.
	gate := func(class string) *parc.Object[skelGate] {
		hosted, err := parc.NewAt[skelGate](rts[1], class)
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		return parc.Bind[skelGate](rts[0], hosted.Ref())
	}

	// Baseline after the lanes and their writer goroutines exist: one probe
	// round trip through a pre-released gate spins them up without parking.
	probe := gate("skel.gate.open")
	if _, err := parc.Call[int](ctx, probe, "Hit", 1); err != nil {
		t.Fatalf("probe: %v", err)
	}
	probe.Destroy(ctx) //nolint:errcheck // best-effort cleanup
	runtime.GC()       // settle probe/teardown goroutines before the baseline
	baseline := runtime.NumGoroutine()

	parked := gate("skel.gate")
	defer parked.Destroy(ctx) //nolint:errcheck // best-effort cleanup
	results := make([]*parc.Result[int], skelOutstanding)
	for i := range results {
		results[i] = parc.CallAsync[int](ctx, parked, "Hit", i)
	}
	delta := runtime.NumGoroutine() - baseline
	close(release)

	// Outstanding futures must not map to goroutines. Blocked server
	// handlers are bounded by the in-flight window (all calls target one
	// URI, hence one lane), plus slack for runtime bookkeeping.
	const bound = 2*skelMaxInFlight + 32
	t.Logf("goroutine delta %d at %d outstanding futures (bound %d)", delta, skelOutstanding, bound)
	if delta > bound {
		t.Errorf("goroutine delta %d at %d outstanding futures exceeds bound %d (goroutine-per-call regression?)",
			delta, skelOutstanding, bound)
	}
	vals, err := parc.WhenAll(results...).Get(ctx)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i, v := range vals {
		if v != i {
			t.Fatalf("drain: result %d came back %d", i, v)
		}
	}

	// The worker population lives on the non-entry nodes; the entry node
	// binds typed handles and scatters over them.
	objs := make([]*parc.Object[skelWorker], skelWorkers)
	for i := range objs {
		o, err := parc.NewAt[skelWorker](rts[1+i%2], "skel.worker")
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		objs[i] = parc.Bind[skelWorker](rts[0], o.Ref())
	}
	g := parc.GroupOf(objs...)
	defer g.Destroy(ctx) //nolint:errcheck // best-effort cleanup

	rounds := 0
	for t0 := time.Now(); time.Since(t0) < skelWindow; rounds++ {
		base := rounds * g.Size()
		rs := parc.Scatter[int](ctx, g, "Echo", func(i int) []any { return []any{base + i} })
		vals, err := parc.Gather(ctx, rs)
		if err != nil {
			t.Fatalf("scatter round %d: %v", rounds, err)
		}
		for i, v := range vals {
			if v != base+i {
				t.Fatalf("scatter round %d: worker %d echoed %d", rounds, i, v)
			}
		}
	}
	t.Logf("%d scatter rounds over %d workers, every echo checked", rounds, g.Size())
}
