package scenario

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// The rebalance population: rebalanceObjects hot objects, all hosted on
// node 1 at first, hammered round-robin by rebalanceCallers goroutines on
// node 0; half of them live-migrate to node 2 mid-run.
const (
	rebalanceObjects     = 16
	rebalanceCallers     = 8
	rebalancePhase       = 400 * time.Millisecond
	rebalanceMinRecovery = 0.7
)

// TestRebalance drives sustained synchronous calls through a live migration
// wave: three nodes over real loopback TCP, the hot population on node 1,
// callers on node 0, and half the objects migrating to node 2 while the
// callers keep running. Callers never see an error: calls that hit a
// forwarding tombstone transparently re-route and retry. Hard assertions:
// no call is lost (the per-object totals add up to exactly the calls the
// callers counted), and throughput after the wave is back to at least
// rebalanceMinRecovery of what it was before it (the steady state is remote
// either way, so it must recover once the redirects have been absorbed).
func TestRebalance(t *testing.T) {
	if testing.Short() {
		t.Skip("rebalance drives real time windows")
	}
	rts := startTCP(t, 3, func(cfg *core.Config) { cfg.Placement = core.LocalOnly{} })
	for _, rt := range rts {
		rt.RegisterClass("hot", func() any { return &hotObj{} })
	}

	hosted := make([]*core.Proxy, rebalanceObjects)
	proxies := make([]*core.Proxy, rebalanceObjects)
	for i := range hosted {
		p, err := rts[1].NewParallelObject("hot")
		if err != nil {
			t.Fatal(err)
		}
		hosted[i] = p
		proxies[i] = rts[0].Attach(p.Ref())
	}

	var calls atomic.Int64
	errc := make(chan error, rebalanceCallers)
	stopCallers := startCallers(rebalanceCallers, func(c int, stop <-chan struct{}) {
		for i := c; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := proxies[i%len(proxies)].Invoke("Bump", int64(1)); err != nil {
				errc <- err
				return
			}
			calls.Add(1)
		}
	})
	defer stopCallers()

	before := rate(&calls, rebalancePhase)

	t0 := time.Now()
	for _, p := range hosted[:rebalanceObjects/2] {
		if err := rts[1].MigrateCtx(context.Background(), p.URI(), 2); err != nil {
			t.Fatalf("migrate %s: %v", p.URI(), err)
		}
	}
	wave := time.Since(t0)

	// One window is one scheduler or GC hiccup away from the floor on a
	// shared machine, so a low one is re-measured (bounded) and the best
	// kept: a persistent collapse fails every window.
	after := 0.0
	for attempt := 0; attempt < 3 && after < rebalanceMinRecovery*before; attempt++ {
		after = max(after, rate(&calls, rebalancePhase))
	}
	stopCallers()
	select {
	case err := <-errc:
		t.Fatalf("a caller saw an error across the wave: %v", err)
	default:
	}

	var sum int64
	for _, p := range proxies {
		v, err := readTotal(p)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	if sum != calls.Load() {
		t.Errorf("lost calls: objects saw %d, callers made %d", sum, calls.Load())
	}
	t.Logf("calls/s before %.0f, after %.0f (%.2fx); %d objects migrated in %v",
		before, after, after/before, rebalanceObjects/2, wave.Round(time.Microsecond))
	if after < rebalanceMinRecovery*before {
		t.Errorf("recovery %.2fx below required %.2fx", after/before, rebalanceMinRecovery)
	}
}
