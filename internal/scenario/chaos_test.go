package scenario

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/remoting"
	"repro/internal/transport"
)

// The chaos population: chaosKeys replicated virtual counters hammered
// round-robin by chaosCallers goroutines spread over all three nodes.
// chaosCalm is the sampling window of the calm and after figures,
// chaosFaults how long the fault schedule runs: a new fault every
// chaosFaultEvery, healed chaosFaultFor later, ending with a full heal.
// chaosMinRecovery sits well below failover's floor because the run ends
// right after the final heal, before placement has fully settled.
const (
	chaosKeys        = 6
	chaosCallers     = 6
	chaosCalm        = 250 * time.Millisecond
	chaosFaults      = time.Second
	chaosProbe       = 20 * time.Millisecond
	chaosFaultEvery  = 300 * time.Millisecond
	chaosFaultFor    = 200 * time.Millisecond
	chaosMinRecovery = 0.25
	chaosClass       = "vchaos"
)

// TestChaos drives effectively-once calls through a seeded fault schedule,
// one subtest per seed: three nodes over an in-memory network wrapped per
// node in a fault injector, one synchronous replica per key, retries with
// backoff enabled behind each channel's per-peer dial backoff, and an
// idempotency token on every call. The schedule derived from the seed injects partitions (symmetric
// and asymmetric), crash-restarts and send stalls while callers keep
// driving logical calls, each minted one token and retried with that same
// token until acknowledged.
//
// Hard assertions. Exactness: after the network heals and every in-flight
// logical call drains, each counter's total EQUALS the number of calls its
// callers got acknowledged: zero lost acknowledgements and zero double
// executions (the dedup layer's guarantee; without it retries across
// failovers double-apply). Recovery: every key serves again within 20 s of
// the final heal, callers drain within 20 s on the healed network, and
// throughput after the heal is at least chaosMinRecovery of the calm figure.
func TestChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos runs about 2.5 s per seed")
	}
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			defer func() {
				if t.Failed() {
					t.Logf("rerun this schedule: go test -race -run 'TestChaos/seed=%d' ./internal/scenario", seed)
				}
			}()
			runChaos(t, seed)
		})
	}
}

// runChaos is one seed of TestChaos.
func runChaos(t *testing.T, seed int64) {
	mem := transport.NewMemNetwork()
	inj := fault.NewInjector(seed)
	addrs := make([]string, 3)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("mem://chaos%d", i)
	}
	rts := startNodes(t, addrs,
		func(i int) transport.Network { return inj.Node(mem, addrs[i]) },
		func(cfg *core.Config) {
			cfg.HealthProbe = chaosProbe
			cfg.Retry = remoting.DefaultRetryPolicy()
			cfg.IdempotentCalls = true
			// The dedup window must cover every retry: a caller whose
			// attempt a partition blackholes retries after its full 1 s
			// per-attempt timeout, and in that second the failed-over
			// object keeps serving everyone else, thousands of newer
			// records at the measured per-key rates. An evicted record
			// means the retry re-executes (the documented LRU trade), which
			// the exactness check would flag, so size the cap to peak
			// per-object rate x retry latency with headroom.
			cfg.DedupPerObject = 16384
		})
	for _, rt := range rts {
		rt.RegisterVirtualClass(chaosClass, func() any { return &hotObj{} },
			core.VirtualConfig{Replicas: 1})
	}

	// Activate (and replicate) every key on a healthy network, so the
	// schedule tests faults against live state rather than first-call
	// activation.
	keyOf := func(k int) string { return fmt.Sprintf("c%d", k) }
	for k := 0; k < chaosKeys; k++ {
		virtualTotal(t, rts[0], chaosClass, keyOf(k))
	}

	// Each logical call mints one idempotency token and retries,
	// re-resolving on errors, with that SAME token until acknowledged, so
	// every acknowledgement corresponds to exactly one counted increment no
	// matter how many wire attempts it took. Once started, a logical call
	// is never abandoned (stop only gates starting new ones): an abandoned
	// ambiguous call would make exactness unverifiable. abort tears callers
	// down mid-call and closes only when the test is over.
	succ := make([]atomic.Int64, chaosKeys)
	var calls atomic.Int64
	abort := make(chan struct{})
	stopCallers := startCallers(chaosCallers, func(c int, stop <-chan struct{}) {
		rt := rts[c%len(rts)]
		cache := make([]*core.Proxy, chaosKeys)
		for i := c; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := i % chaosKeys
			tok := rt.NewCallToken()
			for { // one logical call: same token until acknowledged
				select {
				case <-abort:
					return
				default:
				}
				cctx, cancel := context.WithTimeout(
					core.WithCallToken(context.Background(), tok), time.Second)
				p := cache[k]
				if p == nil {
					var err error
					if p, err = rt.VirtualObjectCtx(cctx, chaosClass, keyOf(k)); err != nil {
						cancel()
						continue // routing still converging; retry
					}
					cache[k] = p
				}
				_, err := p.InvokeCtx(cctx, "Bump", int64(1))
				cancel()
				if err == nil {
					succ[k].Add(1)
					calls.Add(1)
					break
				}
				cache[k] = nil // stale route; re-resolve next attempt
			}
		}
	})
	defer func() {
		close(abort)
		stopCallers()
	}()

	calm := rate(&calls, chaosCalm)

	// RunSchedule blocks until its final event, a full heal, has fired.
	events, faults := chaosSchedule(seed, chaosFaults, addrs)
	inj.RunSchedule(abort, events)

	// Bounded recovery: every key must serve again after the final heal.
	preHeal := make([]int64, chaosKeys)
	for k := range preHeal {
		preHeal[k] = succ[k].Load()
	}
	healed := time.Now()
	for k := 0; k < chaosKeys; k++ {
		for succ[k].Load() == preHeal[k] {
			if time.Since(healed) > 20*time.Second {
				t.Fatalf("key %s never recovered after the final heal", keyOf(k))
			}
			time.Sleep(time.Millisecond)
		}
	}
	recovered := time.Since(healed)

	// Settle before measuring: the recovery wait above returns the moment
	// the last key serves one call, while dial backoffs opened during the
	// faults are still running out and stale routes still being chased. The
	// transient has no fixed length (a caller can be deep in a retry's sleep
	// or a dial backoff's window when the heal lands), so a window caught
	// mid-settle is re-measured
	// (bounded) and the best kept: a persistent collapse fails every
	// window, a settling one recovers within a few.
	after := 0.0
	for attempt := 0; attempt < 4 && after < chaosMinRecovery*calm; attempt++ {
		time.Sleep(chaosCalm)
		after = max(after, rate(&calls, chaosCalm))
	}

	// Drain: stop new logical calls, let every in-flight one finish. The
	// network is healed, so a drain that cannot finish is itself a bug.
	drained := make(chan struct{})
	go func() {
		stopCallers()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(20 * time.Second):
		t.Fatal("callers did not drain on a healed network")
	}

	// Exactness: a deficit means an acknowledged call was lost
	// (replication/promotion hole); an excess means a retried call executed
	// twice (dedup hole).
	for k := 0; k < chaosKeys; k++ {
		if sum, acked := virtualTotal(t, rts[0], chaosClass, keyOf(k)), succ[k].Load(); sum != acked {
			t.Errorf("exactness violated on %s: object saw %d, callers had %d acknowledged (diff %+d)",
				keyOf(k), sum, acked, sum-acked)
		}
	}
	t.Logf("%d faults; calls/s calm %.0f, after %.0f (%.2fx); every key served again %v after the final heal",
		faults, calm, after, after/calm, recovered.Round(time.Millisecond))
	if after < chaosMinRecovery*calm {
		t.Errorf("recovery %.2fx below required %.2fx", after/calm, chaosMinRecovery)
	}
}

// chaosSchedule derives a deterministic fault schedule from seed: one fault
// every chaosFaultEvery — a symmetric partition, an asymmetric partition, a
// crash-restart or a send stall between seeded picks — healed chaosFaultFor
// later, with a full heal as the final event. Returns the events and the
// number of faults injected.
func chaosSchedule(seed int64, d time.Duration, addrs []string) ([]fault.Event, int) {
	rng := rand.New(rand.NewSource(seed))
	var events []fault.Event
	faults := 0
	for at := chaosFaultEvery / 2; at+chaosFaultFor < d; at += chaosFaultEvery {
		a := addrs[rng.Intn(len(addrs))]
		b := addrs[rng.Intn(len(addrs))]
		for b == a {
			b = addrs[rng.Intn(len(addrs))]
		}
		heal := at + chaosFaultFor
		switch rng.Intn(4) {
		case 0:
			events = append(events,
				fault.Event{At: at, Name: "partition " + a + "<->" + b, Do: func(i *fault.Injector) { i.Partition(a, b) }},
				fault.Event{At: heal, Name: "heal " + a + "<->" + b, Do: func(i *fault.Injector) { i.Heal(a, b) }})
		case 1:
			events = append(events,
				fault.Event{At: at, Name: "partition " + a + "->" + b, Do: func(i *fault.Injector) { i.PartitionOneWay(a, b) }},
				fault.Event{At: heal, Name: "heal " + a + "->" + b, Do: func(i *fault.Injector) { i.Heal(a, b) }})
		case 2:
			events = append(events,
				fault.Event{At: at, Name: "crash " + a, Do: func(i *fault.Injector) { i.Crash(a) }},
				fault.Event{At: heal, Name: "restart " + a, Do: func(i *fault.Injector) { i.Restart(a) }})
		default:
			events = append(events,
				fault.Event{At: at, Name: "stall " + a + "->" + b, Do: func(i *fault.Injector) { i.Stall(a, b) }},
				fault.Event{At: heal, Name: "unstall " + a + "->" + b, Do: func(i *fault.Injector) { i.Unstall(a, b) }})
		}
		faults++
	}
	events = append(events, fault.Event{At: d, Name: "heal all", Do: func(i *fault.Injector) { i.HealAll() }})
	return events, faults
}
