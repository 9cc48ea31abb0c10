package scenario

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/transport"
)

// The open-loop population. olService is slept, not spun, so capacity is
// about olObjects/olService on any hardware and the accepted/offered ratio
// at a given factor is machine-independent; it is long enough that the
// sleep, not per-RPC CPU cost, bounds capacity even under the race
// detector (if capacity were CPU-bound, offering 2x would saturate the
// host and arrivals would queue outside the bounded mailboxes, latency
// the admission control cannot see). olWindow is several times the
// full-mailbox fill time olBound*olService, so the overload rows measure
// the shedding steady state, not the ramp. olClients sits far above the
// bandwidth-delay product.
const (
	olObjects   = 4
	olService   = 5 * time.Millisecond
	olWindow    = 800 * time.Millisecond
	olCalibrate = 300 * time.Millisecond
	olClients   = 10000
	olBound     = 16
)

// olWorker is the served class: Work sleeps for the requested number of
// microseconds, modelling a fixed-cost request handler.
type olWorker struct{}

// Work sleeps us microseconds and echoes it.
func (olWorker) Work(us int) int {
	time.Sleep(time.Duration(us) * time.Microsecond)
	return us
}

// pinPlacement places every new object on one fixed node, so the client
// runtime's creations all land on the serving node.
type pinPlacement struct{ node int }

// Pick implements core.PlacementPolicy.
func (p pinPlacement) Pick(int, []core.NodeLoad) int { return p.node }

// olNetsim is the shaped-network profile of the netsim topology: LAN-ish
// latency plus a 0.5% loss rate modelled as 5 ms retransmit delays, enough
// to put honest spikes in the tail without dominating the median.
var olNetsim = netsim.Params{
	Latency:    200 * time.Microsecond,
	PerMessage: 5 * time.Microsecond,
	Loss:       0.005,
	LossDelay:  5 * time.Millisecond,
}

// olProxies creates the served population from client, which must place it
// on the other node.
func olProxies(t *testing.T, client *core.Runtime) []*core.Proxy {
	t.Helper()
	proxies := make([]*core.Proxy, olObjects)
	for i := range proxies {
		p, err := client.NewParallelObject("olWorker")
		if err != nil {
			t.Fatalf("object %d: %v", i, err)
		}
		if p.IsLocal() {
			t.Fatalf("object %d placed locally; pin failed", i)
		}
		proxies[i] = p
	}
	return proxies
}

// olCapacity measures the topology's saturated throughput: 8 closed-loop
// callers per object (enough pipelining to hide the RTT, few enough to stay
// under the mailbox bound) for olCalibrate. The offered rates are factors of
// this number, which is what keeps the accepted/offered ratio
// machine-independent.
func olCapacity(t *testing.T, proxies []*core.Proxy) float64 {
	t.Helper()
	const callersPerObject = 8
	us := int(olService / time.Microsecond)
	var calls, failed atomic.Int64
	stopCallers := startCallers(len(proxies)*callersPerObject, func(c int, stop <-chan struct{}) {
		for {
			select {
			case <-stop:
				return
			default:
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			_, err := proxies[c%len(proxies)].InvokeCtx(ctx, "Work", us)
			cancel()
			if err != nil {
				failed.Add(1)
				return
			}
			calls.Add(1)
		}
	})
	capacity := rate(&calls, olCalibrate)
	stopCallers()
	if f := failed.Load(); f > 0 {
		t.Fatalf("calibration: %d callers failed", f)
	}
	if capacity <= 0 {
		t.Fatal("calibration measured zero throughput")
	}
	return capacity
}

// olOutcome is what one open-loop window saw.
type olOutcome struct {
	offered, accepted, shed, expired, other int
	// saturated counts arrivals dropped because all simulated clients were
	// busy.
	saturated int
	// serverSheds is the hosting node's MailboxSheds delta over the window.
	serverSheds int64
	latency     metrics.Histogram // accepted calls, nanoseconds
}

// olDrive runs one open-loop window: Poisson arrivals at perSec, each arrival
// an independent simulated client posting one call with a deadline of
// twice the SLO. Arrivals do not wait for replies, so the only two outcomes
// under overload are unbounded queueing or shedding. Latencies of accepted
// calls go into per-object histograms, merged at the end (no shared lock on
// the arrival path).
func olDrive(server *core.Runtime, proxies []*core.Proxy, perSec float64, slo time.Duration) *olOutcome {
	us := int(olService / time.Microsecond)
	type shard struct {
		mu sync.Mutex
		h  metrics.Histogram
	}
	shards := make([]shard, len(proxies))
	var accepted, shed, expired, other atomic.Int64
	out := &olOutcome{}
	sem := make(chan struct{}, olClients)
	var wg sync.WaitGroup
	// Fixed seed: the arrival schedule is part of the scenario's
	// definition, not a source of run-to-run noise.
	rng := rand.New(rand.NewSource(42))
	shedsBefore := server.Stats().MailboxSheds

	start := time.Now()
	next := start
	for {
		next = next.Add(time.Duration(rng.ExpFloat64() / perSec * float64(time.Second)))
		if next.Sub(start) > olWindow {
			break
		}
		// Sleep until the scheduled arrival; a late wakeup fires
		// immediately (catch-up burst), preserving the offered rate.
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		select {
		case sem <- struct{}{}:
		default:
			out.saturated++
			continue
		}
		out.offered++
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			ctx, cancel := context.WithTimeout(context.Background(), 2*slo)
			defer cancel()
			t0 := time.Now()
			_, err := proxies[i].InvokeCtx(ctx, "Work", us)
			lat := time.Since(t0)
			switch {
			case err == nil:
				accepted.Add(1)
				s := &shards[i]
				s.mu.Lock()
				s.h.Record(int64(lat))
				s.mu.Unlock()
			case errors.Is(err, errs.ErrOverloaded):
				shed.Add(1)
			case errors.Is(err, context.DeadlineExceeded):
				expired.Add(1)
			default:
				other.Add(1)
			}
		}(out.offered % len(proxies))
	}
	wg.Wait()

	out.accepted, out.shed = int(accepted.Load()), int(shed.Load())
	out.expired, out.other = int(expired.Load()), int(other.Load())
	out.serverSheds = server.Stats().MailboxSheds - shedsBefore
	for i := range shards {
		out.latency.Merge(&shards[i].h)
	}
	return out
}

// TestOpenLoop offers Poisson arrivals to mailboxes bounded at olBound over
// two topologies: real loopback TCP at 0.5x (underload) and 2x (overload)
// of the measured closed-loop capacity, and netsim with injected latency
// and loss at 2x.
//
// Hard assertions per overload row: the node sheds (admission control
// engaged, ErrOverloaded surfacing at the remote caller, the server
// counting at least the sheds the clients saw); p99 of accepted calls stays
// under the SLO (4x the full-queue wait, plus retransmit slack on the lossy
// topology), so the queue did not grow without bound; the accepted/offered
// ratio stays in [0.2, 0.95], so the node kept serving about its capacity
// while refusing the excess. The underload row keeps an accepted ratio of
// at least 0.8. No row may see an error other than overload or deadline,
// and the merged percentiles must be ordered.
func TestOpenLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("open loop drives real time windows")
	}
	topologies := []struct {
		name     string
		lossTail time.Duration // extra SLO slack for injected retransmit delay
		factors  []float64
		boot     func(t *testing.T) (server, client *core.Runtime)
	}{
		{"tcp", 0, []float64{0.5, 2.0}, func(t *testing.T) (*core.Runtime, *core.Runtime) {
			rts := startTCP(t, 2, func(cfg *core.Config) {
				cfg.Placement = pinPlacement{0}
				cfg.MailboxBound = olBound
			})
			for _, rt := range rts {
				rt.RegisterClass("olWorker", func() any { return olWorker{} })
			}
			return rts[0], rts[1]
		}},
		{"netsim+loss", 3 * olNetsim.LossDelay, []float64{2.0}, func(t *testing.T) (*core.Runtime, *core.Runtime) {
			cl, err := cluster.New(cluster.Options{
				Nodes:   2,
				Network: netsim.NewShapedNetwork(transport.NewMemNetwork(), olNetsim),
				Config:  core.Config{Placement: pinPlacement{0}, MailboxBound: olBound},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cl.Close)
			cl.RegisterClass("olWorker", func() any { return olWorker{} })
			return cl.Node(0), cl.Node(1)
		}},
	}
	for _, top := range topologies {
		t.Run(top.name, func(t *testing.T) {
			server, client := top.boot(t)
			proxies := olProxies(t, client)
			capacity := olCapacity(t, proxies)
			// Per-object service time as measured (sleep overshoot and RPC
			// overhead included), from which the latency SLO follows: a
			// full bounded queue costs olBound service times of wait, and
			// p99 beyond 4x that means queueing is not actually bounded.
			svc := time.Duration(olObjects / capacity * float64(time.Second))
			slo := 4 * olBound * svc
			if slo < 50*time.Millisecond {
				slo = 50 * time.Millisecond // scheduler-noise floor on small bounds
			}
			slo += top.lossTail
			for _, f := range top.factors {
				out := olDrive(server, proxies, capacity*f, slo)
				const res = 10 * time.Microsecond // finer than the histogram resolves
				p50 := time.Duration(out.latency.Quantile(0.50)).Round(res)
				p99 := time.Duration(out.latency.Quantile(0.99)).Round(res)
				worst := time.Duration(out.latency.Max()).Round(res)
				t.Logf("%.1fx of %.0f calls/s: offered %d, accepted %d, shed %d (server %d), expired %d, saturated %d; p50 %v p99 %v max %v, SLO %v",
					f, capacity, out.offered, out.accepted, out.shed, out.serverSheds, out.expired, out.saturated, p50, p99, worst, slo.Round(time.Millisecond))
				if out.accepted == 0 {
					t.Fatalf("%.1fx: no calls accepted", f)
				}
				ratio := float64(out.accepted) / float64(out.offered)
				if f > 1 {
					if out.shed == 0 {
						t.Errorf("%.1fx: offered over capacity yet nothing was shed", f)
					}
					if p99 > slo {
						t.Errorf("%.1fx: p99 %v exceeds SLO %v: queueing is not bounded", f, p99, slo)
					}
					if ratio < 0.2 || ratio > 0.95 {
						t.Errorf("%.1fx: accepted ratio %.2f outside [0.20, 0.95]", f, ratio)
					}
				} else if ratio < 0.8 {
					t.Errorf("%.1fx: accepted ratio %.2f below 0.80 in underload", f, ratio)
				}
				if out.serverSheds < int64(out.shed) {
					t.Errorf("%.1fx: server counted %d sheds, clients observed %d ErrOverloaded", f, out.serverSheds, out.shed)
				}
				if p50 > p99 || p99 > worst {
					t.Errorf("%.1fx: percentiles not ordered: p50 %v p99 %v max %v", f, p50, p99, worst)
				}
				if out.other > 0 {
					t.Errorf("%.1fx: %d calls failed with errors other than overload/deadline", f, out.other)
				}
			}
		})
	}
}
