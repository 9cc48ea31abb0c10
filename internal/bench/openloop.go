package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/netsim"
	"repro/internal/remoting"
	"repro/internal/transport"
)

// OpenLoopRow is one (scenario, offered-rate factor) cell of the open-loop
// serving experiment: Poisson arrivals at a fixed rate against bounded
// actor mailboxes, with latency percentiles of the accepted calls. Unlike
// the closed-loop experiments (a fixed caller pool that slows down when
// the server does), arrivals here do not wait for replies — the only two
// outcomes under overload are unbounded queueing or shedding, which is
// exactly what the row measures. The JSON form feeds the CI gate, which
// tracks accepted/s, p99 and the shed rate.
type OpenLoopRow struct {
	// Scenario names the transport: "tcp" (real loopback TCP) or
	// "netsim+loss" (in-process memory transport shaped with latency and
	// a retransmit-modelled loss rate).
	Scenario string `json:"scenario"`
	// Factor is the offered rate as a multiple of the measured closed-loop
	// capacity: 0.5 = comfortable underload, 2.0 = past saturation.
	Factor float64 `json:"factor"`
	Procs  int     `json:"procs,omitempty"`
	// Objects is the served actor population; Clients the simulated client
	// bound (max concurrent outstanding arrivals); Bound the per-mailbox
	// admission cap.
	Objects int `json:"objects"`
	Clients int `json:"clients"`
	Bound   int `json:"mailbox_bound"`
	// CapacityPerSec is the closed-loop calibration throughput the offered
	// rate was derived from; Offered/Accepted count individual arrivals.
	CapacityPerSec  float64 `json:"capacity_per_sec"`
	OfferedPerSec   float64 `json:"offered_per_sec"`
	AcceptedPerSec  float64 `json:"accepted_per_sec"`
	Offered         int     `json:"offered_calls"`
	Accepted        int     `json:"accepted_calls"`
	Shed            int     `json:"shed_calls"`
	DeadlineExpired int     `json:"deadline_expired"`
	OtherErrors     int     `json:"other_errors,omitempty"`
	// ClientSaturated counts arrivals dropped because all simulated
	// clients were busy (should stay 0 — the client pool is sized far
	// above the bandwidth-delay product).
	ClientSaturated int `json:"client_saturated,omitempty"`
	// ServerSheds / ServerDeadlineDrops are the hosting node's Stats
	// deltas over the run — the server-side view of the same story.
	ServerSheds         int64 `json:"server_sheds"`
	ServerDeadlineDrops int64 `json:"server_deadline_drops"`
	// Latency percentiles of accepted calls (HDR-bucketed, ~3% error) and
	// the SLO the run self-checked p99 against.
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
	SLOMs  float64 `json:"slo_ms"`
}

// OpenLoopConfig parameterises the open-loop experiment.
type OpenLoopConfig struct {
	// Objects is the served actor population (default 4).
	Objects int
	// ServiceTime is the per-call service sleep (default 5ms). Sleeping —
	// rather than spinning — makes capacity ≈ Objects/ServiceTime on any
	// hardware, so the accepted/offered ratio at a given factor is
	// machine-independent and CI can gate it across runners. The default
	// is deliberately long enough that the sleep, not per-RPC CPU cost,
	// bounds capacity even under the race detector: if capacity were
	// CPU-bound, offering 2x capacity would saturate the host and
	// open-loop arrivals would queue outside the bounded mailboxes —
	// unbounded latency the admission control cannot see.
	ServiceTime time.Duration
	// Duration is the sampling window per row (default 800ms — several
	// times the full-mailbox fill time of Bound*ServiceTime, so the
	// overload rows measure the shedding steady state, not the ramp).
	Duration time.Duration
	// Clients bounds the concurrently outstanding simulated clients
	// (default 10000).
	Clients int
	// Bound is the per-mailbox admission cap (default 16).
	Bound int
}

func (cfg *OpenLoopConfig) defaults() {
	if cfg.Objects <= 0 {
		cfg.Objects = 4
	}
	if cfg.ServiceTime <= 0 {
		cfg.ServiceTime = 5 * time.Millisecond
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 800 * time.Millisecond
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 10000
	}
	if cfg.Bound <= 0 {
		cfg.Bound = 16
	}
}

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

// olScenario is one transport topology: a serving node hosting the
// workers and a client runtime holding remote proxies to them.
type olScenario struct {
	name     string
	lossTail time.Duration // extra SLO slack for injected retransmit delay
	server   *core.Runtime
	proxies  []*core.Proxy
	cleanup  func()
}

// openLoopTCP boots the real-TCP topology: two core runtimes on loopback,
// multiplexed channel, all workers pinned to node 0.
func openLoopTCP(cfg OpenLoopConfig) (*olScenario, error) {
	net := transport.TCPNetwork{}
	rts := make([]*core.Runtime, 2)
	addrs := make([]string, 2)
	for i := range rts {
		rt, err := core.Start(core.Config{
			NodeID:       i,
			Channel:      remoting.NewMultiplexedChannel(net),
			Placement:    pinPlacement{0},
			MailboxBound: cfg.Bound,
		}, "127.0.0.1:0")
		if err != nil {
			for _, r := range rts[:i] {
				r.Close()
			}
			return nil, fmt.Errorf("bench: openloop tcp node %d: %w", i, err)
		}
		rts[i] = rt
		addrs[i] = rt.Addr()
	}
	sc := &olScenario{name: "tcp", server: rts[0], cleanup: func() {
		for _, rt := range rts {
			rt.Close()
		}
	}}
	for _, rt := range rts {
		if err := rt.JoinCluster(addrs); err != nil {
			sc.cleanup()
			return nil, err
		}
		rt.RegisterClass("olWorker", func() any { return olWorker{} })
	}
	if err := sc.makeProxies(rts[1], cfg.Objects); err != nil {
		sc.cleanup()
		return nil, err
	}
	return sc, nil
}

// openLoopNetsimParams is the shaped-network profile of the netsim
// scenario: LAN-ish latency plus a 0.5% loss rate modelled as 5 ms
// retransmit delays — enough to put honest spikes in the tail without
// dominating the median.
func openLoopNetsimParams() netsim.Params {
	return netsim.Params{
		Latency:    200 * time.Microsecond,
		PerMessage: 5 * time.Microsecond,
		Loss:       0.005,
		LossDelay:  5 * time.Millisecond,
	}
}

// openLoopNetsim boots the shaped in-process topology over the memory
// transport with injected latency and loss.
func openLoopNetsim(cfg OpenLoopConfig) (*olScenario, error) {
	p := openLoopNetsimParams()
	cl, err := cluster.New(cluster.Options{
		Nodes:        2,
		Net:          p,
		Placement:    pinPlacement{0},
		MailboxBound: cfg.Bound,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: openloop netsim: %w", err)
	}
	sc := &olScenario{
		name:     "netsim+loss",
		lossTail: 3 * p.LossDelay,
		server:   cl.Node(0),
		cleanup:  cl.Close,
	}
	cl.RegisterClass("olWorker", func() any { return olWorker{} })
	if err := sc.makeProxies(cl.Node(1), cfg.Objects); err != nil {
		sc.cleanup()
		return nil, err
	}
	return sc, nil
}

func (sc *olScenario) makeProxies(client *core.Runtime, objects int) error {
	sc.proxies = make([]*core.Proxy, objects)
	for i := range sc.proxies {
		p, err := client.NewParallelObject("olWorker")
		if err != nil {
			return fmt.Errorf("bench: openloop %s object %d: %w", sc.name, i, err)
		}
		if p.IsLocal() {
			return fmt.Errorf("bench: openloop %s object %d placed locally; pin failed", sc.name, i)
		}
		sc.proxies[i] = p
	}
	return nil
}

// olCalibrate is the closed-loop calibration window.
const olCalibrate = 300 * time.Millisecond

// calibrate measures the scenario's saturated throughput: 8 closed-loop
// callers per object (enough pipelining to hide the RTT, few enough to
// stay under the mailbox bound) for olCalibrate. The offered rates of the
// open-loop rows are factors of this number, which is what keeps the
// accepted/offered ratio machine-independent.
func (sc *olScenario) calibrate(cfg OpenLoopConfig) (float64, error) {
	const callersPerObject = 8
	us := int(cfg.ServiceTime / time.Microsecond)
	var calls atomic.Int64
	var failed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := range sc.proxies {
		for c := 0; c < callersPerObject; c++ {
			wg.Add(1)
			go func(p *core.Proxy) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					ctx, cancel := context.WithTimeout(context.Background(), time.Second)
					_, err := p.InvokeCtx(ctx, "Work", us)
					cancel()
					if err != nil {
						failed.Add(1)
						return
					}
					calls.Add(1)
				}
			}(sc.proxies[i])
		}
	}
	t0 := time.Now()
	time.Sleep(olCalibrate)
	elapsed := time.Since(t0)
	close(stop)
	wg.Wait()
	if f := failed.Load(); f > 0 {
		return 0, fmt.Errorf("bench: openloop %s calibration: %d callers failed", sc.name, f)
	}
	cap := float64(calls.Load()) / elapsed.Seconds()
	if cap <= 0 {
		return 0, fmt.Errorf("bench: openloop %s calibration measured zero throughput", sc.name)
	}
	return cap, nil
}

// drive runs one open-loop window: Poisson arrivals at rate, each arrival
// an independent simulated client posting one call with a deadline.
// Latencies of accepted calls are recorded into per-object histograms
// (merged at the end — no shared lock on the arrival path).
func (sc *olScenario) drive(cfg OpenLoopConfig, capacity, factor float64, slo time.Duration) OpenLoopRow {
	rate := capacity * factor
	callDeadline := 2 * slo
	us := int(cfg.ServiceTime / time.Microsecond)
	type shard struct {
		mu sync.Mutex
		h  Histogram
	}
	shards := make([]shard, len(sc.proxies))
	var accepted, shed, expired, other atomic.Int64
	var saturated int
	sem := make(chan struct{}, cfg.Clients)
	var wg sync.WaitGroup
	// Fixed seed: the arrival schedule is part of the experiment
	// definition, not a source of run-to-run noise.
	rng := rand.New(rand.NewSource(42))
	statsBefore := sc.server.Stats()

	start := time.Now()
	next := start
	offered := 0
	for {
		next = next.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if next.Sub(start) > cfg.Duration {
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
			saturated++
			continue
		}
		offered++
		i := offered % len(sc.proxies)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			ctx, cancel := context.WithTimeout(context.Background(), callDeadline)
			defer cancel()
			t0 := time.Now()
			_, err := sc.proxies[i].InvokeCtx(ctx, "Work", us)
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
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	statsAfter := sc.server.Stats()

	var h Histogram
	for i := range shards {
		h.Merge(&shards[i].h)
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	return OpenLoopRow{
		Scenario:            sc.name,
		Factor:              factor,
		Procs:               runtime.GOMAXPROCS(0),
		Objects:             cfg.Objects,
		Clients:             cfg.Clients,
		Bound:               cfg.Bound,
		CapacityPerSec:      capacity,
		OfferedPerSec:       float64(offered) / elapsed.Seconds(),
		AcceptedPerSec:      float64(accepted.Load()) / elapsed.Seconds(),
		Offered:             offered,
		Accepted:            int(accepted.Load()),
		Shed:                int(shed.Load()),
		DeadlineExpired:     int(expired.Load()),
		OtherErrors:         int(other.Load()),
		ClientSaturated:     saturated,
		ServerSheds:         statsAfter.MailboxSheds - statsBefore.MailboxSheds,
		ServerDeadlineDrops: statsAfter.DeadlineDrops - statsBefore.DeadlineDrops,
		P50Ms:               ms(h.Quantile(0.50)),
		P95Ms:               ms(h.Quantile(0.95)),
		P99Ms:               ms(h.Quantile(0.99)),
		P999Ms:              ms(h.Quantile(0.999)),
		MaxMs:               ms(h.Max()),
		SLOMs:               ms(slo.Nanoseconds()),
	}
}

// RunOpenLoop measures the open-loop serving scenario end to end over two
// transports (real loopback TCP, and netsim with injected latency and
// loss): a closed-loop calibration finds the node's capacity, then Poisson
// arrivals are offered at 0.5x (underload) and 2x (overload) of it against
// mailboxes bounded at cfg.Bound.
//
// Three properties are hard-asserted per overload row, not just measured —
// the run fails otherwise:
//
//   - the node sheds (admission control engaged; Shed > 0 with
//     ErrOverloaded surfacing at the remote caller);
//   - p99 of accepted calls stays under the SLO (≈4x the full-queue wait,
//     plus retransmit slack on the lossy scenario) — i.e. the queue did
//     not grow without bound;
//   - the accepted/offered ratio stays in [0.2, 0.95]: the node kept
//     serving about its capacity while refusing the excess.
//
// The underload row must keep an accepted ratio ≥ 0.8.
func RunOpenLoop(cfg OpenLoopConfig) ([]OpenLoopRow, error) {
	cfg.defaults()
	scenarios := []struct {
		make    func(OpenLoopConfig) (*olScenario, error)
		factors []float64
	}{
		{openLoopTCP, []float64{0.5, 2.0}},
		{openLoopNetsim, []float64{2.0}},
	}
	var rows []OpenLoopRow
	for _, s := range scenarios {
		sc, err := s.make(cfg)
		if err != nil {
			return nil, err
		}
		capacity, err := sc.calibrate(cfg)
		if err != nil {
			sc.cleanup()
			return nil, err
		}
		// Per-object service time as measured (sleep overshoot and RPC
		// overhead included), from which the latency SLO follows: a full
		// bounded queue costs Bound service times of wait, and p99 beyond
		// 4x that means queueing is not actually bounded.
		svc := time.Duration(float64(cfg.Objects) / capacity * float64(time.Second))
		slo := 4 * time.Duration(cfg.Bound) * svc
		if slo < 50*time.Millisecond {
			slo = 50 * time.Millisecond // scheduler-noise floor on small bounds
		}
		slo += sc.lossTail
		for _, f := range s.factors {
			row := sc.drive(cfg, capacity, f, slo)
			rows = append(rows, row)
			ratio := 0.0
			if row.Offered > 0 {
				ratio = float64(row.Accepted) / float64(row.Offered)
			}
			if f > 1 {
				switch {
				case row.Shed == 0:
					err = fmt.Errorf("bench: openloop %s %.1fx: offered %.0f/s over capacity %.0f/s yet nothing was shed",
						sc.name, f, row.OfferedPerSec, capacity)
				case row.P99Ms > row.SLOMs:
					err = fmt.Errorf("bench: openloop %s %.1fx: p99 %.1fms exceeds SLO %.0fms — queueing is not bounded",
						sc.name, f, row.P99Ms, row.SLOMs)
				case ratio < 0.2 || ratio > 0.95:
					err = fmt.Errorf("bench: openloop %s %.1fx: accepted ratio %.2f outside [0.20, 0.95]",
						sc.name, f, ratio)
				}
			} else if ratio < 0.8 {
				err = fmt.Errorf("bench: openloop %s %.1fx: accepted ratio %.2f below 0.80 in underload",
					sc.name, f, ratio)
			}
			if err != nil {
				sc.cleanup()
				return nil, err
			}
		}
		sc.cleanup()
	}
	return rows, nil
}

// olKey identifies an open-loop row across reports. Procs is deliberately
// not part of the key: the experiment runs once per report and its
// accepted/offered ratios are machine-independent, so a baseline recorded
// on a different runner must still match up row for row.
func olKey(r OpenLoopRow) string {
	return fmt.Sprintf("%s %.1fx", r.Scenario, r.Factor)
}

// PrintOpenLoop emits the open-loop table.
func PrintOpenLoop(w io.Writer, rows []OpenLoopRow) {
	fmt.Fprintln(w, "Open loop — Poisson arrivals vs bounded mailboxes (shed instead of queue; percentiles of accepted calls)")
	fmt.Fprintf(w, "%-14s %6s %10s %10s %7s %5s %8s %8s %8s %8s %8s %7s\n",
		"scenario", "factor", "offered/s", "accept/s", "shed", "ddl", "p50", "p95", "p99", "p999", "max", "slo")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %5.1fx %10.0f %10.0f %7d %5d %7.2fms %7.2fms %7.2fms %7.2fms %7.1fms %5.0fms\n",
			r.Scenario, r.Factor, r.OfferedPerSec, r.AcceptedPerSec, r.Shed, r.DeadlineExpired,
			r.P50Ms, r.P95Ms, r.P99Ms, r.P999Ms, r.MaxMs, r.SLOMs)
	}
}
