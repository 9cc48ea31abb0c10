package bench

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/remoting"
	"repro/internal/transport"
)

// RebalanceRow is one phase of the live-migration experiment: sustained
// calls/s before the migration wave, while it runs, and after it
// completes. The JSON form feeds the CI benchmark-regression gate, which
// tracks the after/before recovery ratio.
type RebalanceRow struct {
	Phase       string        `json:"phase"` // "before", "during", "after"
	Calls       int           `json:"calls"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	CallsPerSec float64       `json:"calls_per_sec"`
	// Migrated is the number of objects moved during this phase (non-zero
	// only for "during").
	Migrated int `json:"migrated,omitempty"`
}

// RebalanceConfig parameterises the rebalance experiment.
type RebalanceConfig struct {
	// Objects is the hot object population, all initially hosted on one
	// node; Callers goroutines hammer them round-robin with synchronous
	// calls from another node.
	Objects int
	Callers int
	// Phase is the sampling window for the before and after measurements.
	Phase time.Duration
	// MigrateFraction of the objects live-migrate to a third node while
	// the callers keep running (default 0.5).
	MigrateFraction float64
}

// hotObj is the migratable workload class: exported state so snapshots
// carry it, one method that both mutates and returns.
type hotObj struct {
	N int64
}

// Bump adds v and returns the running total.
func (h *hotObj) Bump(v int64) int64 {
	h.N += v
	return h.N
}

// RunRebalance measures throughput through a live migration wave: three
// nodes over real loopback TCP (multiplexed channel), the hot object
// population on node 1, callers on node 0, and — mid-run — half the
// objects migrating to node 2. Callers never see an error: calls that hit
// a forwarding tombstone transparently re-route and retry. The experiment
// reports sustained calls/s before, during and after the wave; the
// after/before recovery ratio is the gated headline (expected ≥ 0.9: the
// steady state after the move is remote either way, so throughput must
// recover once the tombstone redirects have been absorbed).
//
// This runs with no injected 2005 costs: it is a forward-looking
// production benchmark, not a paper reproduction.
func RunRebalance(cfg RebalanceConfig) ([]RebalanceRow, error) {
	if cfg.Objects <= 0 {
		cfg.Objects = 16
	}
	if cfg.Callers <= 0 {
		cfg.Callers = 8
	}
	if cfg.Phase <= 0 {
		cfg.Phase = 150 * time.Millisecond
	}
	if cfg.MigrateFraction <= 0 || cfg.MigrateFraction > 1 {
		cfg.MigrateFraction = 0.5
	}

	const nodes = 3
	net := transport.TCPNetwork{}
	rts := make([]*core.Runtime, nodes)
	addrs := make([]string, nodes)
	for i := range rts {
		rt, err := core.Start(core.Config{
			NodeID:    i,
			Channel:   remoting.NewMultiplexedChannel(net),
			Placement: core.LocalOnly{},
		}, "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("bench: rebalance node %d: %w", i, err)
		}
		defer rt.Close()
		rts[i] = rt
		addrs[i] = rt.Addr()
	}
	for _, rt := range rts {
		if err := rt.JoinCluster(addrs); err != nil {
			return nil, err
		}
		rt.RegisterClass("hot", func() any { return &hotObj{} })
	}

	// The population lives on node 1; callers attach from node 0.
	hosted := make([]*core.Proxy, cfg.Objects)
	proxies := make([]*core.Proxy, cfg.Objects)
	for i := range hosted {
		p, err := rts[1].NewParallelObject("hot")
		if err != nil {
			return nil, err
		}
		hosted[i] = p
		proxies[i] = rts[0].Attach(p.Ref())
	}

	var calls atomic.Int64
	stop := make(chan struct{})
	errc := make(chan error, cfg.Callers)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := proxies[i%len(proxies)].Invoke("Bump", int64(1)); err != nil {
					errc <- fmt.Errorf("bench: rebalance caller %d: %w", c, err)
					return
				}
				calls.Add(1)
			}
		}(c)
	}

	window := func(phase string, d time.Duration) RebalanceRow {
		start := calls.Load()
		t0 := time.Now()
		time.Sleep(d)
		elapsed := time.Since(t0)
		n := int(calls.Load() - start)
		return RebalanceRow{
			Phase:       phase,
			Calls:       n,
			Elapsed:     elapsed,
			CallsPerSec: float64(n) / elapsed.Seconds(),
		}
	}

	before := window("before", cfg.Phase)

	// The migration wave: a live rebalance moving MigrateFraction of the
	// population from node 1 to node 2 while the callers keep hammering.
	moveN := int(float64(cfg.Objects) * cfg.MigrateFraction)
	start := calls.Load()
	t0 := time.Now()
	for i := 0; i < moveN; i++ {
		if err := rts[1].MigrateCtx(context.Background(), hosted[i].URI(), 2); err != nil {
			close(stop)
			wg.Wait()
			return nil, fmt.Errorf("bench: migrate %s: %w", hosted[i].URI(), err)
		}
	}
	elapsed := time.Since(t0)
	n := int(calls.Load() - start)
	during := RebalanceRow{
		Phase:       "during",
		Calls:       n,
		Elapsed:     elapsed,
		CallsPerSec: float64(n) / elapsed.Seconds(),
		Migrated:    moveN,
	}

	after := window("after", cfg.Phase)
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		return nil, err
	default:
	}

	// Correctness backstop: no call may have been lost across the wave —
	// the per-object totals must add up to exactly the calls counted.
	var total int64
	for _, p := range proxies {
		res, err := p.Invoke("Bump", int64(0))
		if err != nil {
			return nil, err
		}
		v, ok := res.(int64)
		if !ok {
			return nil, fmt.Errorf("bench: rebalance total came back as %T", res)
		}
		total += v
	}
	if total != calls.Load() {
		return nil, fmt.Errorf("bench: rebalance lost calls: objects saw %d, callers made %d", total, calls.Load())
	}

	return []RebalanceRow{before, during, after}, nil
}

// RebalanceRecovery extracts the after/before throughput ratio of a run.
func RebalanceRecovery(rows []RebalanceRow) (float64, bool) {
	var before, after float64
	for _, r := range rows {
		switch r.Phase {
		case "before":
			before = r.CallsPerSec
		case "after":
			after = r.CallsPerSec
		}
	}
	if before <= 0 || after <= 0 {
		return 0, false
	}
	return after / before, true
}

// PrintRebalance emits the rebalance table.
func PrintRebalance(w io.Writer, rows []RebalanceRow) {
	fmt.Fprintln(w, "Rebalance — sustained calls/s through a live migration wave (node1 -> node2, callers on node0)")
	fmt.Fprintf(w, "%-10s %10s %12s %12s %10s\n", "phase", "calls", "elapsed", "calls/s", "migrated")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %10d %12s %12.0f %10d\n",
			r.Phase, r.Calls, r.Elapsed.Round(time.Microsecond), r.CallsPerSec, r.Migrated)
	}
	if rec, ok := RebalanceRecovery(rows); ok {
		fmt.Fprintf(w, "recovery: %.2fx of pre-migration throughput\n", rec)
	}
}
