package scenario

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// The failover population: failoverKeys virtual counters spread over the
// ring, hammered round-robin by failoverCallers goroutines on the two
// surviving nodes. Failure detection takes about three health probes. The
// windows are sized like rebalance's.
const (
	failoverKeys        = 12
	failoverCallers     = 8
	failoverPhase       = 400 * time.Millisecond
	failoverProbe       = 20 * time.Millisecond
	failoverMinRecovery = 0.7
)

// TestFailover drives virtual-object calls through an owner crash: three
// nodes over real loopback TCP, a virtual counter population with one
// synchronous replica per key, and the node owning the probe key killed
// outright mid-run. Health probes grade it down, ring successors promote
// their replicas, and callers re-resolve; no recovery action is taken.
//
// Hard assertions: every key serves a call again after the kill; no
// acknowledged call is lost (each counter's final total covers every
// success its callers counted; synchronous replication trades duplicates
// for that guarantee, so totals may exceed the counts and the excess is
// logged); and throughput once callers have re-routed is at least
// failoverMinRecovery of the pre-kill figure.
func TestFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("failover drives real time windows")
	}
	rts := startTCP(t, 3, func(cfg *core.Config) { cfg.HealthProbe = failoverProbe })
	for _, rt := range rts {
		rt.RegisterVirtualClass("vhot", func() any { return &hotObj{} },
			core.VirtualConfig{Replicas: 1})
	}

	// The victim is whichever node owns key 0; callers run on the other
	// two, so killing it removes hosts, not clients.
	keyOf := func(k int) string { return fmt.Sprintf("k%d", k) }
	victim, ok := rts[0].VirtualOwner("vhot", keyOf(0))
	if !ok {
		t.Fatal("ring has no owner")
	}
	var survivors []*core.Runtime
	for _, rt := range rts {
		if rt.NodeID() != victim {
			survivors = append(survivors, rt)
		}
	}

	// Activate (and replicate) every key before measuring, so the kill
	// tests failover of live state rather than first-call activation.
	for k := 0; k < failoverKeys; k++ {
		virtualTotal(t, survivors[0], "vhot", keyOf(k))
	}

	succ := make([]atomic.Int64, failoverKeys)
	var calls atomic.Int64
	stopCallers := startCallers(failoverCallers, func(c int, stop <-chan struct{}) {
		rt := survivors[c%len(survivors)]
		cache := make([]*core.Proxy, failoverKeys)
		for i := c; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := i % failoverKeys
			cctx, cancel := context.WithTimeout(context.Background(), time.Second)
			p := cache[k]
			if p == nil {
				var err error
				if p, err = rt.VirtualObjectCtx(cctx, "vhot", keyOf(k)); err != nil {
					cancel()
					continue // mid-failover: retry until routing converges
				}
				cache[k] = p
			}
			_, err := p.InvokeCtx(cctx, "Bump", int64(1))
			cancel()
			if err != nil {
				cache[k] = nil // stale route; re-resolve next round
				continue
			}
			succ[k].Add(1)
			calls.Add(1)
		}
	})
	defer stopCallers()

	before := rate(&calls, failoverPhase)

	// Kill the owner outright (no drain, no goodbye) and wait until every
	// key has served a call again.
	preKill := make([]int64, failoverKeys)
	for k := range preKill {
		preKill[k] = succ[k].Load()
	}
	t0 := time.Now()
	rts[victim].Close()
	recoverDeadline := t0.Add(15 * time.Second)
	for k := 0; k < failoverKeys; k++ {
		for succ[k].Load() == preKill[k] {
			if time.Now().After(recoverDeadline) {
				t.Fatalf("key %s never recovered after the kill", keyOf(k))
			}
			time.Sleep(time.Millisecond)
		}
	}
	recovered := time.Since(t0)

	after := rate(&calls, failoverPhase)
	stopCallers()

	var duplicates int64
	for k := 0; k < failoverKeys; k++ {
		sum, acked := virtualTotal(t, survivors[0], "vhot", keyOf(k)), succ[k].Load()
		if sum < acked {
			t.Errorf("lost calls on %s: object saw %d, callers had %d acknowledged", keyOf(k), sum, acked)
		}
		duplicates += sum - acked
	}
	t.Logf("calls/s before %.0f, after %.0f (%.2fx); every key served again %v after the kill; %d duplicate executions",
		before, after, after/before, recovered.Round(time.Millisecond), duplicates)
	if after < failoverMinRecovery*before {
		t.Errorf("recovery %.2fx below required %.2fx", after/before, failoverMinRecovery)
	}
}
