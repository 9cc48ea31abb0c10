package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/racetest"
	"repro/internal/remoting"
	"repro/internal/transport"
)

// vcellObj is a replicated virtual class whose state has a fixed size, so
// every snapshot of it costs the same.
type vcellObj struct{ N int64 }

func (c *vcellObj) Set(v int64) { c.N = v }

// startShaped boots n joined runtimes over one shaped memory network, which
// a test can isolate a node on (ShapedNetwork.Isolate: its frames vanish, so
// calls to it wait out their deadlines instead of failing at dial), with
// vcell registered virtual at replicas.
func startShaped(t *testing.T, n, replicas int) ([]*Runtime, *netsim.ShapedNetwork) {
	t.Helper()
	net := netsim.NewShapedNetwork(transport.NewMemNetwork(), netsim.Params{})
	rts := startNodesOn(t, net, func(i int) string { return fmt.Sprintf("mem://n%d", i) }, n, nil)
	for _, rt := range rts {
		rt.RegisterVirtualClass("vcell", func() any { return &vcellObj{} }, VirtualConfig{Replicas: replicas})
	}
	return rts, net
}

// vcellKeys returns n vcell keys that node owner owns and whose replica
// targets, in order, are exactly targets.
func vcellKeys(t *testing.T, rts []*Runtime, n, owner int, targets ...int) []string {
	t.Helper()
	var keys []string
	for i := 0; len(keys) < n; i++ {
		if i == 100_000 {
			t.Fatalf("found %d of %d keys owned by node %d replicated to %v", len(keys), n, owner, targets)
		}
		key := fmt.Sprintf("k%d", i)
		if o, _ := rts[0].VirtualOwner("vcell", key); o != owner {
			continue
		}
		var got []int
		for _, p := range rts[owner].replicaTargets(virtualURI("vcell", key), len(targets)) {
			got = append(got, p.node)
		}
		if slices.Equal(got, targets) {
			keys = append(keys, key)
		}
	}
	return keys
}

// TestAllocBudgetReplicatedCall is the budget of a call on a
// sync-replicated virtual object (ROADMAP item 5(a)): a 3-node mem://
// cluster, a call from a node that does not own the object, a state of fixed
// size and no tokens, both ends and every replica counted (the test class
// dispatches by reflection, about 15 of them). Before the runtime's ships
// rode the completion-driven call path, a call measured 66 allocations at
// Replicas 1 and 113 at Replicas 2: per replica target a goroutine with its
// closure, WaitGroup, error channel and deadline, and the ship's arguments
// boxed again, and a replica rebuilt by every ship, since a dedup memory
// with no records ships in full. Riding the completion-driven fan-out, it
// measured 65 and 101: a ship is one fan-out with its slab of records and
// one deadline, its arguments are boxed once, and a replica takes a full
// ship of its own generation in place; the lane's context hook on each call
// (5 allocations) takes most of what the goroutines gave back. It measured
// 50 and 70 once the object manager's generated thunks bound a ship's
// arguments instead of reflection (about 15 allocations a ship), and
// measures 50 and 67 now that a round watches its deadline with one hook
// for all its calls, in place of the lane's hook on each. The budget is each
// figure plus one.
func TestAllocBudgetReplicatedCall(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	for _, tc := range []struct{ replicas, budget int }{{1, 51}, {2, 68}} {
		t.Run(fmt.Sprintf("replicas=%d", tc.replicas), func(t *testing.T) {
			rts, _ := startShaped(t, 3, tc.replicas)
			key := vcellKeys(t, rts, 1, 0, []int{1, 2}[:tc.replicas]...)[0]
			p, err := rts[2].VirtualObject("vcell", key)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			args := []any{int64(7)}
			call := func() {
				if _, err := p.InvokeCtx(ctx, "Set", args...); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 8; i++ {
				call() // declare the handles, warm the pools
			}
			n := testing.AllocsPerRun(300, call)
			if n > float64(tc.budget) {
				t.Errorf("replicated call at Replicas %d: %.0f allocs, budget %d", tc.replicas, n, tc.budget)
			} else {
				t.Logf("replicated call at Replicas %d: %.0f allocs", tc.replicas, n)
			}
		})
	}
}

// TestSyncShipsHoldNoGoroutine is SPEC guarantee 3's ship as a fan-out:
// calls on objects whose one replica target is isolated wait for its
// acknowledgement without a goroutine of their own (not one per replica
// target), and fail once the ship's deadline has passed.
func TestSyncShipsHoldNoGoroutine(t *testing.T) {
	const objects = 8
	rts, net := startShaped(t, 3, 1)
	var ps []*Proxy
	for _, key := range vcellKeys(t, rts, objects, 0, 1) {
		p, err := rts[2].VirtualObject("vcell", key)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Invoke("Set", int64(1)); err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	time.Sleep(20 * time.Millisecond)
	base := runtime.NumGoroutine()
	net.Isolate(rts[1].Addr())
	start := time.Now()
	var futs []*Future
	for _, p := range ps {
		futs = append(futs, p.InvokeAsync("Set", int64(2)))
	}
	time.Sleep(replicateSyncTimeout / 4) // every call is in its ship by now
	if n := runtime.NumGoroutine() - base; n > 2 {
		t.Errorf("%d calls waiting on an isolated replica hold %d more goroutines, want none", objects, n)
	} else {
		t.Logf("%d calls waiting on an isolated replica: %d more goroutines", objects, n)
	}
	for _, f := range futs {
		if _, err := f.Get(); err == nil || !strings.Contains(err.Error(), "no replica acknowledged") {
			t.Errorf("call whose one replica is isolated: err = %v, want no acknowledgement", err)
		}
	}
	if d := time.Since(start); d < replicateSyncTimeout || d > replicateSyncTimeout+time.Second {
		t.Errorf("calls failed after %v, want at the ship deadline of %v", d, replicateSyncTimeout)
	}
}

// TestAsyncShipsHoldNoGoroutine: an asynchronous ship (a failover's re-ship,
// a reconciliation) and a DropReplica to an isolated replica hold no
// goroutine while they wait, and give up at their deadline, which the
// record audit sees as every call record returned.
func TestAsyncShipsHoldNoGoroutine(t *testing.T) {
	const ships = 8
	check := remoting.AuditRecords()
	rts, net := startShaped(t, 3, 1)
	key := vcellKeys(t, rts, 1, 0, 1)[0]
	uri := virtualURI("vcell", key)
	p, err := rts[2].VirtualObject("vcell", key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke("Set", int64(1)); err != nil {
		t.Fatal(err)
	}
	w := rts[0].actor(uri).w
	w.snapMu.Lock()
	snap, seq := w.lastSnap, w.lastSeq
	w.snapMu.Unlock()
	time.Sleep(20 * time.Millisecond)
	base := runtime.NumGoroutine()
	net.Isolate(rts[1].Addr())
	start := time.Now()
	for i := 0; i < ships; i++ {
		if err := rts[0].shipSnapshot(w, snap, w.gen.Load(), seq, false); err != nil {
			t.Fatal(err)
		}
	}
	rts[0].dropReplicasFor(uri)
	if n := runtime.NumGoroutine() - base; n > 2 {
		t.Errorf("%d ships and a drop to an isolated replica hold %d more goroutines, want none", ships, n)
	} else {
		t.Logf("%d ships and a drop to an isolated replica: %d more goroutines", ships, n)
	}
	if err := check(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < replicateShipTimeout || d > replicateShipTimeout+time.Second {
		t.Errorf("the ships gave up after %v, want at their deadline of %v", d, replicateShipTimeout)
	}
}

// TestFanoutGivesUpAtItsDeadline: a round whose calls to two isolated peers
// never hear a reply ends at its deadline, which the round watches once for
// all its calls (the lanes put no hook on its context): the isolated peers'
// calls complete with the deadline's error, the reachable peer's with its
// answer, each once, and every record goes back.
func TestFanoutGivesUpAtItsDeadline(t *testing.T) {
	// Installed before the nodes start, so that it counts their channels,
	// and the first round whole: its server ends may still be giving their
	// records back when it ends.
	check := remoting.AuditRecords()
	rts, net := startShaped(t, 4, 1)
	probe := omLoadInfo()
	newFanout(context.Background(), time.Second, rts[0].otherPeers(false)).sendAll(probe.remoteCall).each(func(*peerCall) bool { return true })
	net.Isolate(rts[2].Addr())
	net.Isolate(rts[3].Addr())
	const timeout = 300 * time.Millisecond
	start := time.Now()
	f := newFanout(context.Background(), timeout, rts[0].otherPeers(false)).sendAll(probe.remoteCall)
	select {
	case <-f.done:
	case <-time.After(timeout + 5*time.Second):
		t.Fatalf("the round had not ended 5s after its deadline of %v", timeout)
	}
	var heard []int
	for c := range f.each {
		heard = append(heard, c.p.node)
		switch isolated := c.p.node >= 2; {
		case isolated && !errors.Is(c.err, context.DeadlineExceeded):
			t.Errorf("the call to isolated node %d completed with %v, want its deadline", c.p.node, c.err)
		case !isolated && c.err != nil:
			t.Errorf("the call to node %d failed: %v", c.p.node, c.err)
		}
	}
	if d := time.Since(start); d < timeout || d > timeout+time.Second {
		t.Errorf("the round ended after %v, want at its deadline of %v", d, timeout)
	}
	if !slices.Equal(heard, []int{1, 2, 3}) {
		t.Errorf("the round heard nodes %v, want 1, 2 and 3", heard)
	}
	if n := f.left.Load(); n != 0 {
		t.Errorf("the round counts %d calls left, want 0: a call completed more or less than once", n)
	}
	if err := check(); err != nil {
		t.Error(err)
	}
}

// TestCensusWaitsOneTimeout is SPEC guarantee 3's promotion census as a
// fan-out: on 5 nodes with 2 peers isolated, the census asks every peer at
// once, so activating a replicated object waits one census timeout for the
// two that never answer (after the resolve probes' one timeout), not one
// per isolated peer, and still reaches its majority of 3.
func TestCensusWaitsOneTimeout(t *testing.T) {
	rts, net := startShaped(t, 5, 1)
	key := vcellKeys(t, rts, 1, 0, 1)[0]
	net.Isolate(rts[3].Addr())
	net.Isolate(rts[4].Addr())
	const slack = 250 * time.Millisecond
	start := time.Now()
	if _, err := rts[0].VirtualObject("vcell", key); err != nil {
		t.Fatal(err)
	}
	d := time.Since(start)
	if limit := resolveProbeTimeout + replicaCensusTimeout + slack; d > limit {
		t.Errorf("activation with 2 of 4 peers isolated took %v, want one resolve and one census timeout (%v)", d, limit)
	} else {
		t.Logf("activation with 2 of 4 peers isolated took %v", d)
	}
	if hosts := hostOf(rts, virtualURI("vcell", key)); !slices.Equal(hosts, []int{0}) {
		t.Errorf("hosted on %v, want the owner, node 0", hosts)
	}
}
