package core

import (
	"context"
	"testing"
	"time"
)

// TestRoundRobinWraparound: the cycle visits every node in order and wraps
// back to the first, including across many laps.
func TestRoundRobinWraparound(t *testing.T) {
	loads := []NodeLoad{{Node: 0}, {Node: 1}, {Node: 2}}
	rr := &RoundRobin{}
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for i, w := range want {
		if got := rr.Pick(0, loads); got != w {
			t.Fatalf("pick %d = %d, want %d", i, got, w)
		}
	}
	// Wraparound survives the vector shrinking (a peer going down mid
	// cycle): picks stay within the remaining nodes.
	loads = loads[:2]
	for i := 0; i < 10; i++ {
		if got := rr.Pick(0, loads); got != 0 && got != 1 {
			t.Fatalf("shrunken vector pick = %d", got)
		}
	}
	if (&RoundRobin{}).Pick(3, nil) != 3 {
		t.Error("empty vector must fall back to self")
	}
}

// TestLeastLoadedTieBreaksTowardSelf: equal minimum loads keep the object
// on the creating node regardless of vector order.
func TestLeastLoadedTieBreaksTowardSelf(t *testing.T) {
	for _, loads := range [][]NodeLoad{
		{{Node: 0, Load: 2}, {Node: 1, Load: 2}, {Node: 2, Load: 5}},
		{{Node: 2, Load: 5}, {Node: 1, Load: 2}, {Node: 0, Load: 2}},
	} {
		if got := (LeastLoaded{}).Pick(1, loads); got != 1 {
			t.Errorf("tie over %v broke to %d, want self 1", loads, got)
		}
	}
	// A strictly smaller load still wins over self.
	loads := []NodeLoad{{Node: 0, Load: 1}, {Node: 1, Load: 2}}
	if got := (LeastLoaded{}).Pick(1, loads); got != 0 {
		t.Errorf("least-loaded pick = %d, want 0", got)
	}
}

// TestLoadCacheTTLRefresh: placement sees a stale load vector for at most
// LoadCacheTTL — after the TTL a refresh observes the peers' new loads.
func TestLoadCacheTTLRefresh(t *testing.T) {
	rts := startNodes(t, 2, func(i int, cfg *Config) {
		cfg.Placement = LeastLoaded{}
		cfg.LoadCacheTTL = 20 * time.Millisecond
	})
	// Prime node 0's cache: both nodes empty.
	loads := rts[0].nodeLoads()
	if len(loads) != 2 {
		t.Fatalf("load vector %v, want 2 entries", loads)
	}
	// Load up node 1 behind node 0's back.
	for i := 0; i < 3; i++ {
		if _, err := rts[1].NewParallelObject("counter"); err != nil {
			t.Fatal(err)
		}
	}
	// Within the TTL the stale vector may persist; after it the refresh
	// must see node 1's new load.
	deadline := time.Now().Add(2 * time.Second)
	for {
		var n1 int
		for _, l := range rts[0].nodeLoads() {
			if l.Node == 1 {
				n1 = l.Load
			}
		}
		if n1 == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node 1 load never refreshed past the TTL (saw %d)", n1)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestNodeLoadsExcludesUnreachablePeer: a peer that cannot be probed is
// excluded from the load vector rather than reported at max-int, so no
// placement policy can pick it.
func TestNodeLoadsExcludesUnreachablePeer(t *testing.T) {
	rts := startNodes(t, 3, func(i int, cfg *Config) {
		cfg.LoadCacheTTL = time.Millisecond
	})
	rts[2].Close()
	time.Sleep(2 * time.Millisecond) // let the cache expire
	loads := rts[0].nodeLoads()
	if len(loads) != 2 {
		t.Fatalf("load vector %v, want dead node 2 excluded", loads)
	}
	for _, l := range loads {
		if l.Node == 2 {
			t.Errorf("dead node 2 still in vector: %v", loads)
		}
		if l.Load > 1000 {
			t.Errorf("max-int sentinel load leaked into vector: %v", loads)
		}
	}
	// Creations keep succeeding, never targeting the dead node.
	for i := 0; i < 6; i++ {
		if _, err := rts[0].NewParallelObject("counter"); err != nil {
			t.Fatalf("creation %d with a dead peer: %v", i, err)
		}
	}
}

// TestHealthProbesMarkDownAndRecover: consecutive probe failures grade a
// peer suspect then down; a successful probe restores it.
func TestHealthProbesMarkDownAndRecover(t *testing.T) {
	rts := startNodes(t, 2, nil)
	if st := rts[0].PeerStatusOf(1); st != PeerAlive {
		t.Fatalf("initial status = %v", st)
	}
	rts[1].Close()
	for i := 0; i < peerDownAfter; i++ {
		rts[0].ProbePeers()
		if i == 0 {
			if st := rts[0].PeerStatusOf(1); st != PeerSuspect {
				t.Errorf("after 1 failure: %v, want suspect", st)
			}
		}
	}
	if st := rts[0].PeerStatusOf(1); st != PeerDown {
		t.Errorf("after %d failures: %v, want down", peerDownAfter, st)
	}
	statuses := rts[0].PeerStatuses()
	if statuses[1] != PeerDown || statuses[0] != PeerAlive {
		t.Errorf("statuses = %v", statuses)
	}
	// Down peers are excluded from the load vector even before any probe
	// timeout would strike.
	loads := rts[0].probeLoads(false)
	for _, l := range loads {
		if l.Node == 1 {
			t.Errorf("down peer in load vector: %v", loads)
		}
	}
}

// TestHealthLoopExcludesDownNodeFromPlacement: with probing enabled, a
// killed node is discovered and placement stops considering it without
// paying per-placement probe timeouts.
func TestHealthLoopExcludesDownNodeFromPlacement(t *testing.T) {
	rts := startNodes(t, 3, func(i int, cfg *Config) {
		cfg.HealthProbe = 5 * time.Millisecond
		cfg.LoadCacheTTL = time.Millisecond
	})
	rts[2].Close()
	deadline := time.Now().Add(2 * time.Second)
	for rts[0].PeerStatusOf(2) != PeerDown {
		if time.Now().After(deadline) {
			t.Fatal("health loop never marked the dead peer down")
		}
		time.Sleep(2 * time.Millisecond)
	}
	loads := rts[0].nodeLoads()
	for _, l := range loads {
		if l.Node == 2 {
			t.Errorf("down peer in placement vector: %v", loads)
		}
	}
}

// TestRebalanceSpreadsLoad: an overloaded node migrates objects toward the
// policy's picks until it sits at the cluster mean; every object stays
// callable afterwards.
func TestRebalanceSpreadsLoad(t *testing.T) {
	rts := startNodes(t, 3, func(i int, cfg *Config) {
		cfg.Placement = LeastLoaded{}
		// A long TTL pins the all-zero load vector probed at the first
		// creation, so LeastLoaded's self tie-break keeps all 12 objects
		// on node 1 no matter how slowly the loop runs; Rebalance itself
		// probes fresh loads, bypassing this cache.
		cfg.LoadCacheTTL = time.Minute
	})
	registerJournal(rts)
	proxies := make([]*Proxy, 12)
	for i := range proxies {
		p, err := rts[1].NewParallelObject("journal") // LocalOnly via LeastLoaded ties: all start on node 1
		if err != nil {
			t.Fatal(err)
		}
		proxies[i] = p
		if _, err := p.Invoke("Append", int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if rts[1].Load() != 12 {
		t.Fatalf("node 1 load = %d before rebalance", rts[1].Load())
	}
	moved, err := rts[1].Rebalance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if moved != 8 {
		t.Errorf("rebalance moved %d objects, want 8 (12 down to the mean of 4)", moved)
	}
	if l := rts[1].Load(); l != 4 {
		t.Errorf("node 1 load after rebalance = %d, want 4", l)
	}
	if rts[0].Load()+rts[2].Load() != 8 {
		t.Errorf("moved objects unaccounted: node0=%d node2=%d", rts[0].Load(), rts[2].Load())
	}
	for i, p := range proxies {
		got, err := p.Invoke("Len")
		if err != nil {
			t.Fatalf("object %d after rebalance: %v", i, err)
		}
		if got != 1 {
			t.Errorf("object %d lost state: Len = %v", i, got)
		}
	}
}

// TestRebalanceAvoidsLoadedPeers: with the load-blind RoundRobin policy,
// a rebalance must still ship objects only to peers below the cluster
// mean — relocating the overload onto an equally loaded peer would churn
// objects back and forth forever.
func TestRebalanceAvoidsLoadedPeers(t *testing.T) {
	rts := startNodes(t, 3, func(i int, cfg *Config) {
		cfg.Placement = LocalOnly{}
		cfg.LoadCacheTTL = time.Millisecond
	})
	registerJournal(rts)
	for i := 0; i < 12; i++ {
		if _, err := rts[0].NewParallelObject("journal"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		if _, err := rts[1].NewParallelObject("journal"); err != nil {
			t.Fatal(err)
		}
	}
	// Loads [12, 12, 0]: node 0's excess must land on node 2 only.
	moved, err := rts[0].Rebalance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("rebalance moved nothing")
	}
	if got := rts[1].Load(); got != 12 {
		t.Errorf("rebalance shipped objects to an equally loaded peer: node 1 load = %d", got)
	}
	if got := rts[2].Load(); got != moved {
		t.Errorf("node 2 load = %d, want %d", got, moved)
	}
}

// TestDrainEmptiesNode: Drain migrates everything off, the graceful
// pre-shutdown step.
func TestDrainEmptiesNode(t *testing.T) {
	rts := startNodes(t, 2, func(i int, cfg *Config) {
		cfg.Placement = LocalOnly{}
		cfg.LoadCacheTTL = time.Millisecond
	})
	registerJournal(rts)
	var proxies []*Proxy
	for i := 0; i < 5; i++ {
		p, err := rts[0].NewParallelObject("journal")
		if err != nil {
			t.Fatal(err)
		}
		proxies = append(proxies, p)
	}
	moved, err := rts[0].Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if moved != 5 || rts[0].Load() != 0 || rts[1].Load() != 5 {
		t.Errorf("drain moved %d; loads node0=%d node1=%d", moved, rts[0].Load(), rts[1].Load())
	}
	for i, p := range proxies {
		if _, err := p.Invoke("Len"); err != nil {
			t.Errorf("object %d after drain: %v", i, err)
		}
	}
}
