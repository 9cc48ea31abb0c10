package core

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// vjournalObj is a virtual class with exported state so replication
// snapshots carry it.
type vjournalObj struct {
	Vals []int64
}

func (j *vjournalObj) Append(v int64) { j.Vals = append(j.Vals, v) }
func (j *vjournalObj) Len() int       { return len(j.Vals) }
func (j *vjournalObj) Sum() int64 {
	var s int64
	for _, v := range j.Vals {
		s += v
	}
	return s
}

// registerVirtualJournal registers the class identically on every node,
// as virtual registration requires.
func registerVirtualJournal(rts []*Runtime, cfg VirtualConfig) {
	for _, rt := range rts {
		rt.RegisterVirtualClass("vjournal", func() any { return &vjournalObj{} }, cfg)
	}
}

// hostOf returns the runtimes currently hosting a live actor for uri.
func hostOf(rts []*Runtime, uri string) []int {
	var hosts []int
	for _, rt := range rts {
		rt.actorsMu.Lock()
		hosted := rt.actors[uri] != nil
		rt.actorsMu.Unlock()
		if hosted {
			hosts = append(hosts, rt.cfg.NodeID)
		}
	}
	return hosts
}

// TestVirtualActivateOnDemand: the first call activates the object on its
// ring owner; later calls from any node reach the same instance.
func TestVirtualActivateOnDemand(t *testing.T) {
	rts := startNodes(t, 3, nil)
	registerVirtualJournal(rts, VirtualConfig{})

	p, err := rts[0].VirtualObject("vjournal", "k0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke("Append", int64(7)); err != nil {
		t.Fatal(err)
	}
	owner, ok := rts[0].VirtualOwner("vjournal", "k0")
	if !ok {
		t.Fatal("no ring owner")
	}
	uri := virtualURI("vjournal", "k0")
	if hosts := hostOf(rts, uri); len(hosts) != 1 || hosts[0] != owner {
		t.Fatalf("hosted on %v, want exactly ring owner %d", hosts, owner)
	}

	// A second caller on a different node must reach the same instance,
	// not activate a second one.
	p2, err := rts[1].VirtualObject("vjournal", "k0")
	if err != nil {
		t.Fatal(err)
	}
	got, err := p2.Invoke("Len")
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("Len via node 1 = %v, want 1 (same instance)", got)
	}
	if hosts := hostOf(rts, uri); len(hosts) != 1 {
		t.Errorf("hosted on %v after second caller, want one host", hosts)
	}
	for i, rt := range rts {
		want := int64(0)
		if i == owner {
			want = 1
		}
		if got := rt.Stats().VirtualActivations; got != want {
			t.Errorf("node %d counted %d activations, want %d", i, got, want)
		}
	}
}

// TestVirtualUnregisteredClass: VirtualObject on a class not registered
// virtual fails rather than activating something untracked.
func TestVirtualUnregisteredClass(t *testing.T) {
	rts := startNodes(t, 1, nil)
	if _, err := rts[0].VirtualObject("counter", "k"); err == nil {
		t.Error("VirtualObject on a non-virtual class should fail")
	}
}

// TestVirtualOwnerAgreement: every node's membership view names the same
// owner for the same key.
func TestVirtualOwnerAgreement(t *testing.T) {
	rts := startNodes(t, 3, nil)
	registerVirtualJournal(rts, VirtualConfig{})
	for k := 0; k < 20; k++ {
		key := fmt.Sprintf("k%d", k)
		o0, ok := rts[0].VirtualOwner("vjournal", key)
		if !ok {
			t.Fatal("no owner")
		}
		for _, rt := range rts[1:] {
			if o, _ := rt.VirtualOwner("vjournal", key); o != o0 {
				t.Fatalf("key %s: node %d says owner %d, node 0 says %d", key, rt.cfg.NodeID, o, o0)
			}
		}
	}
}

// TestVirtualActivationDuel: concurrent first calls to the same keys from
// every node must converge on one live instance per key that sees every
// call — the single-flight + ring-order serialisation, raced under -race.
func TestVirtualActivationDuel(t *testing.T) {
	rts := startNodes(t, 3, nil)
	registerVirtualJournal(rts, VirtualConfig{})

	const keys, callersPerNode, callsEach = 8, 2, 5
	var wg sync.WaitGroup
	errCh := make(chan error, len(rts)*callersPerNode*keys)
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("duel%d", k)
		for _, rt := range rts {
			for c := 0; c < callersPerNode; c++ {
				wg.Add(1)
				go func(rt *Runtime, key string) {
					defer wg.Done()
					p, err := rt.VirtualObject("vjournal", key)
					if err != nil {
						errCh <- fmt.Errorf("node %d key %s: %w", rt.cfg.NodeID, key, err)
						return
					}
					for i := 0; i < callsEach; i++ {
						if _, err := p.Invoke("Append", int64(1)); err != nil {
							errCh <- fmt.Errorf("node %d key %s call %d: %w", rt.cfg.NodeID, key, i, err)
							return
						}
					}
				}(rt, key)
			}
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	want := len(rts) * callersPerNode * callsEach
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("duel%d", k)
		uri := virtualURI("vjournal", key)
		if hosts := hostOf(rts, uri); len(hosts) != 1 {
			t.Errorf("key %s hosted on %v, want exactly one node", key, hosts)
		}
		p, err := rts[0].VirtualObject("vjournal", key)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Invoke("Len")
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("key %s: Len = %v, want %d (duel lost calls or split the instance)", key, got, want)
		}
	}
}

// TestHealthRecoveryHysteresis: a suspect or down peer needs
// peerRecoverAfter consecutive probe successes to be graded alive again —
// one lucky probe against a flapping peer must not re-admit it.
func TestHealthRecoveryHysteresis(t *testing.T) {
	rts := startNodes(t, 2, func(i int, cfg *Config) {
		cfg.Placement = LocalOnly{}
	})
	rt := rts[0]

	rt.noteProbe(1, false)
	if got := rt.PeerStatusOf(1); got != PeerSuspect {
		t.Fatalf("after 1 failure: %v, want suspect", got)
	}
	rt.noteProbe(1, true)
	if got := rt.PeerStatusOf(1); got != PeerSuspect {
		t.Errorf("after 1 success: %v, want still suspect (hysteresis)", got)
	}
	rt.noteProbe(1, true)
	if got := rt.PeerStatusOf(1); got != PeerAlive {
		t.Errorf("after 2 consecutive successes: %v, want alive", got)
	}

	// From down, an interleaved failure resets the success streak.
	for i := 0; i < peerDownAfter; i++ {
		rt.noteProbe(1, false)
	}
	if got := rt.PeerStatusOf(1); got != PeerDown {
		t.Fatalf("after %d failures: %v, want down", peerDownAfter, got)
	}
	rt.noteProbe(1, true)
	rt.noteProbe(1, false)
	rt.noteProbe(1, true)
	if got := rt.PeerStatusOf(1); got != PeerDown {
		t.Errorf("success streak broken by a failure: %v, want still down", got)
	}
	rt.noteProbe(1, true)
	if got := rt.PeerStatusOf(1); got != PeerAlive {
		t.Errorf("after 2 consecutive successes from down: %v, want alive", got)
	}
}

// markDownOn drives a peer to Down on every given runtime via direct probe
// outcomes (the unit-test stand-in for the health loop observing a death).
func markDownOn(rts []*Runtime, node int) {
	for _, rt := range rts {
		if rt.cfg.NodeID == node {
			continue
		}
		for i := 0; i < peerDownAfter; i++ {
			rt.noteProbe(node, false)
		}
	}
}

// TestVirtualFailoverPromotesReplica: with synchronous replication, killing
// the owner loses no acknowledged call — a surviving replica holder
// promotes its snapshot and callers re-route to it.
func TestVirtualFailoverPromotesReplica(t *testing.T) {
	rts := startNodes(t, 3, nil)
	registerVirtualJournal(rts, VirtualConfig{Replicas: 1})

	p, err := rts[0].VirtualObject("vjournal", "hot")
	if err != nil {
		t.Fatal(err)
	}
	const calls = 6
	for i := 1; i <= calls; i++ {
		if _, err := p.Invoke("Append", int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	owner, _ := rts[0].VirtualOwner("vjournal", "hot")

	var survivors []*Runtime
	for _, rt := range rts {
		if rt.cfg.NodeID != owner {
			survivors = append(survivors, rt)
		}
	}
	rts[owner].Close()
	markDownOn(survivors, owner)

	// The promotion runs asynchronously off the Down transition; poll until
	// a survivor serves the full state.
	caller := survivors[0]
	deadline := time.Now().Add(5 * time.Second)
	for {
		p2, err := caller.VirtualObject("vjournal", "hot")
		if err == nil {
			got, ierr := p2.Invoke("Len")
			if ierr == nil {
				if got != calls {
					t.Fatalf("Len after failover = %v, want %d (acknowledged calls lost)", got, calls)
				}
				sum, serr := p2.Invoke("Sum")
				if serr != nil {
					t.Fatal(serr)
				}
				if sum != int64(1+2+3+4+5+6) {
					t.Fatalf("Sum after failover = %v, want 21", sum)
				}
				break
			}
			err = ierr
		}
		if time.Now().After(deadline) {
			t.Fatalf("failover did not converge: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	promotions := int64(0)
	for _, rt := range survivors {
		promotions += rt.Stats().ReplicaPromotions
	}
	if promotions != 1 {
		t.Errorf("ReplicaPromotions across survivors = %d, want 1", promotions)
	}
	if hosts := hostOf(survivors, virtualURI("vjournal", "hot")); len(hosts) != 1 {
		t.Errorf("hosted on %v after failover, want one survivor", hosts)
	}
}

// TestVirtualFailoverUnreplicated: a virtual class without replicas fails
// over to a fresh instance — availability is preserved, state is not.
func TestVirtualFailoverUnreplicated(t *testing.T) {
	rts := startNodes(t, 3, nil)
	registerVirtualJournal(rts, VirtualConfig{})

	p, err := rts[0].VirtualObject("vjournal", "lossy")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke("Append", int64(1)); err != nil {
		t.Fatal(err)
	}
	owner, _ := rts[0].VirtualOwner("vjournal", "lossy")
	var survivors []*Runtime
	for _, rt := range rts {
		if rt.cfg.NodeID != owner {
			survivors = append(survivors, rt)
		}
	}
	rts[owner].Close()
	markDownOn(survivors, owner)

	deadline := time.Now().Add(5 * time.Second)
	for {
		p2, err := survivors[0].VirtualObject("vjournal", "lossy")
		if err == nil {
			got, ierr := p2.Invoke("Len")
			if ierr == nil {
				if got != 0 {
					t.Fatalf("Len = %v, want 0 (fresh instance)", got)
				}
				return
			}
			err = ierr
		}
		if time.Now().After(deadline) {
			t.Fatalf("re-activation did not converge: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// replicaSeqOf reads a node's passive replica seq for uri; 0 means absent.
func replicaSeqOf(rt *Runtime, uri string) uint64 {
	rt.replMu.Lock()
	defer rt.replMu.Unlock()
	if st := rt.replicas[uri]; st != nil {
		return st.seq
	}
	return 0
}

// TestVirtualStaleDemotion: a node hosting a virtual object that receives
// a snapshot at a higher generation — proof the cluster promoted past it —
// demotes its copy into a forwarding tombstone, and queued work fails over
// to the fresh location instead of executing on superseded state.
func TestVirtualStaleDemotion(t *testing.T) {
	rts := startNodes(t, 2, nil)
	registerVirtualJournal(rts, VirtualConfig{Replicas: 1})

	p, err := rts[0].VirtualObject("vjournal", "stale")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke("Append", int64(1)); err != nil {
		t.Fatal(err)
	}
	uri := virtualURI("vjournal", "stale")
	hosts := hostOf(rts, uri)
	if len(hosts) != 1 {
		t.Fatalf("hosted on %v, want one node", hosts)
	}
	host := rts[hosts[0]]
	other := rts[1-hosts[0]]
	loc, ok := host.dirLookup(uri)
	if !ok {
		t.Fatal("host has no directory entry")
	}

	// Deliver a snapshot at a bumped generation, as a promoted survivor
	// would after a partition healed.
	snap := replicaSeqOf(other, uri) // ensure the replica landed (sync mode)
	if snap == 0 {
		t.Fatal("sync replication left no replica on the successor")
	}
	other.replMu.Lock()
	state := other.replicas[uri].state
	other.replMu.Unlock()
	if _, err := host.replicateVirtual("vjournal", uri, loc.Gen+1, 5, other.cfg.NodeID, other.Addr(), state, nil, 0); err != nil {
		t.Fatal(err)
	}

	if hosts := hostOf([]*Runtime{host}, uri); len(hosts) != 0 {
		t.Error("stale host still hosts the actor after demotion")
	}
	if got := host.Stats().StaleDemotions; got != 1 {
		t.Errorf("StaleDemotions = %d, want 1", got)
	}
	if loc2, ok := host.dirLookup(uri); !ok || loc2.Node != other.cfg.NodeID || loc2.Gen != loc.Gen+1 {
		t.Errorf("directory after demotion = %+v, want node %d gen %d", loc2, other.cfg.NodeID, loc.Gen+1)
	}
	// A snapshot at or below the hosted generation must NOT demote — and
	// must be refused, not silently acknowledged: a synchronous shipper
	// reads the ack as durability, so the losing lineage has to see an
	// error that routes its callers to the winning copy.
	p3, err := rts[0].VirtualObject("vjournal", "keep")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p3.Invoke("Append", int64(1)); err != nil {
		t.Fatal(err)
	}
	uri3 := virtualURI("vjournal", "keep")
	h3 := rts[hostOf(rts, uri3)[0]]
	loc3, _ := h3.dirLookup(uri3)
	if _, err := h3.replicateVirtual("vjournal", uri3, loc3.Gen, 99, other.cfg.NodeID, other.Addr(), state, nil, 0); err == nil {
		t.Error("equal-generation snapshot against a live owner was acknowledged, want refusal")
	}
	if hosts := hostOf([]*Runtime{h3}, uri3); len(hosts) != 1 {
		t.Error("equal-generation snapshot demoted a live owner")
	}
}

// TestVirtualClassNameWithSlashPanics: a virtual URI is
// "virtual/<class>/<key>", so class "a/b" with key "c" and class "a" with
// key "b/c" would name one object, and the class read back from the URI
// would be wrong. Registering such a class panics, as a bad wire
// registration does, and registers nothing.
func TestVirtualClassNameWithSlashPanics(t *testing.T) {
	rt := startNodes(t, 1, nil)[0]
	func() {
		defer func() {
			if recover() == nil {
				t.Error("RegisterVirtualClass(\"team/vj\") did not panic")
			}
		}()
		rt.RegisterVirtualClass("team/vj", func() any { return &vjournalObj{} }, VirtualConfig{})
	}()
	if _, ok := rt.virtualConfig("team/vj"); ok {
		t.Error("a class refused by its name was registered virtual")
	}
	if _, err := rt.factoryFor("team/vj"); err == nil {
		t.Error("a class refused by its name was registered")
	}
}

// TestVirtualDestroyDropsReplicas: destroying a replicated virtual object
// drops its passive replicas on every node, so none can resurrect it at
// the next owner failure.
func TestVirtualDestroyDropsReplicas(t *testing.T) {
	rts := startNodes(t, 3, nil)
	registerVirtualJournal(rts, VirtualConfig{Replicas: 2})
	p, err := rts[0].VirtualObject("vjournal", "doomed")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke("Append", int64(1)); err != nil {
		t.Fatal(err)
	}
	uri := virtualURI("vjournal", "doomed")
	held := func() (n int) {
		for _, rt := range rts {
			if replicaSeqOf(rt, uri) != 0 {
				n++
			}
		}
		return n
	}
	if n := held(); n != 2 {
		t.Fatalf("%d replicas after a synchronous call, want 2", n)
	}
	if err := p.Destroy(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for held() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d replicas remain 2 s after Destroy, want 0", held())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if hosts := hostOf(rts, uri); len(hosts) != 0 {
		t.Fatalf("hosted on %v after Destroy", hosts)
	}
}
