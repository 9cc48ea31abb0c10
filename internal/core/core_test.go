package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/remoting"
	"repro/internal/transport"
	"repro/internal/wire"
)

// counterObj is a stateful parallel-object class used across the tests.
type counterObj struct {
	mu   sync.Mutex
	vals []int
	n    int
}

func (c *counterObj) Add(v int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.vals = append(c.vals, v)
	c.n += v
}

// Append is Add under another name.
func (c *counterObj) Append(v int) { c.Add(v) }

func (c *counterObj) Total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *counterObj) Values() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, len(c.vals))
	copy(out, c.vals)
	return out
}

func (c *counterObj) Fail() error { return fmt.Errorf("counter failure") }

// slowObj simulates a coarse grain.
type slowObj struct{}

func (slowObj) Work(ms int) int {
	time.Sleep(time.Duration(ms) * time.Millisecond)
	return ms
}

// startNodes boots n joined runtimes over one memory network.
func startNodes(t *testing.T, n int, mutate func(i int, cfg *Config)) []*Runtime {
	t.Helper()
	return startNodesOn(t, transport.NewMemNetwork(), func(i int) string { return fmt.Sprintf("mem://n%d", i) }, n, mutate)
}

// startNodesOn boots n joined runtimes over net, node i listening at
// addr(i).
func startNodesOn(t *testing.T, net transport.Network, addr func(i int) string, n int, mutate func(i int, cfg *Config)) []*Runtime {
	t.Helper()
	rts := make([]*Runtime, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		cfg := Config{NodeID: i, Channel: remoting.NewMultiplexedChannel(net)}
		if mutate != nil {
			mutate(i, &cfg)
		}
		rt, err := Start(cfg, addr(i))
		if err != nil {
			t.Fatal(err)
		}
		rts[i] = rt
		addrs[i] = rt.Addr()
		t.Cleanup(rt.Close)
	}
	for _, rt := range rts {
		if err := rt.JoinCluster(addrs); err != nil {
			t.Fatal(err)
		}
	}
	for _, rt := range rts {
		rt.RegisterClass("counter", func() any { return &counterObj{} })
		rt.RegisterClass("slow", func() any { return &slowObj{} })
	}
	return rts
}

func TestLocalParallelObject(t *testing.T) {
	rts := startNodes(t, 1, nil)
	p, err := rts[0].NewParallelObject("counter")
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsLocal() {
		t.Error("single-node object should be local")
	}
	if st := rts[0].Stats(); st.ObjectsLocal != 1 || st.ObjectsRemote != 0 {
		t.Errorf("stats local = %d, remote = %d, want 1 and 0", st.ObjectsLocal, st.ObjectsRemote)
	}
	p.Post("Add", 2)
	p.Post("Add", 3)
	got, err := p.Invoke("Total")
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Errorf("Total = %v, want 5 (sync call must see prior posts)", got)
	}
}

func TestUnregisteredClass(t *testing.T) {
	rts := startNodes(t, 1, nil)
	if _, err := rts[0].NewParallelObject("nope"); err == nil {
		t.Error("creating unregistered class should fail")
	}
}

func TestRoundRobinDistribution(t *testing.T) {
	rts := startNodes(t, 3, nil)
	placed := map[bool]int{}
	for i := 0; i < 6; i++ {
		p, err := rts[0].NewParallelObject("counter")
		if err != nil {
			t.Fatal(err)
		}
		placed[p.IsLocal()]++
	}
	// Round robin over 3 nodes: 2 of 6 local, 4 remote.
	if placed[true] != 2 || placed[false] != 4 {
		t.Errorf("placement local=%d remote=%d, want 2/4", placed[true], placed[false])
	}
	// Loads spread across nodes (placement counts as hosting).
	total := 0
	for _, rt := range rts {
		total += rt.Load()
	}
	if total != 6 {
		t.Errorf("total hosted objects = %d, want 6", total)
	}
}

// TestRemoteInvokeAndOrdering: posts to a remote object execute in issue
// order before the blocking call issued after them, and one that fails in
// the middle of them is reported to AsyncErr without holding up the posts
// behind it.
func TestRemoteInvokeAndOrdering(t *testing.T) {
	rts := startNodes(t, 2, func(i int, cfg *Config) {
		cfg.Placement = &forceNode{node: 1}
	})
	p, err := rts[0].NewParallelObject("counter")
	if err != nil {
		t.Fatal(err)
	}
	if p.IsLocal() {
		t.Fatal("object should be remote")
	}
	const n = 40
	for i := 1; i <= n; i++ {
		p.Post("Add", i)
		if i == n/2 {
			p.Post("Fail")
		}
	}
	got, err := p.Invoke("Values")
	if err != nil {
		t.Fatal(err)
	}
	vals, err2 := asIntSlice(got)
	if err2 != nil {
		t.Fatal(err2)
	}
	if len(vals) != n {
		t.Fatalf("got %d values, want %d", len(vals), n)
	}
	for i, v := range vals {
		if v != i+1 {
			t.Fatalf("value %d = %d; async ordering violated", i, v)
		}
	}
	if err := p.AsyncErr(); err == nil || !strings.Contains(err.Error(), "counter failure") {
		t.Errorf("AsyncErr = %v, want the failed post's error", err)
	}
}

// forceNode always places on one node.
type forceNode struct{ node int }

func (f *forceNode) Pick(self int, loads []NodeLoad) int { return f.node }

func asIntSlice(v any) ([]int, error) {
	switch x := v.(type) {
	case []int:
		return x, nil
	case []any:
		out := make([]int, len(x))
		for i, e := range x {
			n, ok := e.(int)
			if !ok {
				return nil, fmt.Errorf("element %d is %T", i, e)
			}
			out[i] = n
		}
		return out, nil
	}
	return nil, fmt.Errorf("not an int slice: %T", v)
}

// TestAggregationBatches: the posts queued behind one in flight leave in
// batches of maxBatch, with no option set, and execute in issue order; once
// they are done, the proxy keeps none of their arguments.
func TestAggregationBatches(t *testing.T) {
	p, l, rts := heldRemote(t)
	const n = 2 * maxBatch
	for i := 0; i < n; i++ {
		p.Post("Note", 2+i)
	}
	l.open()
	p.Wait()
	for i, v := range l.order() {
		if v != 1+i {
			t.Fatalf("execution %d was post %d: issue order violated", i, v)
		}
	}
	st := rts[0].Stats()
	if st.BatchesSent != 2 {
		t.Errorf("batches sent = %d, want 2", st.BatchesSent)
	}
	if st.CallsAggregated != n {
		t.Errorf("calls aggregated = %d, want %d", st.CallsAggregated, n)
	}
	p.calls.mu.Lock()
	defer p.calls.mu.Unlock()
	if p.calls.batched != nil || len(p.calls.lists) != 0 || slices.ContainsFunc(p.calls.lists[:cap(p.calls.lists)], func(l []any) bool { return l != nil }) {
		t.Errorf("the proxy still holds a batch's arguments: %v", p.calls.lists[:cap(p.calls.lists)])
	}
}

func TestAggregationFlushOnSyncCall(t *testing.T) {
	rts := startNodes(t, 2, func(i int, cfg *Config) {
		cfg.Placement = &forceNode{node: 1}
	})
	p, _ := rts[0].NewParallelObject("counter")
	p.Post("Add", 7)
	got, err := p.Invoke("Total")
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Errorf("sync call ran ahead of the post before it: Total = %v", got)
	}
}

func TestAggregationMethodChangeFlushes(t *testing.T) {
	rts := startNodes(t, 2, func(i int, cfg *Config) {
		cfg.Placement = &forceNode{node: 1}
	})
	p, _ := rts[0].NewParallelObject("counter")
	p.Post("Add", 1)
	p.Post("Add", 2)
	// A post of another method ends the batch of Adds.
	p.Post("Fail")
	p.Wait()
	got, err := p.Invoke("Total")
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Errorf("Total = %v, want 3", got)
	}
	if p.AsyncErr() == nil {
		t.Error("Fail error not surfaced through AsyncErr")
	}
}

func TestAlwaysAgglomerate(t *testing.T) {
	rts := startNodes(t, 2, func(i int, cfg *Config) {
		cfg.Agglomeration = AlwaysAgglomerate{}
	})
	p, err := rts[0].NewParallelObject("counter")
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsAgglomerated() {
		t.Fatal("policy Always should agglomerate")
	}
	// Posts execute synchronously and serially: effects visible at once.
	p.Post("Add", 4)
	got, _ := p.Invoke("Total")
	if got != 4 {
		t.Errorf("Total = %v immediately after post", got)
	}
	if rts[0].Stats().ObjectsAgglomerated != 1 {
		t.Errorf("stats agglomerated = %d", rts[0].Stats().ObjectsAgglomerated)
	}
}

func TestAdaptiveAgglomeration(t *testing.T) {
	policy := AdaptiveAgglomeration{MinGrain: 10 * time.Millisecond, MinLocalLoad: 0, MinSamples: 3}
	rts := startNodes(t, 1, func(i int, cfg *Config) {
		cfg.Agglomeration = policy
	})
	rt := rts[0]
	// Before samples exist, objects stay parallel.
	p1, _ := rt.NewParallelObject("counter")
	if p1.IsAgglomerated() {
		t.Fatal("agglomerated without samples")
	}
	// Feed fine-grain samples (fast Add calls).
	for i := 0; i < 5; i++ {
		if _, err := p1.Invoke("Total"); err != nil {
			t.Fatal(err)
		}
	}
	stats := rt.classStatsFor("counter")
	if stats.Calls < 3 {
		t.Fatalf("class stats not recorded: %+v", stats)
	}
	p2, _ := rt.NewParallelObject("counter")
	if !p2.IsAgglomerated() {
		t.Error("fine-grain class not agglomerated")
	}
	// Coarse class stays parallel.
	ps, _ := rt.NewParallelObject("slow")
	for i := 0; i < 3; i++ {
		ps.Invoke("Work", 15)
	}
	ps2, _ := rt.NewParallelObject("slow")
	if ps2.IsAgglomerated() {
		t.Error("coarse-grain class wrongly agglomerated")
	}
}

func TestLeastLoadedPlacement(t *testing.T) {
	loads := []NodeLoad{{Node: 0, Load: 5}, {Node: 1, Load: 2}, {Node: 2, Load: 9}}
	if got := (LeastLoaded{}).Pick(0, loads); got != 1 {
		t.Errorf("LeastLoaded picked %d, want 1", got)
	}
	// Tie breaks toward self.
	loads = []NodeLoad{{Node: 0, Load: 2}, {Node: 1, Load: 2}}
	if got := (LeastLoaded{}).Pick(1, loads); got != 1 {
		t.Errorf("tie broke to %d, want self 1", got)
	}
}

func TestLocalOnlyPlacement(t *testing.T) {
	if got := (LocalOnly{}).Pick(3, []NodeLoad{{Node: 0}, {Node: 3}}); got != 3 {
		t.Errorf("LocalOnly picked %d", got)
	}
}

func TestProxyRefAttachAcrossNodes(t *testing.T) {
	rts := startNodes(t, 2, func(i int, cfg *Config) {
		cfg.Placement = LocalOnly{}
	})
	// Node 0 creates a local object and ships its ref to node 1.
	p0, err := rts[0].NewParallelObject("counter")
	if err != nil {
		t.Fatal(err)
	}
	ref := p0.Ref()
	p1 := rts[1].Attach(ref)
	if p1.IsLocal() {
		t.Fatal("attached proxy on another node should be remote")
	}
	p1.Post("Add", 11)
	p1.Wait()
	got, err := p0.Invoke("Total")
	if err != nil {
		t.Fatal(err)
	}
	if got != 11 {
		t.Errorf("Total = %v after remote post through attached ref", got)
	}
	// Attaching on the hosting node binds locally.
	pSelf := rts[0].Attach(ref)
	if !pSelf.IsLocal() {
		t.Error("attach on hosting node should be local")
	}
}

func TestFutureInvokeAsync(t *testing.T) {
	rts := startNodes(t, 1, nil)
	p, _ := rts[0].NewParallelObject("slow")
	start := time.Now()
	f := p.InvokeAsync("Work", 30)
	if time.Since(start) > 20*time.Millisecond {
		t.Error("InvokeAsync blocked the caller")
	}
	got, err := f.Get()
	if err != nil {
		t.Fatal(err)
	}
	if got != 30 {
		t.Errorf("Work = %v", got)
	}
}

func TestDestroyLocalAndRemote(t *testing.T) {
	rts := startNodes(t, 2, func(i int, cfg *Config) {
		cfg.Placement = &forceNode{node: 1}
	})
	p, err := rts[0].NewParallelObject("counter")
	if err != nil {
		t.Fatal(err)
	}
	if rts[1].Load() != 1 {
		t.Fatalf("remote node load = %d", rts[1].Load())
	}
	if err := p.Destroy(); err != nil {
		t.Fatal(err)
	}
	if rts[1].Load() != 0 {
		t.Errorf("load after destroy = %d", rts[1].Load())
	}
	if _, err := p.Invoke("Total"); err == nil {
		t.Error("invoke after destroy should fail")
	}
}

func TestRuntimeStatsCounting(t *testing.T) {
	rts := startNodes(t, 2, func(i int, cfg *Config) {
		cfg.Placement = &forceNode{node: 1}
	})
	p, _ := rts[0].NewParallelObject("counter")
	p.Post("Add", 1)
	p.Invoke("Total")
	st := rts[0].Stats()
	if st.ObjectsCreated != 1 || st.ObjectsRemote != 1 {
		t.Errorf("creation stats = %+v", st)
	}
	if st.AsyncCalls != 1 || st.SyncCalls != 1 {
		t.Errorf("call stats = %+v", st)
	}
}

// TestOMServiceRemoteAPI: a peer's object manager answers the probe the
// health loop and the placement load vector send it, by name, over the wire.
func TestOMServiceRemoteAPI(t *testing.T) {
	rts := startNodes(t, 2, nil)
	if _, err := rts[1].NewParallelObject("counter"); err != nil {
		t.Fatal(err)
	}
	om := remoting.NewObjRef(rts[0].cfg.Channel, rts[1].Addr(), omURI)
	res, err := om.Invoke("LoadInfo")
	if err != nil {
		t.Fatal(err)
	}
	var li loadInfo
	if err := wire.AssignTo(&li, res); err != nil {
		t.Fatal(err)
	}
	if want := (loadInfo{Load: rts[1].Load(), Overload: int(OverloadNone)}); li != want {
		t.Errorf("LoadInfo = %+v, want %+v", li, want)
	}
}

func TestJoinClusterValidation(t *testing.T) {
	rts := startNodes(t, 1, nil)
	if err := rts[0].JoinCluster([]string{}); err == nil {
		t.Error("empty cluster accepted")
	}
	if err := rts[0].JoinCluster([]string{"mem://wrong"}); err == nil {
		t.Error("mismatched self address accepted")
	}
}

func TestConcurrentCreations(t *testing.T) {
	rts := startNodes(t, 3, nil)
	var wg sync.WaitGroup
	errs := make(chan error, 30)
	for i := 0; i < 30; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := rts[0].NewParallelObject("counter")
			if err != nil {
				errs <- err
				return
			}
			p.Post("Add", 1)
			if got, err := p.Invoke("Total"); err != nil {
				errs <- err
			} else if got != 1 {
				errs <- fmt.Errorf("Total = %v", got)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestActorSequentialExecution(t *testing.T) {
	// A local active object must process posts strictly sequentially even
	// under concurrent posters (active-object semantics: no data races in
	// the IO).
	rts := startNodes(t, 1, nil)
	p, _ := rts[0].NewParallelObject("counter")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p.Post("Add", 1)
			}
		}()
	}
	wg.Wait()
	p.Wait()
	got, err := p.Invoke("Total")
	if err != nil {
		t.Fatal(err)
	}
	if got != 400 {
		t.Errorf("Total = %v, want 400", got)
	}
}

// TestWireNamesArePinned: the names the runtime's wire types travel under
// are what a node of another build decodes them by, so each must appear in
// its type's encoding as written here. Every node of one process registers
// the same name, so no other test sees a rename.
func TestWireNamesArePinned(t *testing.T) {
	for name, v := range map[string]any{
		"core.ProxyRef":     ProxyRef{},
		"core.ResolveReply": resolveReply{},
		"core.ReplicaInfo":  replicaInfo{},
		"core.LoadInfo":     loadInfo{},
	} {
		b, err := wire.BinFmt{}.Marshal(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(string(b), name) {
			t.Errorf("%T encodes as %q, which does not name %s", v, b, name)
		}
	}
}
