package parc_test

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/parc"
)

type counter struct {
	mu sync.Mutex
	n  int
}

func (c *counter) Add(v int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n += v
}

func (c *counter) Total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *counter) Values() []int { return []int{c.Total()} }

func TestClusterLifecycle(t *testing.T) {
	cl, err := parc.StartCluster(parc.WithNodes(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Size() != 2 {
		t.Fatalf("Size = %d", cl.Size())
	}
	cl.RegisterClass("counter", func() any { return &counter{} })
	p, err := cl.Entry().NewParallelObject("counter")
	if err != nil {
		t.Fatal(err)
	}
	p.Post("Add", 5)
	got, err := p.Invoke("Total")
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Errorf("Total = %v", got)
	}
}

func TestClusterDefaultsToOneNode(t *testing.T) {
	cl, err := parc.StartCluster()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Size() != 1 {
		t.Errorf("Size = %d, want 1", cl.Size())
	}
}

// TestPlacementPolicies: LocalOnly keeps every object on the node that
// creates it, LeastLoaded spreads them evenly, and the creating node's
// directory entry for each object (Runtime.Lookup) names the node hosting
// it.
func TestPlacementPolicies(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy parc.PlacementPolicy
		want   []int // objects hosted per node
	}{
		{"LocalOnly", parc.LocalOnly{}, []int{6, 0, 0}},
		{"LeastLoaded", parc.LeastLoaded{}, []int{2, 2, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := parc.StartCluster(parc.WithNodes(3), parc.WithPlacement(tc.policy),
				parc.WithLoadCacheTTL(time.Nanosecond)) // every placement sees fresh loads
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			cl.RegisterClass("counter", func() any { return &counter{} })
			located := make([]int, cl.Size())
			for i := 0; i < 6; i++ {
				p, err := cl.Entry().NewParallelObject("counter")
				if err != nil {
					t.Fatal(err)
				}
				var loc parc.ObjLoc
				var ok bool
				if loc, ok = cl.Entry().Lookup(p.URI()); !ok {
					t.Fatalf("no directory entry for %s", p.URI())
				}
				located[loc.Node]++
			}
			hosted := make([]int, cl.Size())
			for i := range hosted {
				hosted[i] = cl.Node(i).Load()
			}
			if !slices.Equal(hosted, tc.want) || !slices.Equal(located, tc.want) {
				t.Errorf("objects hosted per node %v, located by the directory %v, want %v", hosted, located, tc.want)
			}
		})
	}
}

// TestPeerStatusGrades: with WithHealthProbe a node grades its peers alive,
// and a peer that stops answering suspect, then down.
func TestPeerStatusGrades(t *testing.T) {
	cl, err := parc.StartCluster(parc.WithNodes(3), parc.WithHealthProbe(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	grade := func(node int) parc.PeerStatus { return cl.Entry().PeerStatuses()[node] }
	if g1, g2 := grade(1), grade(2); g1 != parc.PeerAlive || g2 != parc.PeerAlive {
		t.Fatalf("peers graded %v and %v, want PeerAlive", g1, g2)
	}
	cl.Node(2).Close()
	deadline := time.Now().Add(5 * time.Second)
	for g := grade(2); g != parc.PeerDown; g = grade(2) {
		if g != parc.PeerAlive && g != parc.PeerSuspect {
			t.Fatalf("closed peer graded %v", g)
		}
		if time.Now().After(deadline) {
			t.Fatalf("closed peer still graded %v after 5 s", g)
		}
		time.Sleep(time.Millisecond)
	}
	if g := grade(1); g != parc.PeerAlive {
		t.Errorf("live peer graded %v, want PeerAlive", g)
	}
}

func TestEthernet100Shape(t *testing.T) {
	p := parc.Ethernet100()
	if p.Zero() {
		t.Error("testbed network should not be a no-op")
	}
}

func TestAs(t *testing.T) {
	got, err := parc.As[int](int64(7), nil)
	if err != nil || got != 7 {
		t.Errorf("As[int] = %v, %v", got, err)
	}
	gs, err := parc.As[[]int]([]any{1, 2}, nil)
	if err != nil || len(gs) != 2 || gs[1] != 2 {
		t.Errorf("As[[]int] = %v, %v", gs, err)
	}
	if _, err := parc.As[int]("nope", nil); err == nil {
		t.Error("As should fail on mismatched types")
	}
	// Errors pass through untouched.
	if _, err := parc.As[int](nil, errSentinel); err != errSentinel {
		t.Errorf("error not propagated: %v", err)
	}
}

var errSentinel = &sentinelErr{}

type sentinelErr struct{}

func (*sentinelErr) Error() string { return "sentinel" }

func TestServeNodeTCP(t *testing.T) {
	// Two real TCP nodes on loopback: the multi-process deployment path,
	// exercised in-process.
	n0, err := parc.ServeNode(parc.WithNodeID(0), parc.WithListen("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close()
	n1, err := parc.ServeNode(parc.WithNodeID(1), parc.WithListen("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	addrs := []string{n0.Addr(), n1.Addr()}
	if err := n0.JoinCluster(addrs); err != nil {
		t.Fatal(err)
	}
	if err := n1.JoinCluster(addrs); err != nil {
		t.Fatal(err)
	}
	n0.RegisterClass("counter", func() any { return &counter{} })
	n1.RegisterClass("counter", func() any { return &counter{} })

	// Force remote placement to cross real TCP.
	created := 0
	for i := 0; i < 4; i++ {
		p, err := n0.NewParallelObject("counter")
		if err != nil {
			t.Fatal(err)
		}
		p.Post("Add", i)
		if got, err := p.Invoke("Total"); err != nil || got != i {
			t.Fatalf("object %d: Total = %v, %v", i, got, err)
		}
		if !p.IsLocal() {
			created++
		}
	}
	if created == 0 {
		t.Error("round robin never placed remotely over TCP")
	}
}

// blocker parks calls until released, so tests can fill a bounded mailbox.
type blocker struct {
	entered chan struct{}
	release chan struct{}
}

func (b *blocker) Block() int {
	b.entered <- struct{}{}
	<-b.release
	return 1
}

func (b *blocker) Quick() int { return 2 }

func TestWithMailboxBoundShedsOverload(t *testing.T) {
	// End-to-end admission control through the public API: a bounded
	// mailbox on a busy object fast-fails extra calls with a wire-borne
	// error that still satisfies errors.Is(err, parc.ErrOverloaded).
	const bound = 2
	cl, err := parc.StartCluster(parc.WithNodes(1), parc.WithMailboxBound(bound))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	b := &blocker{entered: make(chan struct{}, 8), release: make(chan struct{})}
	defer func() {
		select {
		case <-b.release:
		default:
			close(b.release)
		}
	}()
	cl.RegisterClass("blocker", func() any { return b })
	p, err := cl.Entry().NewParallelObject("blocker")
	if err != nil {
		t.Fatal(err)
	}
	if g := cl.Entry().Stats().OverloadGrade; g != parc.OverloadNone {
		t.Fatalf("Stats().OverloadGrade = %v before any call, want OverloadNone", g)
	}
	// Occupy the actor, then fill the mailbox behind it.
	ctx := context.Background()
	go p.InvokeCtx(ctx, "Block")
	select {
	case <-b.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("Block never started")
	}
	for i := 0; i < bound; i++ {
		go p.InvokeCtx(ctx, "Block")
	}
	// The mailbox fills asynchronously; once full, calls shed. Before
	// that they may still be admitted — drive until the sentinel appears.
	deadline := time.Now().Add(5 * time.Second)
	for {
		// A short per-probe deadline: a probe admitted before the fill
		// calls land would otherwise park behind Block forever.
		probeCtx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		_, err = p.InvokeCtx(probeCtx, "Quick")
		cancel()
		if errors.Is(err, parc.ErrOverloaded) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw ErrOverloaded; last err = %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	st := cl.Entry().Stats()
	if st.MailboxSheds < 1 {
		t.Errorf("Stats().MailboxSheds = %d, want >= 1", st.MailboxSheds)
	}
	if st.OverloadGrade != parc.OverloadShedding {
		t.Errorf("Stats().OverloadGrade = %v, want OverloadShedding", st.OverloadGrade)
	}
	close(b.release)
}

// remoteBlocker creates blocker objects through rt until the placement
// policy puts one on another node.
func remoteBlocker(t *testing.T, rt *parc.Runtime) *parc.Object[blocker] {
	t.Helper()
	for i := 0; i < 8; i++ {
		obj, err := parc.NewAt[blocker](rt, "blocker")
		if err != nil {
			t.Fatal(err)
		}
		if !obj.Proxy().IsLocal() {
			return obj
		}
	}
	t.Fatal("placement never chose the other node")
	return nil
}

// TestDefaultNodesRideCompletionPath: a cluster and a TCP node started with
// no channel-related option run the one production channel, which only the
// completion-driven path shows: outstanding CallAsync on one remote object
// park no goroutine each.
func TestDefaultNodesRideCompletionPath(t *testing.T) {
	boot := map[string]func(t *testing.T, register func(*parc.Runtime)) *parc.Runtime{
		"StartCluster": func(t *testing.T, register func(*parc.Runtime)) *parc.Runtime {
			cl, err := parc.StartCluster(parc.WithNodes(2))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cl.Close)
			register(cl.Node(0))
			register(cl.Node(1))
			return cl.Entry()
		},
		"ServeNode": func(t *testing.T, register func(*parc.Runtime)) *parc.Runtime {
			nodes := make([]*parc.Runtime, 2)
			addrs := make([]string, 2)
			for i := range nodes {
				rt, err := parc.ServeNode(parc.WithNodeID(i))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(rt.Close)
				register(rt)
				nodes[i], addrs[i] = rt, rt.Addr()
			}
			for _, rt := range nodes {
				if err := rt.JoinCluster(addrs); err != nil {
					t.Fatal(err)
				}
			}
			return nodes[0]
		},
	}
	for name, start := range boot {
		t.Run(name, func(t *testing.T) {
			b := &blocker{entered: make(chan struct{}, 1), release: make(chan struct{})}
			entry := start(t, func(rt *parc.Runtime) {
				rt.RegisterClass("blocker", func() any { return b })
			})
			obj := remoteBlocker(t, entry)
			ctx := context.Background()
			held := parc.CallAsync[int](ctx, obj, "Block")
			<-b.entered
			base := runtime.NumGoroutine()
			// The hosting node runs in this process too: its read loop
			// hands each request to the held object's mailbox, where it
			// waits without a goroutine of its own, so neither end's count
			// grows with the calls outstanding.
			const n = 4 * 1024
			results := make([]*parc.Result[int], n)
			for i := range results {
				results[i] = parc.CallAsync[int](ctx, obj, "Quick")
			}
			if d := runtime.NumGoroutine() - base; d > 32 {
				t.Errorf("%d outstanding CallAsync hold %d extra goroutines, want at most 32", n, d)
			} else {
				t.Logf("%d outstanding CallAsync hold %d extra goroutines", n, d)
			}
			close(b.release)
			if v, err := held.Get(ctx); err != nil || v != 1 {
				t.Fatalf("Block = %d, %v", v, err)
			}
			for i, r := range results {
				if v, err := r.Get(ctx); err != nil || v != 2 {
					t.Fatalf("call %d = %d, %v", i, v, err)
				}
			}
		})
	}
}
