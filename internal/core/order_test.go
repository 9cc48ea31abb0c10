package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/racetest"
)

// gateLog is an orderLog whose Step, once a gate is armed, holds the first
// call to arrive until that gate opens.
type gateLog struct {
	orderLog
	gates chan chan struct{} // an armed gate, taken by the call it holds
	held  chan struct{}      // told when a call is held
}

func (g *gateLog) Step(v int) int {
	select {
	case gate := <-g.gates:
		g.held <- struct{}{}
		<-gate
	default:
	}
	return g.Echo(v)
}

// movedLog is where every copy of a movingLog notes its calls: a migrated
// object is rebuilt from its exported state, so the copies share nothing.
var movedLog orderLog

type movingLog struct{}

func (*movingLog) Echo(v int) int { return movedLog.Echo(v) }

// TestRerunKeepsIssueOrder is SPEC guarantee 1 across a re-run: in each
// round, two InvokeAsync calls go straight at the endpoint one proxy still
// routes at, a blocking Invoke follows, and every call that has to be re-run
// keeps its place, so the three execute in issue order. Either another proxy
// migrated the object, and the two meet the forwarding tombstone (forward),
// or the caller's connections die (FailLanes) while the object holds the
// first and has the second queued (dead connection): the object then
// executes both again (at least once, as for a blocking call), in issue
// order, before the blocking call.
func TestRerunKeepsIssueOrder(t *testing.T) {
	const rounds = 100
	t.Run("forward", func(t *testing.T) {
		for _, procs := range []int{1, 2} {
			t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				l := &movedLog
				rts := startNodes(t, 3, func(i int, cfg *Config) {
					cfg.Placement = &forceNode{node: 1}
				})
				for _, rt := range rts {
					rt.RegisterClass("moving", func() any { return &movingLog{} })
				}
				p, err := rts[0].NewParallelObject("moving")
				if err != nil {
					t.Fatal(err)
				}
				mover := rts[2].Attach(p.Ref())
				want := []int{1, 2, 3}
				var first []int
				bad := 0
				for r := 0; r < rounds; r++ {
					// The object alternates between nodes 1 and 2, and p
					// routes at the one it just left.
					if err := mover.Migrate(1 + (r+1)%2); err != nil {
						t.Fatal(err)
					}
					l.mu.Lock()
					l.seen = l.seen[:0]
					l.mu.Unlock()
					f1 := p.InvokeAsync("Echo", 1)
					f2 := p.InvokeAsync("Echo", 2)
					if _, err := p.Invoke("Echo", 3); err != nil {
						t.Fatal(err)
					}
					for _, f := range []*Future{f1, f2} {
						if _, err := f.Get(); err != nil {
							t.Fatal(err)
						}
					}
					if got := l.order(); !slices.Equal(got, want) {
						if bad == 0 {
							first = got
						}
						bad++
					}
				}
				if bad > 0 {
					t.Errorf("%d of %d rounds ran out of issue order, the first as %v", bad, rounds, first)
				}
			})
		}
	})
	t.Run("dead connection", func(t *testing.T) {
		for _, procs := range []int{1, 2} {
			t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				g := &gateLog{gates: make(chan chan struct{}, 1), held: make(chan struct{}, 1)}
				rts := startNodes(t, 2, func(i int, cfg *Config) {
					cfg.Placement = &forceNode{node: 1}
				})
				for _, rt := range rts {
					rt.RegisterClass("gatelog", func() any { return g })
				}
				p, err := rts[0].NewParallelObject("gatelog")
				if err != nil {
					t.Fatal(err)
				}
				if p.IsLocal() {
					t.Fatal("want a remote object")
				}
				want := []int{1, 2, 1, 2, 3}
				var first []int
				bad := 0
				for r := 0; r < rounds; r++ {
					g.mu.Lock()
					g.seen = g.seen[:0]
					g.mu.Unlock()
					gate := make(chan struct{})
					g.gates <- gate
					f1 := p.InvokeAsync("Step", 1)
					f2 := p.InvokeAsync("Step", 2)
					select {
					case <-g.held:
					case <-time.After(5 * time.Second):
						t.Fatal("Step(1) never reached the object")
					}
					waitQueued(t, rts[1], 1) // Step(2), behind it
					rts[0].cfg.Channel.FailLanes()
					close(gate)
					if _, err := p.Invoke("Step", 3); err != nil {
						t.Fatal(err)
					}
					for _, f := range []*Future{f1, f2} {
						if _, err := f.Get(); err != nil {
							t.Fatal(err)
						}
					}
					if got := g.order(); !slices.Equal(got, want) {
						if bad == 0 {
							first = got
						}
						bad++
					}
				}
				if bad > 0 {
					t.Errorf("%d of %d rounds ran out of issue order, the first as %v", bad, rounds, first)
				}
			})
		}
	})
}

// TestAllocBudgetIdleFlush: the flush Wait starts with allocates nothing
// while none of the proxy's calls is outstanding.
func TestAllocBudgetIdleFlush(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	var o callOrder
	ctx := context.Background()
	if n := testing.AllocsPerRun(500, func() {
		if err := o.flush(ctx); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("flush with nothing outstanding: %.0f allocs, want 0", n)
	}
}

// TestCallIssuedWhileConnectionFailsKeepsOrder is SPEC guarantee 1 at a
// failing connection: in each round the caller issues InvokeAsync calls
// straight at a remote object while a second goroutine fails the caller's
// connections (FailLanes), so the connection fails with some of them in
// flight. A call
// issued while it fails is declined and re-run in its place, never sent on
// the connection dialled in the failed one's place ahead of the re-runs of
// the calls issued before it. So the executions the calls' results come
// from run in issue order. (A call the failed connection carried may also
// execute once more, whenever its frame reaches the object; nobody hears of
// that execution.)
func TestCallIssuedWhileConnectionFailsKeepsOrder(t *testing.T) {
	const rounds, calls = 2000, 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	l := &orderLog{}
	rts := startNodes(t, 2, func(i int, cfg *Config) {
		cfg.Placement = &forceNode{node: 1}
	})
	for _, rt := range rts {
		rt.RegisterClass("orderlog", func() any { return l })
	}
	p, err := rts[0].NewParallelObject("orderlog")
	if err != nil {
		t.Fatal(err)
	}
	if p.IsLocal() {
		t.Fatal("want a remote object")
	}
	var first []int
	bad := 0
	fs := make([]*Future, calls)
	for r := 0; r < rounds; r++ {
		l.mu.Lock()
		l.seen = l.seen[:0]
		l.mu.Unlock()
		closed := make(chan struct{})
		go func() {
			rts[0].cfg.Channel.FailLanes()
			close(closed)
		}()
		for i := range fs {
			fs[i] = p.InvokeAsync("At", i+1)
		}
		<-closed
		at := -1
		inOrder := true
		for _, f := range fs {
			v, err := f.Get()
			if err != nil {
				t.Fatal(err)
			}
			inOrder = inOrder && v.(int) > at
			at = v.(int)
		}
		if !inOrder {
			if bad == 0 {
				first = l.order()
			}
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d rounds answered calls out of issue order, the first from %v", bad, rounds, first)
	}
}
