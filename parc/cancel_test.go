package parc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Gated is the cancellation-test class: Hold parks in the object until the
// test opens the gate, Step is a pipeline stage that parks on one member.
type Gated struct{ id int }

func (g *Gated) Setup(id int) { g.id = id }

func (g *Gated) Hold(v int) int {
	gs := gate.Load()
	gs.entered <- v
	<-gs.open
	return v
}

func (g *Gated) Echo(v int) int { return v }

func (g *Gated) Note() {}

func (g *Gated) Step(v int) int {
	gs := gate.Load()
	gs.steps[g.id].Add(1)
	if g.id == gs.holdAt {
		gs.entered <- v
		<-gs.open
	}
	return v*10 + g.id
}

// gateState is what the objects of one test share with it; the nodes are in
// this process.
type gateState struct {
	entered chan int // one value per call parked
	open    chan struct{}
	once    sync.Once
	holdAt  int // the member whose Step parks
	steps   [4]atomic.Int32
}

var gate atomic.Pointer[gateState]

// newGate installs a closed gate. Call it after the cluster is up, so that
// the gate opens before the cluster closes.
func newGate(t *testing.T, holdAt int) *gateState {
	gs := &gateState{entered: make(chan int, 4096), open: make(chan struct{}), holdAt: holdAt}
	gate.Store(gs)
	t.Cleanup(gs.release)
	return gs
}

func (gs *gateState) release() { gs.once.Do(func() { close(gs.open) }) }

func (gs *gateState) awaitEntered(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-gs.entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d calls reached their objects", i, n)
		}
	}
}

// gatedOn starts a cluster with every object placed on node 1 and returns n
// Gated objects as node 0 sees them.
func gatedOn(t *testing.T, n int, opts ...Option) []*Object[Gated] {
	t.Helper()
	cl, err := StartCluster(append([]Option{WithNodes(2), WithPlacement(&pinNode{node: 1})}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	Register[Gated](cl, "gated")
	objs := make([]*Object[Gated], n)
	for i := range objs {
		if objs[i], err = New[Gated](cl, "gated"); err != nil {
			t.Fatal(err)
		}
		if objs[i].Proxy().IsLocal() {
			t.Fatal("want a remote object")
		}
	}
	return objs
}

func within(t *testing.T, d time.Duration) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

func wantCanceled[R any](t *testing.T, what string, r *Result[R]) {
	t.Helper()
	if _, err := r.Get(within(t, 5*time.Second)); !errors.Is(err, context.Canceled) {
		t.Errorf("%s resolved with %v, want context.Canceled", what, err)
	}
}

// TestCancelLoserReleasesSlot: a WhenAny loser in flight gives its slot
// back. With the lane at its limit, every slot held by a parked call and
// more calls waiting for one, cancelling two losers admits exactly two of
// the waiting calls; the losers resolve with context.Canceled, and when
// their replies do arrive the reader drops them and the lane carries on.
func TestCancelLoserReleasesSlot(t *testing.T) {
	const slots, waiting = 4, 3
	ctx := context.Background()
	objs := gatedOn(t, slots+waiting, WithMaxInFlight(slots), WithMuxLanes(1))
	gs := newGate(t, 0)
	calls := make([]*Result[int], len(objs))
	for i := 0; i < slots; i++ {
		calls[i] = CallAsync[int](ctx, objs[i], "Hold", i)
	}
	gs.awaitEntered(t, slots)
	for i := slots; i < len(objs); i++ {
		calls[i] = CallAsync[int](ctx, objs[i], "Hold", i)
	}
	select {
	case v := <-gs.entered:
		t.Fatalf("call %d was admitted beyond the lane's %d slots", v, slots)
	case <-time.After(20 * time.Millisecond):
	}

	never := CallAsync[int](ctx, objs[0], "NoSuchMethod") // resolved as it is made
	if _, err := WhenAny(calls[0], never, calls[1]).Get(ctx); !errors.Is(err, ErrNoSuchMethod) {
		t.Fatalf("WhenAny = %v, want the call that failed at once", err)
	}
	gs.awaitEntered(t, 2)
	select {
	case v := <-gs.entered:
		t.Errorf("call %d was admitted too: two losers gave back more than two slots", v)
	case <-time.After(50 * time.Millisecond):
	}
	wantCanceled(t, "loser 0", calls[0])
	wantCanceled(t, "loser 1", calls[1])

	gs.release()
	for i := 2; i < len(calls); i++ {
		if v, err := calls[i].Get(within(t, 10*time.Second)); err != nil || v != i {
			t.Errorf("call %d = %d, %v", i, v, err)
		}
	}
	// The losers' objects answered too, by now or soon; nobody waits for
	// those replies and the connection survives them.
	for i := 0; i < 8; i++ {
		if v, err := Call[int](ctx, objs[i%2], "Echo", i); err != nil || v != i {
			t.Fatalf("Echo on a loser's object = %d, %v", v, err)
		}
	}
	wantCanceled(t, "loser 0, after its reply", calls[0])
}

// hookCtx is a cancellable context that counts the hooks registered on it:
// context.AfterFunc goes through its AfterFunc method (Value hides the
// cancelCtx inside, which context would otherwise attach to directly).
type hookCtx struct {
	context.Context
	end context.CancelFunc

	mu         sync.Mutex
	hooks      map[int]func()
	registered int
}

func newHookCtx() *hookCtx {
	c := &hookCtx{hooks: map[int]func(){}}
	c.Context, c.end = context.WithCancel(context.Background())
	return c
}

func (c *hookCtx) Value(any) any { return nil }

func (c *hookCtx) AfterFunc(f func()) (stop func() bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.registered
	c.registered++
	c.hooks[id] = f
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, live := c.hooks[id]
		delete(c.hooks, id)
		return live
	}
}

// cancel ends the context and runs the hooks still on it, reporting how
// many there were.
func (c *hookCtx) cancel() (ran int) {
	c.end()
	c.mu.Lock()
	hooks := c.hooks
	c.hooks = map[int]func(){}
	c.mu.Unlock()
	for _, f := range hooks {
		f()
	}
	return len(hooks)
}

// TestCancelLeavesNoHookOnParent: a caller context that can end costs a
// call one hook, and the hook is gone when the call resolves. Ten thousand
// completed calls under one long-lived parent, to a local object, to a
// remote one and to a remote one behind a post (mailbox, connection and
// lane each detach their own way), leave nothing on it: cancelling the
// parent afterwards runs no callback.
func TestCancelLeavesNoHookOnParent(t *testing.T) {
	const calls, wave = 10_000, 250
	cl, err := StartCluster(WithNodes(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	Register[Gated](cl, "gated")
	var local, remote, posted *Object[Gated]
	for local == nil || remote == nil || posted == nil {
		o, err := New[Gated](cl, "gated")
		switch {
		case err != nil:
			t.Fatal(err)
		case o.Proxy().IsLocal():
			local = o
		case remote == nil:
			remote = o
		default:
			posted = o
		}
	}
	bg := context.Background()
	parent := newHookCtx()
	for done := 0; done < calls; done += wave {
		rs := make([]*Result[int], wave)
		for i := range rs {
			switch i % 3 {
			case 0:
				rs[i] = CallAsync[int](parent, local, "Echo", i)
			case 1:
				rs[i] = CallAsync[int](parent, remote, "Echo", i)
			default:
				if err := posted.Send(bg, "Note"); err != nil {
					t.Fatal(err)
				}
				rs[i] = CallAsync[int](parent, posted, "Echo", i)
			}
		}
		vals, err := Gather(bg, rs)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vals {
			if v != i {
				t.Fatalf("call %d of a wave echoed %d", i, v)
			}
		}
	}
	parent.mu.Lock()
	registered, live := parent.registered, len(parent.hooks)
	parent.mu.Unlock()
	if registered < calls {
		t.Errorf("%d calls registered %d hooks: the test does not see them all", calls, registered)
	}
	if live != 0 {
		t.Errorf("%d completed calls left %d hooks on their parent context", calls, live)
	}
	if ran := parent.cancel(); ran != 0 {
		t.Errorf("cancelling the parent ran %d callbacks for calls that had completed", ran)
	}
}

// TestCancelByParentResolvesOutstanding: a parent context cancelled with a
// thousand calls outstanding, some in flight and most waiting for a slot,
// resolves every Result with the parent's error.
func TestCancelByParentResolvesOutstanding(t *testing.T) {
	const outstanding, holders = 1000, 8
	objs := gatedOn(t, holders, WithMaxInFlight(256), WithMuxLanes(1))
	gs := newGate(t, 0)
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	rs := make([]*Result[int], outstanding)
	for i := range rs {
		rs[i] = CallAsync[int](parent, objs[i%holders], "Hold", i)
	}
	gs.awaitEntered(t, holders)
	cancel()
	deadline := within(t, 10*time.Second)
	for i, r := range rs {
		if _, err := r.Get(deadline); !errors.Is(err, parent.Err()) {
			t.Fatalf("call %d resolved with %v, want the parent's %v", i, err, parent.Err())
		}
	}
}

// TestCancelPipelineAbandonsStageInFlight: cancelling a Pipeline item
// reaches the stage it is in, not only the first. With stage 2 of 3 parked,
// the item resolves with context.Canceled at once, stage 2's call gives its
// slot back and stage 3 never runs, whether the item is cancelled directly
// or as a WhenAny loser.
func TestCancelPipelineAbandonsStageInFlight(t *testing.T) {
	for _, how := range []string{"direct", "WhenAny loser"} {
		t.Run(how, func(t *testing.T) {
			ctx := context.Background()
			g := GroupOf(gatedOn(t, 3, WithMuxLanes(1), WithMaxInFlight(1))...)
			for i := 0; i < g.Size(); i++ {
				if _, err := g.Object(i).Invoke(ctx, "Setup", i+1); err != nil {
					t.Fatal(err)
				}
			}
			gs := newGate(t, 2)
			item := Pipeline[int](ctx, g, "Step", []any{7})[0]
			gs.awaitEntered(t, 1)
			if how == "direct" {
				item.fut().Cancel()
			} else {
				WhenAny(item, CallAsync[int](ctx, g.Object(0), "NoSuchMethod"))
			}
			if _, err := item.Get(within(t, time.Second)); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled item resolved with %v, want context.Canceled within a second", err)
			}
			// Stage 2's call held the lane's one slot; abandoned, it does not.
			if _, err := Call[int](within(t, 5*time.Second), g.Object(0), "Echo", 1); err != nil {
				t.Errorf("a call after the cancel, stage 2 still parked: %v", err)
			}
			gs.release()
			// Stage 2 finishes; a call behind it on the same connection
			// returns after its reply was handled, and a call on stage 3
			// after that runs behind any Step that reply led to.
			for i := 0; i < g.Size(); i++ {
				if _, err := g.Object(i).Invoke(ctx, "Echo", 0); err != nil {
					t.Fatal(err)
				}
			}
			if got := [3]int32{gs.steps[1].Load(), gs.steps[2].Load(), gs.steps[3].Load()}; got != [3]int32{1, 1, 0} {
				t.Errorf("Step ran %v times on stages 1 to 3, want [1 1 0]", got)
			}
		})
	}
}

// alternate places objects on nodes 1 and 2 in turn.
type alternate struct{ n atomic.Int64 }

func (a *alternate) Pick(self int, loads []NodeLoad) int { return 1 + int(a.n.Add(1)-1)%2 }

// TestWaveMembersStandAlone: the members of one Scatter share an allocation
// and nothing else. In a wave of 64 parked calls over two nodes, member 3 is
// cancelled, member 5 loses a WhenAny, member 7's object has left the node
// its handle routes at by the time the call is issued (moved in mid-wave, so
// the call is finished by the re-run rule) and member 9 has a Then chained on
// it: the two cancelled ones resolve with context.Canceled, every other
// member with its own value, and each call ran exactly once.
func TestWaveMembersStandAlone(t *testing.T) {
	const members = 64
	cl, err := StartCluster(WithNodes(3), WithPlacement(&alternate{}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	Register[Gated](cl, "gated")
	objs := make([]*Object[Gated], members+1)
	for i := range objs {
		if objs[i], err = New[Gated](cl, "gated"); err != nil {
			t.Fatal(err)
		}
		if objs[i].Proxy().IsLocal() {
			t.Fatal("want a remote object")
		}
	}
	if n1, n2 := cl.Node(1).Load(), cl.Node(2).Load(); n1 == 0 || n2 == 0 {
		t.Fatalf("objects placed %d on node 1, %d on node 2: want both", n1, n2)
	}
	gs := newGate(t, -1)
	ctx := context.Background()
	bystander, g := objs[members], GroupOf(objs[:members]...)
	mover := Bind[Gated](cl.Entry(), objs[7].Ref())

	rs := Scatter[int](ctx, g, "Hold", func(i int) []any {
		if i == 7 {
			// Members 0 to 6 are out. objs[7] was the eighth object placed,
			// on node 2, and keeps routing there.
			if err := mover.Migrate(ctx, 1); err != nil {
				t.Errorf("migrating member 7's object: %v", err)
			}
		}
		return []any{i}
	})
	var runs [members]int
	count := func(v int) {
		if v < 0 || v >= members {
			t.Fatalf("a call with argument %d ran", v)
		}
		runs[v]++
	}
	for i := 0; i < members; i++ {
		select {
		case v := <-gs.entered:
			count(v)
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d members reached their objects", i, members)
		}
	}

	rs[3].fut().Cancel()
	first := WhenAny(CallAsync[int](ctx, bystander, "Echo", 500), rs[5])
	if v, err := first.Get(within(t, 5*time.Second)); err != nil || v != 500 {
		t.Errorf("WhenAny = %v, %v, want the bystander's 500", v, err)
	}
	chained := Then(rs[9], func(v int) (string, error) { return fmt.Sprint("member ", v), nil })
	wantCanceled(t, "the cancelled member", rs[3])
	wantCanceled(t, "the WhenAny loser", rs[5])
	gs.release()

	for i, r := range rs {
		if i == 3 || i == 5 {
			continue
		}
		if v, err := r.Get(within(t, 10*time.Second)); err != nil || v != i {
			t.Errorf("member %d = %v, %v", i, v, err)
		}
	}
	if s, err := chained.Get(within(t, 5*time.Second)); err != nil || s != "member 9" {
		t.Errorf("Then on member 9 = %q, %v", s, err)
	}
	for len(gs.entered) > 0 {
		count(<-gs.entered)
	}
	for v, n := range runs {
		if n != 1 {
			t.Errorf("member %d's call ran %d times", v, n)
		}
	}
}
