package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/errs"
	"repro/internal/racetest"
	"repro/internal/remoting"
)

// probeObj is the user object behind the endpoints under test. Its own
// methods have thunks too, as a parcgen class would, so an allocation
// budget measures the runtime and not reflection on the test's class.
type probeObj struct{ n int }

func (p *probeObj) Twice(v int) int { return 2 * v }
func (p *probeObj) Add(v int)       { p.n += v }

// Deadline reports the deadline its injected context carries.
func (p *probeObj) Deadline(ctx context.Context) int64 {
	dl, _ := ctx.Deadline()
	return dl.UnixNano()
}

func init() {
	dispatch.RegisterInvokers(&probeObj{}, map[string]dispatch.Invoker{
		"Twice": func(_ context.Context, obj any, args []any) (any, error) {
			v, err := dispatch.Arg[int](obj, "Twice", args, 0)
			if err != nil {
				return nil, err
			}
			return obj.(*probeObj).Twice(v), nil
		},
		"Add": func(_ context.Context, obj any, args []any) (any, error) {
			v, err := dispatch.Arg[int](obj, "Add", args, 0)
			if err != nil {
				return nil, err
			}
			obj.(*probeObj).Add(v)
			return nil, nil
		},
	})
}

// completerFunc adapts a function to remoting.Completer.
type completerFunc func(any, error)

func (f completerFunc) Complete(v any, err error) { f(v, err) }

// runtimeCall hands a runtime call to ep as the server hands over a call
// whose handle names the user's method: to its Mailbox, waiting for the
// outcome, or to its NestedInvoker.
func runtimeCall(ep any, ctx context.Context, call, method string, args []any) (any, error) {
	mb, ok := ep.(remoting.Mailbox)
	if !ok {
		return ep.(remoting.NestedInvoker).InvokeNested(ctx, call, method, args)
	}
	done := make(chan actorResult, 1)
	if err := mb.Enqueue(ctx, call, method, args, completerFunc(func(v any, err error) {
		done <- actorResult{val: v, err: err}
	})); err != nil {
		return nil, err
	}
	res := <-done
	return res.val, res.err
}

// TestInvokeNestedMatchesReflectivePath runs each runtime call through an
// endpoint's Mailbox or InvokeNested, as the server hands over a call whose
// handle names the user's method, and through the reflective path to the
// wrapper the endpoint runs it on with the flat list: results, error text
// and error chains must agree. A tombstone answers every call with its
// forward.
func TestInvokeNestedMatchesReflectivePath(t *testing.T) {
	rt := startNodes(t, 1, nil)[0]
	w := rt.wrap("probe", &probeObj{}, "")
	a := newActor(w)
	t.Cleanup(a.stop)
	mv := errs.MovedError{URI: "obj/probe/0/1", Node: 3, Addr: "mem://n3", Gen: 7}
	deadline := time.Now().Add(time.Hour)
	dlCtx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	bg := context.Background()

	cases := []struct {
		name         string
		ep           any
		ctx          context.Context
		call, method string
		args         []any
		want         any // checked when the call succeeds
	}{
		{"good call", &actorEndpoint{a: a}, bg, "Invoke1", "Twice", []any{21}, 42},
		{"good call, unwrapped object", w, bg, "Invoke1", "Twice", []any{21}, 42},
		{"argument converted by wire.Assign", w, bg, "Invoke1", "Twice", []any{int64(21)}, 42},
		{"unknown user method", w, bg, "Invoke1", "Nope", []any{}, nil},
		{"unknown user method in the mailbox", &actorEndpoint{a: a}, bg, "Invoke1", "Nope", []any{}, nil},
		{"deadline reaches a ctx-first method", &actorEndpoint{a: a}, dlCtx, "Invoke1", "Deadline", []any{}, deadline.UnixNano()},
		{"batch count", &actorEndpoint{a: a}, bg, "InvokeBatch", "Add", []any{[]any{1}, []any{2}, []any{3}}, 3},
		{"batch with a bad element", w, bg, "InvokeBatch", "Add", []any{[]any{1}, "x"}, nil},
		{"batch with a bad element in the mailbox", &actorEndpoint{a: a}, bg, "InvokeBatch", "Add", []any{[]any{1}, "x"}, nil},
		{"tombstone", &tombstone{mv: mv}, bg, "Invoke1", "Twice", []any{1}, nil},
		{"tombstone batch", &tombstone{mv: mv}, bg, "InvokeBatch", "Add", []any{[]any{1}}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, gotErr := runtimeCall(tc.ep, tc.ctx, tc.call, tc.method, tc.args)
			if _, isTomb := tc.ep.(*tombstone); isTomb {
				if gotMv := (*errs.MovedError)(nil); !errors.As(gotErr, &gotMv) || *gotMv != mv {
					t.Errorf("tombstone answered %v, %v; want the forward %+v", got, gotErr, mv)
				}
				return
			}
			ref, refErr := dispatch.InvokeCtx(tc.ctx, w, tc.call, []any{tc.method, tc.args})
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("runtime call returned %#v, reflective path %#v", got, ref)
			}
			if (gotErr == nil) != (refErr == nil) {
				t.Fatalf("runtime call error %v, reflective error %v", gotErr, refErr)
			}
			if gotErr == nil {
				if !reflect.DeepEqual(got, tc.want) {
					t.Errorf("result %#v, want %#v", got, tc.want)
				}
				return
			}
			if gotErr.Error() != refErr.Error() {
				t.Errorf("runtime call error %q, reflective error %q", gotErr, refErr)
			}
			if errors.Is(gotErr, errs.ErrNoSuchMethod) != errors.Is(refErr, errs.ErrNoSuchMethod) {
				t.Errorf("ErrNoSuchMethod: runtime call %v, reflective %v", gotErr, refErr)
			}
		})
	}
}

// TestAllocBudgetLocalCall holds the allocations of a call on a local
// active object, and of the success path of movedOf, to their budgets.
func TestAllocBudgetLocalCall(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	rt := startNodes(t, 1, nil)[0]
	rt.RegisterClass("probe", func() any { return &probeObj{} })
	p, err := rt.NewParallelObject("probe")
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsLocal() || p.IsAgglomerated() {
		t.Fatal("want a local active object")
	}
	ctx := context.Background()
	args := []any{21}
	call := func() {
		if v, err := p.InvokeCtx(ctx, "Twice", args...); err != nil || v != 42 {
			t.Fatalf("Twice = %v, %v", v, err)
		}
	}
	call()
	if n := testing.AllocsPerRun(500, call); n > 4 {
		t.Errorf("local active-object call: %.0f allocs, budget 4", n)
	}
	if n := testing.AllocsPerRun(500, func() { movedOf(nil, "obj/x") }); n != 0 {
		t.Errorf("movedOf(nil): %.0f allocs, want 0", n)
	}
}

// probeOn registers the probe class on every node, creates a probe object
// through the first and checks how its proxy reaches it.
func probeOn(t *testing.T, rts []*Runtime, local, agglomerated bool) *Proxy {
	t.Helper()
	for _, rt := range rts {
		rt.RegisterClass("probe", func() any { return &probeObj{} })
	}
	p, err := rts[0].NewParallelObject("probe")
	if err != nil {
		t.Fatal(err)
	}
	if p.IsLocal() != local || p.IsAgglomerated() != agglomerated {
		t.Fatalf("object is local %v, agglomerated %v; want %v and %v", p.IsLocal(), p.IsAgglomerated(), local, agglomerated)
	}
	return p
}

// TestAllocBudgetAgglomeratedCall: a call on an agglomerated object runs in
// the caller, through the wrapper the object was published with, and
// allocates nothing; a wrapper built per call again fails the budget of 0.
func TestAllocBudgetAgglomeratedCall(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	rts := startNodes(t, 1, func(_ int, cfg *Config) { cfg.Agglomeration = AlwaysAgglomerate{} })
	p := probeOn(t, rts, true, true)
	ctx := context.Background()
	args := []any{21}
	if n := testing.AllocsPerRun(500, func() {
		if v, err := p.InvokeCtx(ctx, "Twice", args...); err != nil || v != 42 {
			t.Fatalf("Twice = %v, %v", v, err)
		}
	}); n != 0 {
		t.Errorf("agglomerated call: %.0f allocs, budget 0", n)
	}
}

// callModes are the three ways a proxy reaches its object, as the nodes to
// start and their configuration.
var callModes = []struct {
	name                string
	local, agglomerated bool
	mutate              func(int, *Config)
	nodes               int
}{
	{"local", true, false, nil, 1},
	{"agglomerated", true, true, func(_ int, cfg *Config) { cfg.Agglomeration = AlwaysAgglomerate{} }, 1},
	{"remote", false, false, func(_ int, cfg *Config) { cfg.Placement = &forceNode{node: 1} }, 2},
}

// TestAllocBudgetCallerList holds a blocking call whose argument list is
// built per call, as a caller writes it (p.InvokeCtx(ctx, "Twice", 21)), to
// 0 allocations on a local, an agglomerated and a remote object, both ends
// counted. The call copies the list into one its proxy keeps, so the
// caller's list stays on the caller's stack; 21 and 42 are small enough
// that boxing them allocates nothing. A list that reaches the mailbox, the
// connection or the object as the caller built it escapes, costs 1 a call
// and fails the budget.
func TestAllocBudgetCallerList(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	for _, m := range callModes {
		t.Run(m.name, func(t *testing.T) {
			p := probeOn(t, startNodes(t, m.nodes, m.mutate), m.local, m.agglomerated)
			ctx := context.Background()
			call := func() {
				if v, err := p.InvokeCtx(ctx, "Twice", 21); err != nil || v != 42 {
					t.Fatalf("Twice = %v, %v", v, err)
				}
			}
			for i := 0; i < 4; i++ {
				call() // declare and confirm the handle, warm the pools
			}
			if n := testing.AllocsPerRun(500, call); n != 0 {
				t.Errorf("%s call with a list built per call: %.0f allocs, budget 0", m.name, n)
			}
		})
	}
}

// postsPerRun is how many posts a post budget issues before the one Wait
// that lets them finish, which costs an allocation of its own (the drain's
// method value).
const postsPerRun = 32

// TestAllocBudgetLocalAsync: on a local active object an InvokeAsyncCtx and
// the Get of its Future allocate the call and the channel Get waits on, and
// a PostCtx allocates nothing: the mailbox tells the call, or the proxy, of
// the outcome as it is, with no closure built around either. A closure per
// call again fails the budgets of 2 and 0.
func TestAllocBudgetLocalAsync(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	p := probeOn(t, startNodes(t, 1, nil), true, false)
	ctx := context.Background()
	args := []any{21}
	if n := testing.AllocsPerRun(500, func() {
		if v, err := p.InvokeAsyncCtx(ctx, "Twice", args...).Get(); err != nil || v != 42 {
			t.Fatalf("Twice = %v, %v", v, err)
		}
	}); n > 2 {
		t.Errorf("local InvokeAsyncCtx and Get: %.0f allocs, budget 2", n)
	}
	checkPostBudget(t, p, "local", 0)
}

// TestAllocBudgetRemotePost: a post to an object on another node allocates
// nothing of the runtime's own. The attempt the lane holds, with the lane
// turn and the connection's record inside it, is drawn from the proxy's
// store, and goes back when the post is done, or, for a post that leaves in
// another's batch, when the batch takes its arguments: no argument list is
// built around the method name and the arguments, and neither is boxed.
// Both ends are counted; the method has a thunk and takes a small int, so
// the server allocates nothing for it. The posts queued behind the first
// leave in batches, which allocate nothing of their own at either end. It
// measures 0, and the budget is one allocation over the run of postsPerRun
// posts: a list, a turn or an attempt of its own again, one a post, fails
// it.
func TestAllocBudgetRemotePost(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	rts := startNodes(t, 2, func(_ int, cfg *Config) { cfg.Placement = &forceNode{node: 1} })
	checkPostBudget(t, probeOn(t, rts, false, false), "remote", 1.0/postsPerRun)
	st := rts[0].Stats()
	frames := st.AsyncCalls - st.CallsAggregated + st.BatchesSent
	if frames >= st.AsyncCalls {
		t.Errorf("%d posts left in %d frames: none shared a batch", st.AsyncCalls, frames)
	} else {
		t.Logf("%d posts left in %d frames, %d of them batches", st.AsyncCalls, frames, st.BatchesSent)
	}
}

// checkPostBudget holds PostCtx on p to budget allocations a post, measured
// over postsPerRun posts and the Wait after them.
func checkPostBudget(t *testing.T, p *Proxy, where string, budget float64) {
	t.Helper()
	ctx := context.Background()
	args := []any{1}
	posts := func() {
		for i := 0; i < postsPerRun; i++ {
			if err := p.PostCtx(ctx, "Add", args...); err != nil {
				t.Fatal(err)
			}
		}
		p.Wait()
	}
	for i := 0; i < 4; i++ {
		posts() // declare and confirm the handle, warm the pools
	}
	n := testing.AllocsPerRun(50, posts)
	if perPost := (n - 1) / postsPerRun; perPost > budget {
		t.Errorf("%s post: %.2f allocs, budget %.2f", where, perPost, budget)
	} else {
		t.Logf("%s post: %.2f allocs (%.0f for %d posts and their Wait)", where, perPost, n, postsPerRun)
	}
	if err := p.AsyncErr(); err != nil {
		t.Fatal(err)
	}
}

// echoGate echoes its argument and can park its mailbox.
type echoGate struct {
	entered chan struct{}
	release chan struct{}
}

func (g *echoGate) Block()         { g.entered <- struct{}{}; <-g.release }
func (g *echoGate) Echo(v int) int { return v }

// TestReplyChannelReuseIsSafe: blocking calls queue behind a parked
// mailbox, a third of them give up while queued, and the mailbox then
// settles every task, abandoned ones included. No surviving caller may see
// anything but its own echo, in this round or the next: an abandoned
// call's channel must never have gone back to the pool.
func TestReplyChannelReuseIsSafe(t *testing.T) {
	rt := startNodes(t, 1, nil)[0]
	g := &echoGate{entered: make(chan struct{}), release: make(chan struct{})}
	rt.RegisterClass("echogate", func() any { return g })
	p, err := rt.NewParallelObject("echogate")
	if err != nil {
		t.Fatal(err)
	}
	const callers = 64
	for round := 0; round < 8; round++ {
		go p.Invoke("Block")
		<-g.entered
		var wg sync.WaitGroup
		cancels := make([]context.CancelFunc, 0, callers/3+1)
		for i := 0; i < callers; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			doomed := i%3 == 0
			if doomed {
				cancels = append(cancels, cancel)
			}
			want := round*callers + i
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, err := p.InvokeCtx(ctx, "Echo", want)
				switch {
				case doomed && errors.Is(err, context.Canceled):
				case err != nil:
					t.Errorf("round %d caller %d: %v", round, want, err)
				case v != want:
					t.Errorf("round %d: caller %d received %v", round, want, v)
				}
			}()
		}
		// Every call is queued (or about to be) behind Block; cancel the
		// doomed third, then let the mailbox run.
		waitQueued(t, rt, callers)
		for _, cancel := range cancels {
			cancel()
		}
		g.release <- struct{}{}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			// A stale result left in a recycled channel blocks the mailbox
			// loop on its next send.
			t.Fatalf("round %d: calls never returned", round)
		}
	}
}

// argLog echoes its argument, counts every argument it ran with, and can
// park its mailbox.
type argLog struct {
	gate echoGate
	mu   sync.Mutex
	ran  map[int]int
}

func (l *argLog) Block() { l.gate.Block() }

func (l *argLog) Echo(v int) int {
	l.mu.Lock()
	l.ran[v]++
	l.mu.Unlock()
	return v
}

// TestArgListReuseIsSafe: a blocking call runs on a copy of its caller's
// argument list that its proxy keeps and reuses. In each mode, callers
// that share one proxy call it back to back with distinct arguments: each
// must get its own echo, and the object must run each argument once. A
// list given back before its call's outcome is in is refilled by another
// caller while the mailbox, the connection or the object still reads it.
// Then, locally and remotely, a call queued behind a parked mailbox is lost
// to its context and the next call on the proxy must echo its own
// argument, with every call record of either end gone back or let go.
func TestArgListReuseIsSafe(t *testing.T) {
	for _, m := range callModes {
		t.Run(m.name, func(t *testing.T) {
			check := remoting.AuditRecords()
			t.Cleanup(func() {
				if err := check(); err != nil {
					t.Error(err)
				}
			})
			rts := startNodes(t, m.nodes, m.mutate)
			l := &argLog{gate: echoGate{entered: make(chan struct{}), release: make(chan struct{})}, ran: map[int]int{}}
			for _, rt := range rts {
				rt.RegisterClass("arglog", func() any { return l })
			}
			p, err := rts[0].NewParallelObject("arglog")
			if err != nil {
				t.Fatal(err)
			}
			if p.IsLocal() != m.local || p.IsAgglomerated() != m.agglomerated {
				t.Fatalf("object is local %v, agglomerated %v", p.IsLocal(), p.IsAgglomerated())
			}
			ctx := context.Background()
			const callers, calls = 8, 200
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < calls; i++ {
						want := 1000 + c*calls + i
						if v, err := p.InvokeCtx(ctx, "Echo", want); err != nil || v != want {
							t.Errorf("caller %d: Echo(%d) = %v, %v", c, want, v, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if !m.agglomerated {
				// Lose a call queued behind a parked mailbox, then call again.
				host := rts[len(rts)-1]
				go p.InvokeCtx(ctx, "Block") //nolint:errcheck // released below
				<-l.gate.entered
				lostCtx, cancel := context.WithCancel(ctx)
				lost := make(chan error, 1)
				go func() {
					_, err := p.InvokeCtx(lostCtx, "Echo", 1)
					lost <- err
				}()
				waitQueued(t, host, 1)
				cancel()
				if err := <-lost; !errors.Is(err, context.Canceled) {
					t.Errorf("lost call returned %v, want context.Canceled", err)
				}
				l.gate.release <- struct{}{}
				if v, err := p.InvokeCtx(ctx, "Echo", 2); err != nil || v != 2 {
					t.Errorf("call after the lost one: Echo(2) = %v, %v", v, err)
				}
			}
			l.mu.Lock()
			defer l.mu.Unlock()
			for v, n := range l.ran {
				if n != 1 {
					t.Errorf("the object ran Echo(%d) %d times", v, n)
				}
			}
			if len(l.ran) < callers*calls {
				t.Errorf("the object ran %d distinct arguments, want at least %d", len(l.ran), callers*calls)
			}
		})
	}
}

// waitQueued waits until the runtime counts n tasks waiting in mailboxes.
func waitQueued(t *testing.T, rt *Runtime, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for rt.queuedTasks.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d calls reached the mailbox", rt.queuedTasks.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMailboxKeepsItsArray: a one-deep mailbox reuses its slot, a popped
// slot pins nothing, a backlog that never empties is compacted rather than
// grown, and a burst's array is let go once drained.
func TestMailboxKeepsItsArray(t *testing.T) {
	a := &actor{}
	a.push(actorTask{method: "m0"})
	first := &a.queue[0]
	for i := 0; i < 100; i++ {
		if got := a.pop(); got.method == "" {
			t.Fatal("popped an empty task")
		}
		if first.method != "" {
			t.Fatal("popped slot still holds its task")
		}
		a.push(actorTask{method: "m"})
		if &a.queue[a.head] != first {
			t.Fatal("one-deep mailbox moved to a new slot")
		}
	}
	// Steady backlog of three: FIFO order holds and the array stops growing.
	b := &actor{}
	next, want := 0, 0
	for ; next < 3; next++ {
		b.push(actorTask{args: []any{next}})
	}
	for i := 0; i < 1000; i++ {
		if got := b.pop().args[0]; got != want {
			t.Fatalf("popped %v, want %d", got, want)
		}
		want++
		b.push(actorTask{args: []any{next}})
		next++
		if b.queued() != 3 {
			t.Fatalf("queued = %d, want 3", b.queued())
		}
	}
	if cap(b.queue) > 16 {
		t.Errorf("a backlog of 3 grew the array to %d slots", cap(b.queue))
	}
	// A burst is not kept.
	c := &actor{}
	for i := 0; i < 10*mailboxKeep; i++ {
		c.push(actorTask{})
	}
	for c.queued() > 0 {
		c.pop()
	}
	if cap(c.queue) > mailboxKeep {
		t.Errorf("drained mailbox keeps %d slots, want at most %d", cap(c.queue), mailboxKeep)
	}
}

// batchLog notes the argument of every call; the call with argument 0
// parks until released.
type batchLog struct {
	entered, release chan struct{}
	mu               sync.Mutex
	seen             []int
}

func (b *batchLog) Note(v int) {
	if v == 0 {
		b.entered <- struct{}{}
		<-b.release
	}
	b.mu.Lock()
	b.seen = append(b.seen, v)
	b.mu.Unlock()
}

// TestAbandonedCallKeepsItsArguments: a batch whose first element parks in
// the mailbox outlives its caller's deadline. The server answers the
// caller and moves on, and its call record is reused a thousand times, but
// the argument list is still the parked task's: released, it must find
// the rest of its batch as it was sent.
func TestAbandonedCallKeepsItsArguments(t *testing.T) {
	rt := startNodes(t, 1, nil)[0]
	parked := &batchLog{entered: make(chan struct{}), release: make(chan struct{})}
	logs := []*batchLog{parked, {}}
	rt.RegisterClass("batchlog", func() any {
		l := logs[0]
		logs = logs[1:]
		return l
	})
	refs := make([]*remoting.ObjRef, 2)
	for i := range refs {
		p, err := rt.NewParallelObject("batchlog")
		if err != nil {
			t.Fatal(err)
		}
		if !p.IsLocal() || p.IsAgglomerated() {
			t.Fatal("want a local active object")
		}
		// The object's own endpoint, reached as a remote caller reaches it.
		refs[i] = remoting.NewObjRef(rt.cfg.Channel, rt.Addr(), p.URI())
	}
	batch := func(first int) []any {
		calls := make([]any, 8)
		for i := range calls {
			calls[i] = []any{first + i}
		}
		return calls
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ { // bind both handles; compact from here on
		for _, ref := range refs {
			if _, err := ref.InvokeNestedCtx(ctx, "InvokeBatch", "Note", batch(100)); err != nil {
				t.Fatal(err)
			}
		}
	}
	parked.mu.Lock()
	parked.seen = nil
	parked.mu.Unlock()

	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	abandoned := make(chan error, 1)
	go func() {
		_, err := refs[0].InvokeNestedCtx(short, "InvokeBatch", "Note", batch(0))
		abandoned <- err
	}()
	<-parked.entered
	if err := <-abandoned; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoned batch returned %v, want a deadline error", err)
	}
	// The server has answered too once a later call on the same connection
	// completes; from then on its record is back in the pool.
	for i := 0; i < 1000; i++ {
		if _, err := refs[1].InvokeNestedCtx(ctx, "InvokeBatch", "Note", batch(1000)); err != nil {
			t.Fatal(err)
		}
	}
	close(parked.release)
	want := []int{0, 1, 2, 3, 4, 5, 6, 7}
	deadline := time.Now().Add(5 * time.Second)
	for {
		parked.mu.Lock()
		seen := append([]int(nil), parked.seen...)
		parked.mu.Unlock()
		if reflect.DeepEqual(seen, want) {
			return
		}
		if len(seen) >= len(want) || time.Now().After(deadline) {
			t.Fatalf("the parked batch went on to note %v, want %v", seen, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAllocBudgetFutureCompletion: a future that is subscribed to and then
// resolved is the Future and nothing else: the first continuation is stored
// in it as given, with no wrapper and no slice, when it is told the outcome
// and the index it was registered under (OnCompleteAt), and a derived future
// (ThenInto) is its Step's record and nothing else.
func TestAllocBudgetFutureCompletion(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	at := &indexSum{}
	if n := testing.AllocsPerRun(1000, func() {
		f := &Future{}
		f.OnCompleteAt(3, at)
		f.complete(nil, nil)
	}); n != 1 {
		t.Errorf("OnCompleteAt + complete on a fresh Future: %.0f allocs, want 1", n)
	}
	if at.sum != 3*1001 {
		t.Errorf("an aggregate was told indices summing to %d in 1001 completions, want %d", at.sum, 3*1001)
	}
	if n := testing.AllocsPerRun(1000, func() {
		f := &Future{}
		child := f.ThenInto(&passStep{})
		f.complete(nil, nil)
		if !child.resolved() {
			t.Fatal("derived future unresolved")
		}
	}); n != 2 {
		t.Errorf("ThenInto + complete: %.0f allocs, want 2 (the future and the step)", n)
	}
}

// indexSum is an Aggregate that adds up the indices it is told.
type indexSum struct{ sum int }

func (s *indexSum) MemberDone(i int, _ any, _ error) { s.sum += i }

// passStep is a Step whose future resolves with its parent's outcome as it is.
type passStep struct{ AsyncCall }

func (*passStep) Then(v any, err error) (any, error) { return v, err }

// TestDeadlineErrorNamesTheUserMethod: a remote proxy call whose deadline
// ends while it is in flight fails with an error that names the method the
// caller asked for, not the runtime call that carried it.
func TestDeadlineErrorNamesTheUserMethod(t *testing.T) {
	rts := startNodes(t, 2, func(_ int, cfg *Config) { cfg.Placement = &forceNode{node: 1} })
	g := &echoGate{entered: make(chan struct{}, 1), release: make(chan struct{})}
	t.Cleanup(func() { close(g.release) })
	for _, rt := range rts {
		rt.RegisterClass("echogate", func() any { return g })
	}
	p, err := rts[0].NewParallelObject("echogate")
	if err != nil {
		t.Fatal(err)
	}
	if p.IsLocal() {
		t.Fatal("want a remote object")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = p.InvokeCtx(ctx, "Block")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Block past its deadline = %v, want DeadlineExceeded", err)
	}
	if msg := err.Error(); !strings.Contains(msg, p.URI()+".Block:") || strings.Contains(msg, "Invoke1") {
		t.Errorf("error %q does not name %s.Block", msg, p.URI())
	}
}
