package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/remoting"
)

// orderLog records the order its methods execute in. Hold parks the
// object's mailbox first, which keeps a remote caller's lane busy for as
// long as the test wants.
type orderLog struct {
	entered chan struct{}
	release chan struct{}
	opened  sync.Once

	mu   sync.Mutex
	seen []int
}

// open lets every Hold, parked or still to come, through.
func (l *orderLog) open() { l.opened.Do(func() { close(l.release) }) }

func (l *orderLog) note(v int) {
	l.mu.Lock()
	l.seen = append(l.seen, v)
	l.mu.Unlock()
}

func (l *orderLog) Hold(v int) {
	l.entered <- struct{}{}
	<-l.release
	l.note(v)
}

func (l *orderLog) Note(v int) { l.note(v) }

func (l *orderLog) Echo(v int) int {
	l.note(v)
	return v
}

// At notes v and returns where in the log it is.
func (l *orderLog) At(v int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seen = append(l.seen, v)
	return len(l.seen) - 1
}

func (l *orderLog) order() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int(nil), l.seen...)
}

// heldRemote places one orderLog on node 1, hands node 0's remote proxy for
// it back, and posts Hold(1) through that proxy: from here until l.open the
// proxy's lane has one call in flight.
func heldRemote(t *testing.T) (*Proxy, *orderLog, []*Runtime) {
	t.Helper()
	l := &orderLog{entered: make(chan struct{}, 4), release: make(chan struct{})}
	rts := startNodes(t, 2, func(i int, cfg *Config) {
		cfg.Placement = &forceNode{node: 1}
	})
	for _, rt := range rts {
		rt.RegisterClass("orderlog", func() any { return l })
	}
	t.Cleanup(l.open)
	p, err := rts[0].NewParallelObject("orderlog")
	if err != nil {
		t.Fatal(err)
	}
	if p.IsLocal() {
		t.Fatal("want a remote object")
	}
	p.Post("Hold", 1)
	select {
	case <-l.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("Hold never started running")
	}
	return p, l, rts
}

// TestRemoteInvokeAsyncBehindPostParksNoGoroutine: calls issued while the
// proxy's lane is busy wait on the lane, not on a goroutine each, and each
// future still resolves to its own value, in issue order.
func TestRemoteInvokeAsyncBehindPostParksNoGoroutine(t *testing.T) {
	p, l, _ := heldRemote(t)
	base := runtime.NumGoroutine()
	const n = 2000
	futs := make([]*Future, n)
	for i := range futs {
		futs[i] = p.InvokeAsync("Echo", 2+i)
	}
	if d := runtime.NumGoroutine() - base; d > 16 {
		t.Errorf("%d InvokeAsync calls behind one in-flight post hold %d extra goroutines", n, d)
	}
	l.open()
	for i, f := range futs {
		if got, err := f.Get(); err != nil || got != 2+i {
			t.Fatalf("call %d = %v, %v, want %d", i, got, err, 2+i)
		}
	}
	for i, v := range l.order() {
		if v != 1+i {
			t.Fatalf("execution %d was call %d: issue order violated", i, v)
		}
	}
}

// TestInvokeAsyncOrderedBetweenPosts: a call with a result issued between
// two posts executes between them, and Wait covers it.
func TestInvokeAsyncOrderedBetweenPosts(t *testing.T) {
	p, l, _ := heldRemote(t)
	f := p.InvokeAsync("Echo", 2)
	p.Post("Note", 3)
	l.open()
	p.Wait()
	select {
	case <-f.Done():
	default:
		t.Error("Wait returned with the InvokeAsync issued before it still outstanding")
	}
	if got, err := f.Get(); err != nil || got != 2 {
		t.Errorf("Echo = %v, %v", got, err)
	}
	if got, want := l.order(), []int{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("executed in order %v, want %v", got, want)
	}
	if err := p.AsyncErr(); err != nil {
		t.Errorf("AsyncErr = %v", err)
	}
}

// TestDeclinedLaneEntryIsRerunInOrder: a lane entry the connection will not
// take when its turn comes, or whose connection dies under it, is finished
// by the blocking path while it still holds its turn: it resolves, and the
// entries behind it execute once each, in issue order.
func TestDeclinedLaneEntryIsRerunInOrder(t *testing.T) {
	t.Run("declined", func(t *testing.T) {
		p, l, _ := heldRemote(t)
		ctx, cancel := context.WithCancel(context.Background())
		gaveUp := p.InvokeAsyncCtx(ctx, "Echo", 2) // ctx ended at its turn
		p.Post("Note", 3)
		unsendable := p.InvokeAsync("Echo", make(chan int)) // encoder refuses it
		last := p.InvokeAsync("Echo", 4)
		cancel()
		if _, err := gaveUp.Get(); !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled entry = %v, want context.Canceled, and before its turn", err)
		}
		l.open()
		if _, err := unsendable.Get(); err == nil {
			t.Error("an argument no codec takes was accepted")
		}
		if got, err := last.Get(); err != nil || got != 4 {
			t.Errorf("entry behind the declined ones = %v, %v", got, err)
		}
		p.Wait()
		if got, want := l.order(), []int{1, 3, 4}; !reflect.DeepEqual(got, want) {
			t.Errorf("executed in order %v, want %v", got, want)
		}
	})
	t.Run("lane failed", func(t *testing.T) {
		p, l, rts := heldRemote(t)
		second := p.InvokeAsync("Echo", 2)
		p.Post("Note", 3)
		last := p.InvokeAsync("Echo", 4)
		// Every connection of the caller's node dies with Hold in flight.
		// The runtime sends Hold again (at least once, as for a blocking
		// call), into the mailbox the first one still occupies; whatever
		// was queued behind it must not be sent twice, nor pass it.
		rts[0].cfg.Channel.FailLanes()
		l.open()
		if got, err := second.Get(); err != nil || got != 2 {
			t.Errorf("Echo(2) = %v, %v", got, err)
		}
		if got, err := last.Get(); err != nil || got != 4 {
			t.Errorf("Echo(4) = %v, %v", got, err)
		}
		p.Wait()
		if got, want := l.order(), []int{1, 1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
			t.Errorf("executed in order %v, want %v", got, want)
		}
		if err := p.AsyncErr(); err != nil {
			t.Errorf("AsyncErr = %v", err)
		}
	})
}

// overlapObj has no lock of its own: it is correct only where the runtime
// keeps its calls serial.
type overlapObj struct {
	inside, overlaps, calls int
}

func (o *overlapObj) Enter() int {
	o.inside++
	if o.inside > 1 {
		o.overlaps++
	}
	time.Sleep(2 * time.Millisecond)
	o.inside--
	o.calls++
	return o.calls
}

// TestAgglomeratedInvokeAsyncIsSerial: an agglomerated object is passive,
// its calls execute serially in the caller, InvokeAsync included; under
// -race a call on another goroutine is also a data race on the object.
func TestAgglomeratedInvokeAsyncIsSerial(t *testing.T) {
	rt := startNodes(t, 1, func(i int, cfg *Config) {
		cfg.Agglomeration = AlwaysAgglomerate{}
	})[0]
	o := &overlapObj{}
	rt.RegisterClass("overlap", func() any { return o })
	p, err := rt.NewParallelObject("overlap")
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsAgglomerated() {
		t.Fatal("want an agglomerated object")
	}
	const n = 8
	futs := make([]*Future, n)
	for i := range futs {
		futs[i] = p.InvokeAsync("Enter")
		select {
		case <-futs[i].Done():
		default:
			t.Errorf("call %d had not completed when InvokeAsync returned", i)
		}
	}
	for i, f := range futs {
		if got, err := f.Get(); err != nil || got != i+1 {
			t.Errorf("call %d = %v, %v, want %d", i, got, err, i+1)
		}
	}
	if o.overlaps != 0 {
		t.Errorf("%d of %d calls entered the object while another was inside", o.overlaps, n)
	}
}

// TestCancelQueuedCallIsDeclined: a call cancelled (Future.Cancel, no
// context involved) while it waits behind a busy lane or a busy local
// mailbox resolves at once, is never executed, and the entries behind it
// keep their order.
func TestCancelQueuedCallIsDeclined(t *testing.T) {
	check := func(t *testing.T, p *Proxy, l *orderLog) {
		t.Helper()
		cancelled := p.InvokeAsync("Echo", 2)
		p.Post("Note", 3)
		last := p.InvokeAsync("Echo", 4)
		cancelled.Cancel()
		select {
		case <-cancelled.Done():
		default:
			t.Error("Cancel returned with the future unresolved")
		}
		if _, err := cancelled.Get(); err != context.Canceled {
			t.Errorf("cancelled entry = %v, want context.Canceled", err)
		}
		l.open()
		if got, err := last.Get(); err != nil || got != 4 {
			t.Errorf("entry behind the cancelled one = %v, %v", got, err)
		}
		p.Wait()
		// A request for the cancelled call, had one been sent, has nobody
		// waiting for it and may execute late: give it the time.
		time.Sleep(50 * time.Millisecond)
		if got, want := l.order(), []int{1, 3, 4}; !reflect.DeepEqual(got, want) {
			t.Errorf("executed in order %v, want %v", got, want)
		}
		if err := p.AsyncErr(); err != nil {
			t.Errorf("AsyncErr = %v", err)
		}
	}
	t.Run("lane", func(t *testing.T) {
		p, l, _ := heldRemote(t)
		check(t, p, l)
	})
	t.Run("mailbox", func(t *testing.T) {
		l := &orderLog{entered: make(chan struct{}, 4), release: make(chan struct{})}
		rt := startNodes(t, 1, nil)[0]
		rt.RegisterClass("orderlog", func() any { return l })
		t.Cleanup(l.open)
		p, err := rt.NewParallelObject("orderlog")
		if err != nil {
			t.Fatal(err)
		}
		if !p.IsLocal() || p.IsAgglomerated() {
			t.Fatal("want a local active object")
		}
		p.Post("Hold", 1)
		<-l.entered
		check(t, p, l)
	})
}

// TestStartAsyncOnCallerStorage: a call started in storage its caller
// supplies, one slab for the lot, behaves as InvokeAsyncCtx's does in every
// mode: each future lives in its slab entry, resolves to its own value, the
// calls execute once each, in issue order between InvokeAsyncCtx calls
// interleaved with them where the mode orders asynchronous calls (calls on
// an idle remote lane pipeline on the connection), and one cancelled while
// it waits resolves with context.Canceled and never runs.
func TestStartAsyncOnCallerStorage(t *testing.T) {
	single := func(mutate func(int, *Config)) func(t *testing.T) (*Proxy, *orderLog) {
		return func(t *testing.T) (*Proxy, *orderLog) {
			l := &orderLog{entered: make(chan struct{}, 4), release: make(chan struct{})}
			rt := startNodes(t, 1, mutate)[0]
			rt.RegisterClass("orderlog", func() any { return l })
			p, err := rt.NewParallelObject("orderlog")
			if err != nil {
				t.Fatal(err)
			}
			return p, l
		}
	}
	for _, mode := range []struct {
		name    string
		start   func(t *testing.T) (*Proxy, *orderLog)
		first   int  // the value the next call to execute carries
		waits   bool // calls wait behind a held one until the log opens
		ordered bool
	}{
		{"local", single(nil), 1, false, true},
		{"agglomerated", single(func(_ int, cfg *Config) { cfg.Agglomeration = AlwaysAgglomerate{} }), 1, false, true},
		{"remote", func(t *testing.T) (*Proxy, *orderLog) {
			p, l, _ := heldRemote(t)
			l.open()
			p.Wait()
			return p, l
		}, 2, false, false},
		{"remote behind a post", func(t *testing.T) (*Proxy, *orderLog) {
			p, l, _ := heldRemote(t)
			return p, l
		}, 2, true, true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			p, l := mode.start(t)
			const n = 32
			ctx := context.Background()
			slab := make([]AsyncCall, n)
			futs := make([]*Future, 2*n)
			for i := 0; i < n; i++ {
				futs[2*i] = p.StartAsync(ctx, &slab[i], nil, "Echo", []any{mode.first + 2*i})
				futs[2*i+1] = p.InvokeAsyncCtx(ctx, "Echo", mode.first+2*i+1)
				if futs[2*i] != &slab[i].fut {
					t.Fatalf("call %d: the future is not the one in the caller's storage", i)
				}
			}
			cancelled := -1
			if mode.waits {
				cancelled = 2 * 7
				futs[cancelled].Cancel()
				if _, err := futs[cancelled].Get(); !errors.Is(err, context.Canceled) {
					t.Errorf("cancelled while it waited: %v, want context.Canceled", err)
				}
				l.open()
			}
			var want []int
			for i := 1; i < mode.first; i++ {
				want = append(want, i) // heldRemote's Hold
			}
			for i, f := range futs {
				if i == cancelled {
					continue
				}
				v := mode.first + i
				want = append(want, v)
				if got, err := f.Get(); err != nil || got != v {
					t.Errorf("call %d = %v, %v, want %d", i, got, err, v)
				}
			}
			got := l.order()
			if !mode.ordered {
				sort.Ints(got)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("executed %v, want %v", got, want)
			}
		})
	}
}

// tokenObj answers with the idempotency token and the deadline its call
// carries, once tokenGate opens, and counts the calls it executed.
type tokenObj struct{ Calls int }

// tokenGate holds every Stamp until release closes. It is not the object's:
// a migrated object is rebuilt from its exported state.
var tokenGate struct{ entered, release chan struct{} }

func (o *tokenObj) Stamp(ctx context.Context) string {
	tokenGate.entered <- struct{}{}
	<-tokenGate.release
	o.Calls++
	stamp := "no token"
	if tok, ok := remoting.TokenFromContext(ctx); ok {
		stamp = fmt.Sprintf("%d/%d", tok.Client, tok.Seq)
	}
	if dl, ok := ctx.Deadline(); ok {
		return fmt.Sprintf("%s by %d", stamp, dl.UnixNano())
	}
	return stamp + ", no deadline"
}

// TestRerunKeepsItsToken: an asynchronous call whose first attempt fails
// recoverably is sent again with the token start stamped before that
// attempt, so the object executes it once, under that
// token and under its caller's deadline, and its host records it once (SPEC
// guarantee 2: the token rides every attempt). A frame reads both from the
// call's context when it is encoded, so the re-run sends what the first
// attempt sent. The first attempt meets a forwarding tombstone, or the
// caller's connection dies under it while the object executes it: the re-run
// then waits behind that execution in the mailbox and is answered from the
// record it leaves.
func TestRerunKeepsItsToken(t *testing.T) {
	for _, tc := range []struct {
		name           string
		host           int    // the node the call executes on
		gen            uint64 // the generation the proxy routes at after it
		before, during func(t *testing.T, rts []*Runtime, p *Proxy)
	}{
		{"forward", 2, 2, func(t *testing.T, rts []*Runtime, p *Proxy) {
			// Moved by its host, not through p: p still routes at node 1,
			// where the first attempt finds the tombstone.
			close(tokenGate.release)
			if err := rts[1].Migrate(p.URI(), 2); err != nil {
				t.Fatal(err)
			}
		}, func(*testing.T, []*Runtime, *Proxy) {}},
		{"node down", 1, 1, func(*testing.T, []*Runtime, *Proxy) {}, func(t *testing.T, rts []*Runtime, p *Proxy) {
			<-tokenGate.entered
			rts[0].cfg.Channel.FailLanes()
			close(tokenGate.release)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Room for every Stamp the test can cause, a duplicate included,
			// so that no execution blocks the actor on it.
			tokenGate.entered, tokenGate.release = make(chan struct{}, 4), make(chan struct{})
			rts := startNodes(t, 3, func(i int, cfg *Config) {
				cfg.Placement = &forceNode{node: 1}
				cfg.IdempotentCalls = true
			})
			for _, rt := range rts {
				rt.RegisterClass("tokens", func() any { return &tokenObj{} })
			}
			p, err := rts[0].NewParallelObject("tokens")
			if err != nil {
				t.Fatal(err)
			}
			if p.IsLocal() {
				t.Fatal("want a remote object")
			}
			tc.before(t, rts, p)
			deadline := time.Now().Add(time.Minute)
			ctx, cancel := context.WithDeadline(context.Background(), deadline)
			defer cancel()
			// The channel's tokens are sequential: start stamps the next one
			// into the record before the first attempt.
			tok := rts[0].cfg.Channel.NewCallToken()
			tok.Seq++
			var c AsyncCall
			f := p.StartAsync(ctx, &c, nil, "Stamp", nil)
			tc.during(t, rts, p)
			got, err := f.Get()
			if err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("%d/%d by %d", tok.Client, tok.Seq, deadline.UnixNano()); got != want {
				t.Errorf("the call was answered under %v, want %s: the token stamped before the first attempt, by its caller's deadline", got, want)
			}
			if gen := p.currentGen(); gen != tc.gen {
				t.Errorf("proxy routes at generation %d after the call, want %d", gen, tc.gen)
			}
			host := rts[tc.host]
			host.actorsMu.Lock()
			a := host.actors[p.URI()]
			host.actorsMu.Unlock()
			if a == nil {
				t.Fatal("the object's host holds no actor for it")
			}
			if _, ok := a.w.dedup.Get(tok); !ok || a.w.dedup.Len() != 1 {
				t.Errorf("host's dedup memory: %d entries, has the stamped token: %v; want exactly that one", a.w.dedup.Len(), ok)
			}
			if calls := a.w.obj.(*tokenObj).Calls; calls != 1 {
				t.Errorf("the object executed the call %d times, want once", calls)
			}
		})
	}
}
