package core

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/errs"
	"repro/internal/racetest"
	"repro/internal/remoting"
)

// These tests hold the rows of the rule that sends a remote call again
// (attempt.again) that no other test holds: SPEC.md's outcome × action
// table names a test for every row.

// moved is what every copy of a movingTwice shares: a migrated object is
// rebuilt from its exported state, so the copies share nothing else. It
// notes the argument of every Twice run, and a Hold waits on release, having
// said so on entered. staleHandles resets it.
var moved struct {
	mu               sync.Mutex
	ran              []int
	entered, release chan struct{}
}

type movingTwice struct{}

func (*movingTwice) Hold() {
	moved.entered <- struct{}{}
	<-moved.release
}

func (*movingTwice) Twice(v int) int {
	moved.mu.Lock()
	moved.ran = append(moved.ran, v)
	moved.mu.Unlock()
	return 2 * v
}

// runs returns the arguments of the Twice calls run so far.
func runs() []int {
	moved.mu.Lock()
	defer moved.mu.Unlock()
	return slices.Clone(moved.ran)
}

// staleHandles starts three nodes with a movingTwice object created on node
// 1 and moved to node 2 by mover, node 2's handle, and returns n handles of
// node 0's that still route at node 1.
func staleHandles(t *testing.T, n int) (handles []*Proxy, mover *Proxy, rts []*Runtime) {
	t.Helper()
	moved.ran, moved.entered, moved.release = nil, make(chan struct{}, 1), make(chan struct{})
	rts = startNodes(t, 3, func(_ int, cfg *Config) { cfg.Placement = &forceNode{node: 1} })
	for _, rt := range rts {
		rt.RegisterClass("movingtwice", func() any { return &movingTwice{} })
	}
	p, err := rts[0].NewParallelObject("movingtwice")
	if err != nil {
		t.Fatal(err)
	}
	if p.IsLocal() {
		t.Fatal("want a remote object")
	}
	ref := p.Ref()
	mover = rts[2].Attach(ref)
	if err := mover.Migrate(2); err != nil {
		t.Fatal(err)
	}
	for range n {
		handles = append(handles, rts[0].Attach(ref))
	}
	return handles, mover, rts
}

// hold parks the object in a Hold that mover posts, until the test ends or
// let.
func hold(t *testing.T, mover *Proxy) {
	t.Helper()
	mover.Post("Hold")
	select {
	case <-moved.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("Hold never started running")
	}
	t.Cleanup(let)
}

// let lets every Hold through.
func let() {
	moved.mu.Lock()
	defer moved.mu.Unlock()
	select {
	case <-moved.release:
	default:
		close(moved.release)
	}
}

// TestRerunsAfterMigrationParkNoGoroutine: a call that meets a forward is
// sent again from its completion, so a hundred calls re-run behind an object
// held at its new host hold no goroutine while they wait there, each on a
// handle of its own (before, each re-run held one for as long as it took:
// 100 extra). Each re-run decodes into its call's typed slot.
func TestRerunsAfterMigrationParkNoGoroutine(t *testing.T) {
	const n = 100
	handles, mover, rts := staleHandles(t, n)
	hold(t, mover)
	base := runtime.NumGoroutine()
	wave := make([]twiceSlot, n)
	futs := make([]*Future, n)
	for i, p := range handles {
		futs[i] = p.StartAsync(context.Background(), &wave[i], &wave[i], "Twice", []any{i})
	}
	waitQueued(t, rts[2], n)
	if d := runtime.NumGoroutine() - base; d > outstandingSlack {
		t.Errorf("%d calls re-run behind a held object hold %d extra goroutines", n, d)
	}
	let()
	checkWave(t, "re-run", futs, wave, 0, never)
	for i, p := range handles {
		if gen := p.currentGen(); gen < 2 {
			t.Fatalf("handle %d routes at generation %d after its call, want the forward's", i, gen)
		}
	}
}

// TestAllocBudgetRerunAfterMigration: a call that meets a forward costs what
// a first-try call costs, plus following the forward: the forward's error
// reply and the endpoint built at the new location. Before, a re-run also
// paid a goroutine, a blocking call's loop and a reply decoded untyped and
// converted.
func TestAllocBudgetRerunAfterMigration(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	handles, _, rts := staleHandles(t, 1)
	p := handles[0]
	var slot twiceSlot
	call := func() {
		slot = twiceSlot{}
		if v, err := p.StartAsync(context.Background(), &slot, &slot, "Twice", []any{21}).Get(); err != nil || v != any(&slot) || slot.v != 42 {
			t.Fatalf("Twice(21) = %v, %v, slot %d", v, err, slot.v)
		}
	}
	call() // follows the forward once
	stale := ObjLoc{Node: 1, Addr: rts[1].Addr(), Gen: 1}
	staleRef := remoting.NewObjRef(p.rt.cfg.Channel, stale.Addr, p.uri)
	toStale := func() {
		p.mu.Lock()
		p.netaddr, p.gen, p.ref = stale.Addr, stale.Gen, staleRef
		p.mu.Unlock()
	}
	for range 4 {
		call()
		toStale()
		call()
	}
	first := testing.AllocsPerRun(200, call)
	rerun := testing.AllocsPerRun(200, func() {
		toStale()
		call()
	})
	// The forward, at both ends (it measures 14 over mem://): the
	// tombstone's refusal and its error reply, decoded into a *remoteError
	// with its *MovedError and strings, movedOf's errors.As, the directory
	// update and the ObjRef built at the new location. A re-run on a
	// goroutine of its own through a blocking loop measured 28.
	const forward = 16
	if rerun > first+forward {
		t.Errorf("a call re-run after a migration: %.0f allocs, a first-try call %.0f; budget %d more", rerun, first, forward)
	} else {
		t.Logf("a call re-run after a migration: %.0f allocs, a first-try call %.0f", rerun, first)
	}
}

// TestChannelCloseSendsNothingAgain: a bare Channel.Close fails a blocking
// and an asynchronous call it finds in flight alike, with an error wrapping
// ErrNodeDown, and sends neither again: once the object is let go it runs
// the call once. (Before, the asynchronous call was re-run on a fresh dial,
// behind the held object, and ran twice.)
func TestChannelCloseSendsNothingAgain(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(p *Proxy) (done <-chan struct{}, err func() error)
	}{
		{"asynchronous", func(p *Proxy) (<-chan struct{}, func() error) {
			f := p.InvokeAsync("Twice", 1)
			return f.Done(), func() error { _, err := f.Get(); return err }
		}},
		{"blocking", func(p *Proxy) (<-chan struct{}, func() error) {
			done := make(chan struct{})
			var err error
			go func() {
				defer close(done)
				_, err = p.Invoke("Twice", 1)
			}()
			return done, func() error { return err }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			handles, mover, rts := staleHandles(t, 1)
			p := handles[0]
			if _, err := p.Invoke("Twice", 0); err != nil { // follow the forward first
				t.Fatal(err)
			}
			hold(t, mover)
			done, callErr := tc.call(p)
			waitQueued(t, rts[2], 1)
			rts[0].cfg.Channel.Close()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("the call is still pending 5 s after Close")
			}
			if err := callErr(); !errors.Is(err, errs.ErrNodeDown) {
				t.Errorf("call after Close = %v, want ErrNodeDown", err)
			}
			let()
			for deadline := time.Now().Add(5 * time.Second); rts[2].queuedTasks.Load() > 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the object never drained")
				}
			}
			if ran := runs(); !slices.Equal(ran, []int{0, 1}) {
				t.Errorf("the object ran Twice of %v, want [0 1]: the call once", ran)
			}
		})
	}
}

// TestCloseEndsRetryBackoff: an asynchronous call that a bounded mailbox
// sheds waits out the retry policy's backoff on a timer, and the runtime's
// Close ends the wait at once: the call fails with the close error, wrapping
// ErrNodeDown, and is not sent again.
func TestCloseEndsRetryBackoff(t *testing.T) {
	h := &heldTwice{entered: make(chan struct{}, 1), release: make(chan struct{})}
	defer close(h.release)
	rts := startNodes(t, 2, func(_ int, cfg *Config) {
		cfg.Placement = &forceNode{node: 1}
		cfg.MailboxBound = 1
		cfg.Channel.Retry = remoting.RetryPolicy{MaxAttempts: 1000}
	})
	for _, rt := range rts {
		rt.RegisterClass("heldtwice", func() any { return h })
	}
	p, err := rts[0].NewParallelObject("heldtwice")
	if err != nil {
		t.Fatal(err)
	}
	holder := rts[1].Attach(p.Ref())
	holder.Post("Hold")
	<-h.entered
	holder.Post("Twice", 0) // the one queued call the mailbox takes
	waitQueued(t, rts[1], 1)
	f := p.InvokeAsync("Twice", 1)
	for deadline := time.Now().Add(5 * time.Second); rts[1].Stats().MailboxSheds == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the call was never shed")
		}
	}
	rts[0].Close()
	select {
	case <-f.Done():
	case <-time.After(time.Second):
		t.Fatal("a call waiting out its backoff outlived Close")
	}
	if _, err := f.Get(); !errors.Is(err, errs.ErrNodeDown) {
		t.Errorf("call ended by Close = %v, want the close error, wrapping ErrNodeDown", err)
	}
}

// TestReresolveAfterNodeDown: a call whose host is gone (its dial refused)
// re-resolves the object once through the peers and goes where they say,
// blocking and asynchronous alike.
func TestReresolveAfterNodeDown(t *testing.T) {
	handles, _, rts := staleHandles(t, 2)
	rts[1].Close()
	if v, err := handles[0].Invoke("Twice", 3); err != nil || v != 6 {
		t.Errorf("blocking call to a node that went down = %v, %v, want 6", v, err)
	}
	if v, err := handles[1].InvokeAsync("Twice", 4).Get(); err != nil || v != 8 {
		t.Errorf("asynchronous call to a node that went down = %v, %v, want 8", v, err)
	}
}
