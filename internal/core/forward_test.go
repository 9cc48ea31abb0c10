package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/errs"
	"repro/internal/remoting"
)

// shortenForwardIdle sets forwardIdle to d for one test. Call it before
// starting the test's nodes, so the interval is restored after they close.
func shortenForwardIdle(t *testing.T, d time.Duration) {
	t.Helper()
	old := forwardIdle
	forwardIdle = d
	t.Cleanup(func() { forwardIdle = old })
}

// callAt runs Len on uri at rt's server as a proxy that still holds rt's
// address does, from the channel of caller, and returns the call's error:
// nil when the object answered, ErrObjectMoved when a forward did,
// ErrObjectDestroyed when nothing is published there.
func callAt(caller, rt *Runtime, uri string) error {
	ref, err := remoting.GetObject(caller.cfg.Channel, rt.server.URLFor(uri))
	if err != nil {
		return err
	}
	_, err = ref.InvokeNestedCtx(context.Background(), "Invoke1", "Len", nil)
	return err
}

// TestIdleObjectStaysReachable: a remote actor and a virtual object, each
// called once and then left idle for three forward intervals, still answer,
// and their hosts still count them. Only a forward ages.
func TestIdleObjectStaysReachable(t *testing.T) {
	shortenForwardIdle(t, 100*time.Millisecond)
	rts := startNodes(t, 2, func(i int, cfg *Config) {
		cfg.Placement = &forceNode{node: 1}
	})
	registerJournal(rts)
	registerVirtualJournal(rts, VirtualConfig{})
	p, err := rts[0].NewParallelObject("journal")
	if err != nil {
		t.Fatal(err)
	}
	// A key owned by node 1, so that the virtual object is remote too.
	key := "idle"
	for owner, _ := rts[0].VirtualOwner("vjournal", key); owner != 1; owner, _ = rts[0].VirtualOwner("vjournal", key) {
		key += "+"
	}
	v, err := rts[0].VirtualObject("vjournal", key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke("Append", int64(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Invoke("Append", int64(1)); err != nil {
		t.Fatal(err)
	}
	loads := []int{rts[0].Load(), rts[1].Load()}

	time.Sleep(3 * forwardIdle)
	if n, err := p.Invoke("Len"); err != nil || n != 1 {
		t.Errorf("remote actor after idling: Len = %v, %v", n, err)
	}
	if n, err := v.Invoke("Len"); err != nil || n != 1 {
		t.Errorf("virtual object after idling: Len = %v, %v", n, err)
	}
	if got := []int{rts[0].Load(), rts[1].Load()}; got[0] != loads[0] || got[1] != loads[1] {
		t.Errorf("loads after idling = %v, want %v", got, loads)
	}
}

// TestForwardUnusedAges: a forward nobody calls is unpublished, and leaves
// its node's directory, within two forward intervals.
func TestForwardUnusedAges(t *testing.T) {
	shortenForwardIdle(t, 200*time.Millisecond)
	rts := startNodes(t, 3, func(i int, cfg *Config) {
		cfg.Placement = &forceNode{node: 1}
	})
	registerJournal(rts)
	p, err := rts[0].NewParallelObject("journal")
	if err != nil {
		t.Fatal(err)
	}
	uri := p.URI()
	if err := rts[1].Migrate(uri, 2); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * forwardIdle)
	if _, ok := rts[1].Lookup(uri); !ok {
		t.Fatal("the migration left no directory forward")
	}
	// Only the directory is polled: a call would use the forward.
	for {
		if _, ok := rts[1].Lookup(uri); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("directory forward still there after %v", 2*forwardIdle)
		}
		time.Sleep(forwardIdle / 20)
	}
	if err := callAt(rts[0], rts[1], uri); !errors.Is(err, errs.ErrObjectDestroyed) {
		t.Fatalf("call at the old host after the forward aged = %v, want nothing published", err)
	}
	// A handle that still names the old host finds the object by asking
	// its peers.
	if n, err := p.Invoke("Len"); err != nil || n != 0 {
		t.Errorf("stale handle after the forward aged: Len = %v, %v", n, err)
	}
}

// TestForwardHotStays: a forward called every quarter interval is still
// published, and still in its node's directory, after four intervals.
func TestForwardHotStays(t *testing.T) {
	shortenForwardIdle(t, 200*time.Millisecond)
	rts := startNodes(t, 3, func(i int, cfg *Config) {
		cfg.Placement = &forceNode{node: 1}
	})
	registerJournal(rts)
	p, err := rts[0].NewParallelObject("journal")
	if err != nil {
		t.Fatal(err)
	}
	uri := p.URI()
	if err := rts[1].Migrate(uri, 2); err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(4 * forwardIdle); time.Now().Before(end); {
		if err := callAt(rts[0], rts[1], uri); !errors.Is(err, errs.ErrObjectMoved) {
			t.Fatalf("call at the old host = %v, want its forward", err)
		}
		if loc, ok := rts[1].Lookup(uri); !ok || loc.Node != 2 {
			t.Fatalf("old host's directory = %+v, %v, want the forward to node 2", loc, ok)
		}
		time.Sleep(forwardIdle / 4)
	}
}

// TestForwardTimerLeavesNewcomer: the object migrates away and back home
// before its forward's timer fires; the timer leaves the object published
// at home and home's directory entry in place.
func TestForwardTimerLeavesNewcomer(t *testing.T) {
	shortenForwardIdle(t, 100*time.Millisecond)
	rts := startNodes(t, 2, func(i int, cfg *Config) {
		cfg.Placement = LocalOnly{}
	})
	registerJournal(rts)
	p, err := rts[0].NewParallelObject("journal")
	if err != nil {
		t.Fatal(err)
	}
	uri := p.URI()
	if err := rts[0].Migrate(uri, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Migrate(0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * forwardIdle)
	if err := callAt(rts[1], rts[0], uri); err != nil {
		t.Errorf("call at home after the old forward's timer fired: %v", err)
	}
	if loc, ok := rts[0].Lookup(uri); !ok || loc.Node != 0 {
		t.Errorf("home directory = %+v, %v, want node 0", loc, ok)
	}
	if rts[0].Load() != 1 {
		t.Errorf("home load = %d, want 1", rts[0].Load())
	}
}
