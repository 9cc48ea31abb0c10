package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/errs"
)

// parkedLocal hosts one gate object on a single node with an unbounded
// mailbox and parks its actor inside Block, so everything submitted
// meanwhile stays outstanding until g.release closes.
func parkedLocal(t *testing.T) (*Proxy, *gateObj) {
	t.Helper()
	rts, g := startGated(t, 1, 0, nil)
	p, err := rts[0].NewParallelObject("gate")
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsLocal() || p.IsAgglomerated() {
		t.Fatal("want a local active object")
	}
	occupy(t, g, p)
	return p, g
}

// outstandingSlack is how far the goroutine count may drift while calls are
// outstanding: runtime and test-harness goroutines come and go, calls must
// not add any.
const outstandingSlack = 8

// TestLocalInvokeAsyncParksNoGoroutine: futures on a local active object
// resolve from the actor loop, so ten thousand outstanding ones cost heap
// objects, not stacks.
func TestLocalInvokeAsyncParksNoGoroutine(t *testing.T) {
	p, g := parkedLocal(t)
	base := runtime.NumGoroutine()
	const n = 10000
	futs := make([]*Future, n)
	for i := range futs {
		futs[i] = p.InvokeAsync("Quick")
	}
	if d := runtime.NumGoroutine() - base; d > outstandingSlack {
		t.Errorf("%d outstanding local InvokeAsync calls hold %d extra goroutines", n, d)
	}
	close(g.release)
	for i, f := range futs {
		if got, err := f.Get(); err != nil || got != 2 {
			t.Fatalf("call %d = %v, %v", i, got, err)
		}
	}
}

// TestLocalPostParksNoGoroutine: the same for fire-and-forget posts, and a
// post that fails still reaches AsyncErr — by the time Wait returns.
func TestLocalPostParksNoGoroutine(t *testing.T) {
	p, g := parkedLocal(t)
	base := runtime.NumGoroutine()
	const n = 10000
	for i := 0; i < n; i++ {
		p.Post("Quick")
	}
	p.Post("NoSuchMethod")
	if d := runtime.NumGoroutine() - base; d > outstandingSlack {
		t.Errorf("%d outstanding local posts hold %d extra goroutines", n, d)
	}
	close(g.release)
	p.Wait()
	if err := p.AsyncErr(); !errors.Is(err, errs.ErrNoSuchMethod) {
		t.Errorf("AsyncErr after Wait = %v, want the failed post's ErrNoSuchMethod", err)
	}
}

// TestAbandonedWaitParksNoGoroutine: a WaitCtx that gives up on its
// deadline while the mailbox is busy leaves nothing waiting for the mailbox
// behind it, and a ctx that has ended is the answer even once the mailbox
// is drained.
func TestAbandonedWaitParksNoGoroutine(t *testing.T) {
	p, g := parkedLocal(t)
	base := runtime.NumGoroutine()
	const n = 100
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		err := p.WaitCtx(ctx)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("wait %d on a busy mailbox = %v, want its deadline", i, err)
		}
	}
	if d := runtime.NumGoroutine() - base; d > outstandingSlack {
		t.Errorf("%d abandoned waits hold %d extra goroutines", n, d)
	}
	close(g.release)
	if err := p.WaitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	ended, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.WaitCtx(ended); !errors.Is(err, context.Canceled) {
		t.Errorf("wait with an ended ctx on a drained mailbox = %v, want context.Canceled", err)
	}
}

// TestLocalInvokeAsyncOnDestroyedObject: a submission the mailbox refuses
// resolves the future with the refusal.
func TestLocalInvokeAsyncOnDestroyedObject(t *testing.T) {
	rts := startNodes(t, 1, nil)
	p, err := rts[0].NewParallelObject("counter")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Destroy(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.InvokeAsync("Total").Get(); !errors.Is(err, errs.ErrObjectDestroyed) {
		t.Errorf("InvokeAsync on a destroyed object = %v, want ErrObjectDestroyed", err)
	}
}
