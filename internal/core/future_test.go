package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFutureDoneIsOneChannel: a waiter's channel is one of the future's
// continuations, so Done gives the channel it registered on every call while
// the future is pending, the resolution closes that channel, and every Done
// after it gives the one closed channel of every resolved future.
func TestFutureDoneIsOneChannel(t *testing.T) {
	f := &Future{}
	before := f.Done()
	if again := f.Done(); again != before {
		t.Fatal("Done on a pending future gave a second channel")
	}
	select {
	case <-before:
		t.Fatal("a pending future's Done is closed")
	default:
	}
	f.complete(7, nil)
	select {
	case <-before:
	default:
		t.Fatal("the resolution left the waiter's channel open")
	}
	after := f.Done()
	if after != (<-chan struct{})(resolvedDone) || f.Done() != after {
		t.Error("Done on a resolved future is not the resolved futures' channel")
	}
	if v, err := f.Get(); v != 7 || err != nil {
		t.Errorf("Get = %v, %v, want 7", v, err)
	}
}

// countedAggregate is an Aggregate that counts what it is told.
type countedAggregate struct{ told atomic.Int32 }

func (c *countedAggregate) MemberDone(int, any, error) { c.told.Add(1) }

// countedStep is a Step that counts its runs and passes the outcome on.
type countedStep struct {
	AsyncCall
	ran atomic.Int32
}

func (c *countedStep) Then(v any, err error) (any, error) {
	c.ran.Add(1)
	return v, err
}

// TestFutureDeliversEachOnce: a future with an aggregate registered under
// an index (OnCompleteAt), a derived future (ThenInto) and two waiters
// (Done, Get) tells each continuation once and closes the waiters' channel
// once, and a second resolution, or a Cancel after the first, tells nobody
// anything.
func TestFutureDeliversEachOnce(t *testing.T) {
	f := &Future{}
	agg, step := &countedAggregate{}, &countedStep{}
	f.OnCompleteAt(5, agg)
	child := f.ThenInto(step)
	d1, d2 := f.Done(), f.Done()
	if d1 != d2 {
		t.Fatal("two waiters were given two channels")
	}
	var waiters sync.WaitGroup
	got := make([]any, 2)
	for i := range got {
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			got[i], _ = f.Get()
		}()
	}
	f.complete("v", nil) // a second close of the waiters' channel would panic
	f.complete("w", nil)
	f.Cancel()
	waiters.Wait()
	if n := agg.told.Load(); n != 1 {
		t.Errorf("the aggregate was told %d times, want 1", n)
	}
	if n := step.ran.Load(); n != 1 {
		t.Errorf("the derived future's step ran %d times, want 1", n)
	}
	if v, err := child.Get(); v != "v" || err != nil {
		t.Errorf("derived future = %v, %v, want v", v, err)
	}
	for i, v := range got {
		if v != "v" {
			t.Errorf("waiter %d got %v, want v", i, v)
		}
	}
	if v, err := f.Get(); v != "v" || err != nil {
		t.Errorf("the future = %v, %v after a second resolution and a Cancel, want v", v, err)
	}
}

// TestFutureCancelRacingDoneWaiter: a Cancel and a reply racing a waiter
// that registers its channel (Done) as they land: the waiter wakes, reads the
// outcome that won, and the future keeps it. Run it under -race.
func TestFutureCancelRacingDoneWaiter(t *testing.T) {
	for i := 0; i < 2000; i++ {
		f := &Future{}
		var wg sync.WaitGroup
		wg.Add(3)
		var seen any
		var seenErr error
		go func() {
			defer wg.Done()
			<-f.Done()
			seen, seenErr = f.Get()
		}()
		go func() {
			defer wg.Done()
			f.Cancel()
		}()
		go func() {
			defer wg.Done()
			f.complete(i, nil)
		}()
		wg.Wait()
		v, err := f.Get()
		if seen != v || seenErr != err {
			t.Fatalf("round %d: the waiter read %v, %v; the future holds %v, %v", i, seen, seenErr, v, err)
		}
		if !errors.Is(err, context.Canceled) && v != i {
			t.Fatalf("round %d: the future holds %v, %v, want the reply or context.Canceled", i, v, err)
		}
	}
}
