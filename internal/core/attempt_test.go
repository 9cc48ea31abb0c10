package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/remoting"
	"repro/internal/wire"
)

// poisonedAttempts turns attempt poisoning on for the rest of t (attempts)
// and installs a fresh record audit, which counts the channels t makes from
// then on. When t ends, after whatever t closes on its way out, it checks
// that every record either end drew, the attempts included, went back or
// was let go.
func poisonedAttempts(t *testing.T) {
	t.Helper()
	check := remoting.AuditRecords()
	attemptPoison.Store(true)
	t.Cleanup(func() {
		defer attemptPoison.Store(false)
		if err := check(); err != nil {
			t.Error(err)
		}
	})
}

// twiceSlot is a caller's record of one asynchronous call with a typed slot,
// as a parc Result is: the reply is decoded into v, and the call's Future
// resolves with the slot.
type twiceSlot struct {
	AsyncCall
	v int
}

func (s *twiceSlot) DecodeResult(d *wire.Decoder) bool { return d.ValueInto(&s.v) }

func (s *twiceSlot) Settle(v any) (any, error) {
	if v != any(s) {
		n, ok := v.(int)
		if !ok {
			return nil, fmt.Errorf("twiceSlot: a %T", v)
		}
		s.v = n
	}
	return s, nil
}

// remoteProbe returns node 0's proxy for a probe object on node 1.
func remoteProbe(t *testing.T) (*Proxy, []*Runtime) {
	t.Helper()
	rts := startNodes(t, 2, func(_ int, cfg *Config) { cfg.Placement = &forceNode{node: 1} })
	return probeOn(t, rts, false, false), rts
}

// startWave starts Twice(base+i) for each member of wave, in its own storage.
func startWave(p *Proxy, ctxFor func(i int) context.Context, wave []twiceSlot, base int) []*Future {
	futs := make([]*Future, len(wave))
	for i := range wave {
		futs[i] = p.StartAsync(ctxFor(i), &wave[i], &wave[i], "Twice", []any{base + i})
	}
	return futs
}

// checkWave fails t unless every member of wave that was not given up on
// resolved with its own slot holding Twice of its own argument; given up
// reports the errors a member may end with instead.
func checkWave(t *testing.T, what string, futs []*Future, wave []twiceSlot, base int, givenUp func(error) bool) {
	t.Helper()
	for i, f := range futs {
		v, err := f.Get()
		switch {
		case err != nil && givenUp(err):
		case err != nil:
			t.Fatalf("%s member %d: %v", what, i, err)
		case v != any(&wave[i]):
			t.Fatalf("%s member %d resolved with %v, not its own slot", what, i, v)
		case wave[i].v != 2*(base+i):
			t.Fatalf("%s member %d: Twice(%d) = %d", what, i, base+i, wave[i].v)
		}
	}
}

// never is a givenUp that allows no error.
func never(error) bool { return false }

// heldTwice is a probe whose mailbox a test can park: Hold waits for a
// token on release, having said so on entered.
type heldTwice struct{ entered, release chan struct{} }

func (h *heldTwice) Hold()           { h.entered <- struct{}{}; <-h.release }
func (h *heldTwice) Twice(v int) int { return 2 * v }

// TestAttemptReuseCancelRacingReply: a member's Future cancelled while its
// reply lands is resolved by the Cancel, which reads the call's record after
// that, to abandon the exchange, so the attempt must not go back to its
// store; one the reply resolved first goes back. In each round a fresh wave
// draws whatever came back, and every one of its calls must resolve with its
// own result in its own slot. "racing" cancels a wave as its replies land;
// "abandon after the reply" takes each Cancel apart where the race is: the
// Future resolves first, the replies land and complete, a fresh wave is in
// flight behind a parked mailbox, and only then does each Cancel abandon
// the record it was handed, which must be its own call's still.
func TestAttemptReuseCancelRacingReply(t *testing.T) {
	const rounds, members = 100, 32
	background := func(int) context.Context { return context.Background() }
	cancelled := func(err error) bool { return errors.Is(err, context.Canceled) }
	t.Run("racing", func(t *testing.T) {
		poisonedAttempts(t)
		p, _ := remoteProbe(t)
		for r := 0; r < rounds; r++ {
			raced := make([]twiceSlot, members)
			futs := startWave(p, background, raced, 0)
			var cancels sync.WaitGroup
			cancels.Add(1)
			go func() {
				defer cancels.Done()
				for i, f := range futs {
					if i%4 == r%4 {
						runtime.Gosched()
					}
					f.Cancel()
				}
			}()
			fresh := make([]twiceSlot, members)
			base := 1000 * (r + 1)
			checkWave(t, "fresh", startWave(p, background, fresh, base), fresh, base, never)
			cancels.Wait()
			checkWave(t, "cancelled", futs, raced, 0, cancelled)
		}
	})
	t.Run("abandon after the reply", func(t *testing.T) {
		poisonedAttempts(t)
		h := &heldTwice{entered: make(chan struct{}), release: make(chan struct{})}
		rts := startNodes(t, 2, func(_ int, cfg *Config) { cfg.Placement = &forceNode{node: 1} })
		for _, rt := range rts {
			rt.RegisterClass("heldtwice", func() any { return h })
		}
		p, err := rts[0].NewParallelObject("heldtwice")
		if err != nil {
			t.Fatal(err)
		}
		abandoned := 0
		for r := 0; r < rounds; r++ {
			raced := make([]twiceSlot, members)
			futs := startWave(p, background, raced, 0)
			var aborts []canceller
			for _, f := range futs {
				if won, abort := f.completeAt(nil, context.Canceled, 0); won && abort != nil {
					aborts = append(aborts, abort)
				}
			}
			p.Wait()
			hold := p.InvokeAsync("Hold")
			<-h.entered
			fresh := make([]twiceSlot, members)
			base := 1000 * (r + 1)
			freshFuts := startWave(p, background, fresh, base)
			for _, abort := range aborts {
				abort.Cancel()
			}
			abandoned += len(aborts)
			h.release <- struct{}{}
			if _, err := hold.Get(); err != nil {
				t.Fatal(err)
			}
			checkWave(t, "fresh", freshFuts, fresh, base, never)
		}
		if abandoned == 0 {
			t.Fatal("no Future was resolved by its Cancel before its reply landed")
		}
		t.Logf("%d of %d calls abandoned after their replies landed", abandoned, rounds*members)
	})
}

// TestAttemptReuseHookFiringAsReplyLands: a member whose context ends while
// its reply lands has the lane's context.AfterFunc hook fire, which cancels
// the record it was put on, and may still be running when the reply's
// completion detaches it; that attempt must not go back to its store. A
// fresh wave issued at once, under a context that never ends, must resolve
// every call with its own result in its own slot.
func TestAttemptReuseHookFiringAsReplyLands(t *testing.T) {
	poisonedAttempts(t)
	p, _ := remoteProbe(t)
	background := func(int) context.Context { return context.Background() }
	const rounds, members = 100, 32
	for r := 0; r < rounds; r++ {
		ctxs := make([]context.Context, members)
		stops := make([]context.CancelFunc, members)
		for i := range ctxs {
			ctxs[i], stops[i] = context.WithCancel(context.Background())
		}
		raced := make([]twiceSlot, members)
		futs := startWave(p, func(i int) context.Context { return ctxs[i] }, raced, 0)
		var ends sync.WaitGroup
		ends.Add(1)
		go func() {
			defer ends.Done()
			for i, stop := range stops {
				if i%4 == r%4 {
					runtime.Gosched()
				}
				stop()
			}
		}()
		fresh := make([]twiceSlot, members)
		base := 1000 * (r + 1)
		checkWave(t, "fresh", startWave(p, background, fresh, base), fresh, base, never)
		ends.Wait()
		checkWave(t, "hooked", futs, raced, 0, func(err error) bool { return errors.Is(err, context.Canceled) })
	}
}

// TestAttemptReuseRerunAfterLaneFails: members whose lane fails under them
// are sent again from their completion, on the same attempt, and go back to
// their store from there; the connection that failed them, and a hook on
// their context, must be done with them by then. Each round fails the
// caller's connections (FailLanes) while a wave is in flight and issues a
// fresh wave behind it: every member of both waves must resolve with its own
// result in its own slot.
func TestAttemptReuseRerunAfterLaneFails(t *testing.T) {
	poisonedAttempts(t)
	p, rts := remoteProbe(t)
	const rounds, members = 100, 16
	for r := 0; r < rounds; r++ {
		// Half the members carry a context that can end, so the lane puts a
		// hook on it; none ends.
		ctx, cancel := context.WithCancel(context.Background())
		ctxFor := func(i int) context.Context {
			if i%2 == 0 {
				return ctx
			}
			return context.Background()
		}
		failed := make([]twiceSlot, members)
		closed := make(chan struct{})
		go func() {
			rts[0].cfg.Channel.FailLanes()
			close(closed)
		}()
		futs := startWave(p, ctxFor, failed, 0)
		<-closed
		fresh := make([]twiceSlot, members)
		base := 1000 * (r + 1)
		freshFuts := startWave(p, ctxFor, fresh, base)
		checkWave(t, "failed", futs, failed, 0, never)
		checkWave(t, "fresh", freshFuts, fresh, base, never)
		cancel()
	}
}
