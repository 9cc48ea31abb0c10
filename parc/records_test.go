package parc

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/remoting"
)

// TestCallRecordsAccountedForAcrossWaves is remoting's
// TestCallRecordsAccountedFor for Scatter waves: every record drawn while a
// wave runs, both ends' and each member's attempt, goes back to its store or
// is let go on purpose, so that once the wave is over drawn equals returned
// plus let go. The four waves end every way a member can: answered;
// cancelled in flight, against objects that hold the calls; cut off by the
// caller's node closing under them, and failed, not re-run; and given up at their
// deadline, whose end fires the lanes' hooks on the members' context.
func TestCallRecordsAccountedForAcrossWaves(t *testing.T) {
	const members = 16
	// wave installs a record audit, starts a cluster whose objects sit on
	// node 1 behind a closed gate, and scatters method over members objects
	// from node 0; a wave of Hold is handed back once every member holds.
	// The audit comes first, so that it counts the cluster's channels, and
	// the objects' creation whole: a server gives its record back after its
	// reply is on its way.
	wave := func(t *testing.T, ctx context.Context, method string) (*Cluster, *gateState, []*Result[int], func() error) {
		t.Helper()
		check := remoting.AuditRecords()
		cl, err := StartCluster(WithNodes(2), WithPlacement(&pinNode{node: 1}))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		Register[Gated](cl, "gated")
		g, err := NewGroup[Gated](cl, "gated", members)
		if err != nil {
			t.Fatal(err)
		}
		gs := newGate(t, -1)
		rs := Scatter[int](ctx, g, method, func(i int) []any { return []any{i} })
		if method == "Hold" {
			gs.awaitEntered(t, members)
		}
		return cl, gs, rs, check
	}
	// settled checks each member's outcome with want.
	settled := func(t *testing.T, rs []*Result[int], want func(i, v int, err error) bool) {
		t.Helper()
		for i, r := range rs {
			if v, err := r.Get(within(t, 10*time.Second)); !want(i, v, err) {
				t.Errorf("member %d = %v, %v", i, v, err)
			}
		}
	}
	// balanced checks that every record is accounted for.
	balanced := func(t *testing.T, check func() error) {
		t.Helper()
		if err := check(); err != nil {
			t.Error(err)
		}
	}
	t.Run("answered", func(t *testing.T) {
		_, _, rs, check := wave(t, context.Background(), "Echo")
		settled(t, rs, func(i, v int, err error) bool { return err == nil && v == i })
		balanced(t, check)
	})
	t.Run("cancelled in flight", func(t *testing.T) {
		_, gs, rs, check := wave(t, context.Background(), "Hold")
		for _, r := range rs {
			r.fut().Cancel()
		}
		settled(t, rs, func(_, _ int, err error) bool { return errors.Is(err, context.Canceled) })
		gs.release() // the objects answer; the replies are dropped
		balanced(t, check)
	})
	t.Run("cut off by Close", func(t *testing.T) {
		// The caller's node closes its connections under the wave: each
		// member's lane fails with the call in flight, and the member fails
		// with ErrNodeDown. It is not re-run: a re-run would dial node 1
		// afresh from the closed node and execute the call there again.
		cl, gs, rs, check := wave(t, context.Background(), "Hold")
		cl.Node(0).Close()
		gs.release()
		settled(t, rs, func(_, _ int, err error) bool { return errors.Is(err, ErrNodeDown) })
		// Every Hold that reaches an object enters the gate; the wave's own
		// 16 were taken by awaitEntered, and a re-run would have entered it
		// before its member resolved.
		if n := len(gs.entered); n != 0 {
			t.Errorf("node 1 executed %d more calls after node 0 closed: members were re-run", n)
		}
		balanced(t, check)
	})
	t.Run("under a deadline", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		_, gs, rs, check := wave(t, ctx, "Hold")
		settled(t, rs, func(_, _ int, err error) bool { return errors.Is(err, context.DeadlineExceeded) })
		gs.release() // the objects answer; the replies are dropped
		balanced(t, check)
	})
}
