package parc_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/parc"
)

// flaky is the combinator-test workload class: Echo succeeds, Fail errors
// after an optional delay, and Park blocks until its request context ends.
type flaky struct{}

// Echo returns its argument.
func (flaky) Echo(v int) int { return v }

// Fail sleeps millis and then errors with the given tag.
func (flaky) Fail(millis int, tag string) error {
	time.Sleep(time.Duration(millis) * time.Millisecond)
	return fmt.Errorf("flaky: %s", tag)
}

// Park blocks until the injected request context is cancelled.
func (flaky) Park(ctx context.Context) error {
	<-ctx.Done()
	return ctx.Err()
}

// startFlaky boots a 2-node cluster and returns one flaky object. Each
// object is one actor — method calls on it serialize — so tests that park
// a call (Park) must put it on its own object via newFlaky.
func startFlaky(t *testing.T) (*parc.Cluster, *parc.Object[flaky]) {
	t.Helper()
	cl, err := parc.StartCluster(parc.WithNodes(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	parc.Register[flaky](cl, "flaky")
	return cl, newFlaky(t, cl)
}

func newFlaky(t *testing.T, cl *parc.Cluster) *parc.Object[flaky] {
	t.Helper()
	obj, err := parc.New[flaky](cl, "flaky")
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// TestThenAfterResolved attaches a continuation to a Result that already
// completed: it must still run (inline, on the subscriber's goroutine) and
// feed the derived Result.
func TestThenAfterResolved(t *testing.T) {
	ctx := context.Background()
	_, obj := startFlaky(t)
	res := parc.CallAsync[int](ctx, obj, "Echo", 21)
	if v, err := res.Get(ctx); err != nil || v != 21 {
		t.Fatalf("Get = %d, %v; want 21, nil", v, err)
	}
	doubled := parc.Then(res, func(v int) (int, error) { return v * 2, nil })
	if v, err := doubled.Get(ctx); err != nil || v != 42 {
		t.Fatalf("Then after resolved = %d, %v; want 42, nil", v, err)
	}
}

// TestThenErrorSkipsAndCatchRecovers chains a failing continuation into a
// Catch: Then's error must skip further Thens and Catch must recover it.
func TestThenErrorSkipsAndCatchRecovers(t *testing.T) {
	ctx := context.Background()
	_, obj := startFlaky(t)
	boom := errors.New("boom")
	res := parc.CallAsync[int](ctx, obj, "Echo", 1)
	failed := parc.Then(res, func(int) (int, error) { return 0, boom })
	skipped := parc.Then(failed, func(int) (int, error) {
		t.Error("Then ran after an upstream error")
		return 0, nil
	})
	recovered := skipped.Catch(func(err error) (int, error) {
		if !errors.Is(err, boom) {
			t.Errorf("Catch saw %v, want boom", err)
		}
		return 99, nil
	})
	if v, err := recovered.Get(ctx); err != nil || v != 99 {
		t.Fatalf("Catch = %d, %v; want 99, nil", v, err)
	}
}

// TestContinuationPanicContained panics inside a Then: the derived Result
// must resolve with an error instead of crashing the completion goroutine.
func TestContinuationPanicContained(t *testing.T) {
	ctx := context.Background()
	_, obj := startFlaky(t)
	res := parc.CallAsync[int](ctx, obj, "Echo", 7)
	derived := parc.Then(res, func(int) (int, error) { panic("kaboom") })
	_, err := derived.Get(ctx)
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic continuation: err = %v, want contained panic", err)
	}
}

// TestWhenAllErrorOrder fails two of three inputs — one slowly, one
// immediately (unknown method, which never starts) — and checks the joined
// error lists failures in input order, not completion order.
func TestWhenAllErrorOrder(t *testing.T) {
	ctx := context.Background()
	_, obj := startFlaky(t)
	slow := parc.CallAsync[any](ctx, obj, "Fail", 50, "slow-first")
	fast := parc.CallAsync[any](ctx, obj, "NoSuchMethod")
	ok := parc.CallAsync[any](ctx, obj, "Echo", 1)
	_, err := parc.WhenAll(slow, fast, ok).Get(ctx)
	if err == nil {
		t.Fatal("WhenAll with failures returned nil error")
	}
	msg := err.Error()
	i, j := strings.Index(msg, "slow-first"), strings.Index(msg, "NoSuchMethod")
	if i < 0 || j < 0 {
		t.Fatalf("joined error missing a failure: %q", msg)
	}
	if i > j {
		t.Fatalf("joined error out of input order: %q", msg)
	}
}

// TestWhenAllEmptyAndSuccess covers the zero-input case and in-order value
// collection when completions land out of order (a slow echo first in the
// input).
func TestWhenAllEmptyAndSuccess(t *testing.T) {
	ctx := context.Background()
	if vals, err := parc.WhenAll[int]().Get(ctx); err != nil || len(vals) != 0 {
		t.Fatalf("WhenAll() = %v, %v; want [], nil", vals, err)
	}
	_, obj := startFlaky(t)
	rs := make([]*parc.Result[int], 4)
	for i := range rs {
		rs[i] = parc.CallAsync[int](ctx, obj, "Echo", i*10)
	}
	vals, err := parc.WhenAll(rs...).Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != i*10 {
			t.Errorf("vals[%d] = %d, want %d", i, v, i*10)
		}
	}
}

// TestWhenAnyCancelsLosers races a fast echo against two Park calls that
// block until their contexts end. WhenAny must resolve with the echo and
// cancel the losers' contexts, so their Results drain promptly instead of
// leaking parked calls. Two test-design constraints: each call gets its
// own object (calls on one object serialize through its actor, so a Park
// sharing the winner's object would block the Echo behind it forever), and
// the losers run under a deadline — cancellation aborts only the client's
// wait, while a deadline also travels to the hosting node and releases the
// parked server actor so cluster Close is not left waiting on it.
func TestWhenAnyCancelsLosers(t *testing.T) {
	ctx := context.Background()
	cl, obj := startFlaky(t)
	parkCtx, parkCancel := context.WithTimeout(ctx, 2*time.Second)
	defer parkCancel()
	loser1 := parc.CallAsync[any](parkCtx, newFlaky(t, cl), "Park")
	loser2 := parc.CallAsync[any](parkCtx, newFlaky(t, cl), "Park")
	winner := parc.CallAsync[any](ctx, obj, "Echo", 77)
	v, err := parc.WhenAny(loser1, winner, loser2).Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := v.(int); got != 77 {
		t.Fatalf("WhenAny = %v, want 77", v)
	}
	// The losers' contexts were cancelled by the claim; their futures must
	// complete with a context error without anyone releasing the Park.
	drain, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	for i, l := range []*parc.Result[any]{loser1, loser2} {
		_, err := l.Get(drain)
		if err == nil {
			t.Errorf("loser %d drained without error; want cancellation", i)
			continue
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("loser %d drained with %v; want a context error", i, err)
		}
		if drain.Err() != nil {
			t.Errorf("loser %d did not drain until the test gave up waiting", i)
		}
	}
}

// TestWhenAnyEdgeCases covers the empty call and an immediate failure
// (unknown method) claiming the race when it is the first to complete.
func TestWhenAnyEdgeCases(t *testing.T) {
	ctx := context.Background()
	if _, err := parc.WhenAny[int]().Get(ctx); !errors.Is(err, parc.ErrWhenAnyEmpty) {
		t.Fatalf("WhenAny() err = %v, want ErrWhenAnyEmpty", err)
	}
	_, obj := startFlaky(t)
	bad := parc.CallAsync[int](ctx, obj, "NoSuchMethod")
	slow := parc.CallAsync[int](ctx, obj, "Echo", 5)
	if _, err := parc.WhenAny(bad, slow).Get(ctx); err == nil {
		// The immediate failure is claimed synchronously while slow is
		// still in flight; first completion wins even when it is an error.
		t.Fatal("WhenAny with immediate failure first returned nil error")
	}
}

// TestResultGetIdempotent re-reads a Result after both outcomes: an error
// result must return the same error on every Get, and a Get aborted by the
// caller's context must not latch — the next Get sees the real value.
func TestResultGetIdempotent(t *testing.T) {
	ctx := context.Background()
	_, obj := startFlaky(t)

	failed := parc.CallAsync[any](ctx, obj, "Fail", 0, "persistent")
	_, err1 := failed.Get(ctx)
	_, err2 := failed.Get(ctx)
	if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
		t.Fatalf("error Get not idempotent: %v then %v", err1, err2)
	}

	slow := parc.CallAsync[int](ctx, obj, "Echo", 123)
	expired, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := slow.Get(expired); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("expired Get err = %v, want ctx error or completed value", err)
	}
	if v, err := slow.Get(ctx); err != nil || v != 123 {
		t.Fatalf("Get after expired Get = %d, %v; want 123, nil", v, err)
	}
}

// TestCombinatorStress drives deep Then chains from many goroutines at
// once, so inline continuations overflow maxInlineDepth and hop to a fresh
// goroutine while other chains resolve inline — the interleaving the race
// detector runs in CI.
func TestCombinatorStress(t *testing.T) {
	ctx := context.Background()
	_, obj := startFlaky(t)
	const callers, chains, depth = 8, 16, 20
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rs := make([]*parc.Result[int], chains)
			for i := range rs {
				r := parc.CallAsync[int](ctx, obj, "Echo", c*chains+i)
				for d := 0; d < depth; d++ {
					r = parc.Then(r, func(v int) (int, error) { return v + 1, nil })
				}
				rs[i] = r
			}
			vals, err := parc.WhenAll(rs...).Get(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			for i, v := range vals {
				if v != c*chains+i+depth {
					t.Errorf("caller %d chain %d = %d, want %d", c, i, v, c*chains+i+depth)
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestFailedResultIsResolved: the Result of a call that never started (a
// method the class does not have) is resolved in place before CallAsync
// returns: its Done is closed, and its Get returns the error at once, even
// under a context that has already ended.
func TestFailedResultIsResolved(t *testing.T) {
	_, obj := startFlaky(t)
	r := parc.CallAsync[int](context.Background(), obj, "NoSuchMethod")
	select {
	case <-r.Done():
	default:
		t.Fatal("a Result that never started is pending")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Get(ctx); !errors.Is(err, parc.ErrNoSuchMethod) {
		t.Errorf("Get = %v, want ErrNoSuchMethod", err)
	}
}
