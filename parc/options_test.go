package parc

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/remoting"
)

// remoteOn starts a two-node cluster with opts, every object placed on node
// 1, and returns it with one object of class T as node 0 sees it.
func remoteOn[T any](t *testing.T, class string, opts ...Option) (*Cluster, *Object[T]) {
	t.Helper()
	cl, err := StartCluster(append([]Option{WithNodes(2), WithPlacement(&pinNode{node: 1})}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	Register[T](cl, class)
	obj, err := New[T](cl, class)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Proxy().IsLocal() {
		t.Fatal("want a remote object")
	}
	return cl, obj
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestRetryOption: WithRetry is how a caller rides out a shed (SPEC
// guarantee 2). A remote object behind WithMailboxBound(1) runs one held call
// and has a second queued, so a third call is shed with ErrOverloaded.
// Without the option the caller sees that error; with
// WithRetry(DefaultRetryPolicy()) the call is sent again after the server's
// retry-after hint and succeeds once the gate has opened, unless the call's
// context says WithoutRetry. An asynchronous call (CallAsync) is retried as
// a blocking one is.
func TestRetryOption(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		retry, without, async bool
	}{
		{"retry=false", false, false, false},
		{"retry=true", true, false, false},
		{"retry=true,WithoutRetry", true, true, false},
		{"retry=true,CallAsync", true, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := []Option{WithMailboxBound(1)}
			if tc.retry {
				opts = append(opts, WithRetry(DefaultRetryPolicy()))
			}
			cl, obj := remoteOn[Gated](t, "gated", opts...)
			gs := newGate(t, 0)
			ctx := within(t, 10*time.Second)
			// Blocking calls from goroutines of their own: an asynchronous
			// call on obj would hold back the blocking call below until it
			// finished.
			go Call[int](ctx, obj, "Hold", 1)
			gs.awaitEntered(t, 1)
			go Call[int](ctx, obj, "Hold", 2)
			waitFor(t, "the second call to queue", func() bool { return cl.Node(1).OverloadGrade() == OverloadBusy })

			echo := make(chan error, 1)
			go func() {
				callCtx := ctx
				if tc.without {
					callCtx = WithoutRetry(ctx)
				}
				call := Call[int, Gated]
				if tc.async {
					call = func(ctx context.Context, obj *Object[Gated], method string, args ...any) (int, error) {
						return CallAsync[int](ctx, obj, method, args...).Get(ctx)
					}
				}
				v, err := call(callCtx, obj, "Echo", 3)
				if err == nil && v != 3 {
					err = fmt.Errorf("Echo(3) = %d", v)
				}
				echo <- err
			}()
			waitFor(t, "the call to be shed", func() bool { return cl.Node(1).Stats().MailboxSheds > 0 })
			gs.release()
			err := <-echo
			if retried := tc.retry && !tc.without; retried && err != nil {
				t.Errorf("with WithRetry the shed call failed: %v", err)
			} else if !retried && !errors.Is(err, ErrOverloaded) {
				t.Errorf("a call with no retry returned %v, want ErrOverloaded", err)
			}
		})
	}
}

// Stamped counts its executions and remembers the idempotency token of the
// last call that ran.
type Stamped struct{ runs int }

var lastToken atomic.Pointer[CallToken]

func (s *Stamped) Bump(ctx context.Context) int {
	s.runs++
	if tok, ok := remoting.TokenFromContext(ctx); ok {
		lastToken.Store(&tok)
	}
	return s.runs
}

// TestIdempotentCallsOption: under WithIdempotentCalls every call through
// parc is stamped with a token of its own, and a stamped call delivered twice
// executes once (SPEC guarantee 2). The second delivery is what a retry
// sends: the same call under the token the first one carried. It is answered
// with the recorded reply, and the object does not run it again; a call
// stamped afresh does run.
func TestIdempotentCallsOption(t *testing.T) {
	lastToken.Store(nil)
	_, obj := remoteOn[Stamped](t, "stamped", WithIdempotentCalls())
	ctx := within(t, 10*time.Second)
	bump := func(ctx context.Context) int {
		t.Helper()
		n, err := Call[int](ctx, obj, "Bump")
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := bump(ctx); n != 1 {
		t.Fatalf("first call ran as execution %d, want 1", n)
	}
	tok := lastToken.Load()
	if tok == nil {
		t.Fatal("the call carried no idempotency token")
	}
	if n := bump(WithCallToken(ctx, *tok)); n != 1 {
		t.Errorf("the call delivered again answered %d, want the recorded reply 1", n)
	}
	if n := bump(ctx); n != 2 {
		t.Errorf("a fresh call ran as execution %d, want 2: the second delivery executed", n)
	}
	if again := lastToken.Load(); *again == *tok {
		t.Errorf("a fresh call reused the token %v", *tok)
	}
}
