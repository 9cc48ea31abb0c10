package remoting

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/errs"
	"repro/internal/transport"
)

// TestRetryableClassification pins the full classification table: only
// transient transport-level failures (node down, overload sheds) retry;
// everything the retry loop cannot fix — application errors, conversion
// failures, context expiry, moved/destroyed objects, orderly close — gets
// exactly one attempt.
func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"node down", errs.ErrNodeDown, true},
		{"wrapped node down", fmt.Errorf("remoting: dial x: %w", errs.ErrNodeDown), true},
		{"overloaded", errs.ErrOverloaded, true},
		{"overloaded with hint", errs.WithRetryAfter(fmt.Errorf("shed: %w", errs.ErrOverloaded), 5*time.Millisecond), true},
		{"breaker fast-fail", fmt.Errorf("remoting: x: %w", errBreakerOpen), true},
		{"canceled", context.Canceled, false},
		{"deadline exceeded", context.DeadlineExceeded, false},
		{"wrapped deadline", fmt.Errorf("call: %w", context.DeadlineExceeded), false},
		{"bad conversion", errs.ErrBadConversion, false},
		{"object moved", errs.ErrObjectMoved, false},
		{"object destroyed", errs.ErrObjectDestroyed, false},
		{"channel closed", errChannelClosed, false},
		{"application error", errors.New("divide by zero"), false},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.want {
			t.Errorf("Retryable(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestBackoffGrowthAndCap: with jitter disabled the backoff is exactly
// geometric from BaseDelay until MaxDelay caps it.
func TestBackoffGrowthAndCap(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 10, BaseDelay: 10 * time.Millisecond,
		MaxDelay: 80 * time.Millisecond, Jitter: -1}
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := p.Backoff(i + 1); got != w*time.Millisecond {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
}

// TestBackoffJitterBounds: jitter spreads each delay over
// [d*(1-j), d*(1+j)] and never outside it.
func TestBackoffJitterBounds(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond, Jitter: 0.5}
	for i := 0; i < 200; i++ {
		d := p.Backoff(1)
		if d < 5*time.Millisecond || d > 15*time.Millisecond {
			t.Fatalf("jittered Backoff(1) = %v, want within [5ms, 15ms]", d)
		}
	}
}

// TestRetryDelayHonorsHint: a server retry-after hint beats the computed
// backoff (the shedding server knows its drain time), with jitter only ever
// stretching it — retrying before the hinted drain would re-shed.
func TestRetryDelayHonorsHint(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, Jitter: 0.5}
	hinted := errs.WithRetryAfter(fmt.Errorf("shed: %w", errs.ErrOverloaded), 100*time.Millisecond)
	for i := 0; i < 50; i++ {
		d := p.retryDelay(hinted, 1)
		if d < 100*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("retryDelay with 100ms hint = %v, want within [100ms, 150ms]", d)
		}
	}
	if d := p.retryDelay(errs.ErrNodeDown, 1); d > 2*time.Millisecond {
		t.Errorf("retryDelay without hint = %v, want the ~1ms computed backoff", d)
	}
}

// TestBudgetAllowsDeadline: a retry that cannot finish inside the deadline
// is not attempted — sleeping into a guaranteed DeadlineExceeded wastes the
// peer's admission slot and the caller's time.
func TestBudgetAllowsDeadline(t *testing.T) {
	if !budgetAllows(context.Background(), time.Hour, time.Hour) {
		t.Error("no deadline should always allow the retry")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if !budgetAllows(ctx, time.Millisecond, time.Millisecond) {
		t.Error("tiny delay+cost inside a 50ms budget should be allowed")
	}
	if budgetAllows(ctx, 40*time.Millisecond, 40*time.Millisecond) {
		t.Error("delay+cost exceeding the remaining budget should be refused")
	}
	if budgetAllows(ctx, 100*time.Millisecond, 0) {
		t.Error("delay alone exceeding the budget should be refused")
	}
}

// TestInvokeRetryStopsOnBudget: end-to-end deadline-budget exhaustion — an
// enabled policy against an unreachable peer must give up before the
// deadline (refusing the unaffordable sleep) and surface the transport
// error, not burn the full attempt cap or the deadline.
func TestInvokeRetryStopsOnBudget(t *testing.T) {
	ch := NewMultiplexedChannel(transport.NewMemNetwork())
	ch.Retry = RetryPolicy{MaxAttempts: 10, BaseDelay: 200 * time.Millisecond, Jitter: -1}
	defer ch.Close()
	ref := NewObjRef(ch, "mem://nowhere", "obj") // no listener: dial fails fast
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := ref.InvokeCtx(ctx, "Ping")
	if err == nil {
		t.Fatal("invoke against an unreachable peer succeeded")
	}
	if !errors.Is(err, errs.ErrNodeDown) {
		t.Errorf("error = %v, want ErrNodeDown (the transport failure, not ctx expiry)", err)
	}
	if elapsed := time.Since(start); elapsed > 90*time.Millisecond {
		t.Errorf("gave up after %v, want well before the 100ms deadline (200ms backoff is unaffordable)", elapsed)
	}
}

// TestInvokeRetryAbortsOnClose: Channel.Close must wake a caller sleeping
// between retries — a teardown that strands callers in backoff timers leaks
// goroutines for the rest of the backoff.
func TestInvokeRetryAbortsOnClose(t *testing.T) {
	ch := NewMultiplexedChannel(transport.NewMemNetwork())
	ch.Retry = RetryPolicy{MaxAttempts: 10, BaseDelay: 10 * time.Second, Jitter: -1}
	ref := NewObjRef(ch, "mem://nowhere", "obj")
	done := make(chan error, 1)
	go func() {
		_, err := ref.InvokeCtx(context.Background(), "Ping")
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let it fail the dial and enter backoff
	ch.Close()
	select {
	case err := <-done:
		if !errors.Is(err, errChannelClosed) {
			t.Errorf("aborted retry error = %v, want errChannelClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("caller still sleeping in backoff after Channel.Close")
	}
}

// TestWithoutRetry: the per-call escape hatch forces a single attempt even
// under an enabled policy.
func TestWithoutRetry(t *testing.T) {
	ch := NewMultiplexedChannel(transport.NewMemNetwork())
	ch.Retry = RetryPolicy{MaxAttempts: 10, BaseDelay: time.Second, Jitter: -1}
	defer ch.Close()
	ref := NewObjRef(ch, "mem://nowhere", "obj")
	start := time.Now()
	_, err := ref.InvokeCtx(WithoutRetry(context.Background()), "Ping")
	if err == nil {
		t.Fatal("invoke against an unreachable peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("WithoutRetry call took %v, want one fast-failing attempt", elapsed)
	}
}

// TestBreakerTripsAfterThreshold: threshold connection failures inside the
// window open the breaker; further calls fail fast with an ErrNodeDown-class
// error that is distinguishable as a fast-fail.
func TestBreakerTripsAfterThreshold(t *testing.T) {
	bs := newBreakerSet(RetryPolicy{BreakerThreshold: 3, BreakerCooldown: time.Hour})
	for i := 0; i < 3; i++ {
		if _, err := bs.allow("peer"); err != nil {
			t.Fatalf("breaker open after %d failures, threshold is 3", i)
		}
		bs.record("peer", false, true)
	}
	_, err := bs.allow("peer")
	if err == nil {
		t.Fatal("breaker still admitting calls after threshold failures")
	}
	if !IsBreakerOpenError(err) || !errors.Is(err, errs.ErrNodeDown) {
		t.Errorf("fast-fail error = %v, want breaker-open wrapping ErrNodeDown", err)
	}
	if !bs.Open("peer") {
		t.Error("Open() = false on a tripped breaker")
	}
	if bs.Open("other") {
		t.Error("a different peer's breaker tripped too")
	}
}

// TestBreakerHalfOpenProbe: after the cooldown exactly one trial passes;
// concurrent calls keep failing fast while it is pending; a successful trial
// closes the breaker, a failed one re-opens it for another cooldown.
func TestBreakerHalfOpenProbe(t *testing.T) {
	bs := newBreakerSet(RetryPolicy{BreakerThreshold: 1, BreakerCooldown: 20 * time.Millisecond})
	bs.record("peer", false, true) // one failure trips threshold 1
	if _, err := bs.allow("peer"); err == nil {
		t.Fatal("breaker not open after trip")
	}
	time.Sleep(30 * time.Millisecond)
	trial, err := bs.allow("peer")
	if err != nil || !trial {
		t.Fatalf("cooldown elapsed: allow = (trial %v, err %v), want one admitted trial", trial, err)
	}
	if _, err := bs.allow("peer"); err == nil {
		t.Fatal("second call admitted while the half-open trial is pending")
	}

	// Trial fails: re-open for another cooldown.
	bs.record("peer", true, true)
	if _, err := bs.allow("peer"); err == nil {
		t.Fatal("breaker closed after a failed trial")
	}
	time.Sleep(30 * time.Millisecond)
	trial, err = bs.allow("peer")
	if err != nil || !trial {
		t.Fatalf("second cooldown elapsed: allow = (trial %v, err %v), want a new trial", trial, err)
	}
	// Trial succeeds: closed, calls flow again.
	bs.record("peer", true, false)
	if trial, err := bs.allow("peer"); err != nil || trial {
		t.Fatalf("after successful trial: allow = (trial %v, err %v), want plain admission", trial, err)
	}
	if bs.Open("peer") {
		t.Error("Open() = true after the breaker closed")
	}
}

// TestBreakerIgnoresAppErrors: application errors are not transport
// evidence — a peer answering failures is reachable — so they must never
// trip the breaker, and successes outnumbering failures keep it closed.
func TestBreakerIgnoresAppErrors(t *testing.T) {
	bs := newBreakerSet(RetryPolicy{BreakerThreshold: 2})
	for i := 0; i < 10; i++ {
		if _, err := bs.allow("peer"); err != nil {
			t.Fatalf("breaker opened on app errors after %d calls", i)
		}
		bs.record("peer", false, false) // answered: not a connection failure
	}
	// Failures never outnumbering successes keep it closed too.
	bs.record("peer", false, true)
	bs.record("peer", false, true)
	if bs.Open("peer") {
		t.Error("breaker opened with failures not outnumbering successes")
	}
}

// TestWithoutBreakerBypassesOpenBreaker: a call under WithoutBreaker makes
// a genuine transport attempt even when the peer's breaker is open — the
// escape hatch correctness-critical reads (the promotion census) depend
// on: its error must be the real transport failure, never the breaker's
// fast-fail, and the attempt must leave the breaker's state untouched.
func TestWithoutBreakerBypassesOpenBreaker(t *testing.T) {
	ch := NewMultiplexedChannel(transport.NewMemNetwork())
	ch.Retry = RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond,
		BreakerThreshold: 1, BreakerCooldown: time.Hour}
	defer ch.Close()
	ref := NewObjRef(ch, "mem://nowhere", "obj")

	// Trip the breaker with a real failing attempt.
	if _, err := ref.InvokeCtx(WithoutRetry(context.Background()), "Ping"); err == nil {
		t.Fatal("invoke against an unreachable peer succeeded")
	}
	_, err := ref.InvokeCtx(WithoutRetry(context.Background()), "Ping")
	if !IsBreakerOpenError(err) {
		t.Fatalf("second call error = %v, want the breaker fast-fail", err)
	}

	// Bypassed: a genuine dial, surfacing the real transport error.
	_, err = ref.InvokeCtx(WithoutBreaker(WithoutRetry(context.Background())), "Ping")
	if err == nil {
		t.Fatal("bypassed invoke against an unreachable peer succeeded")
	}
	if IsBreakerOpenError(err) {
		t.Fatalf("bypassed call error = %v, want the dial failure, not the fast-fail", err)
	}
	// And the breaker is still open for ordinary calls, its half-open
	// machinery undisturbed by the bypassed attempt.
	if _, err := ref.InvokeCtx(WithoutRetry(context.Background()), "Ping"); !IsBreakerOpenError(err) {
		t.Errorf("ordinary call after bypass = %v, want the breaker still open", err)
	}
}

// TestBreakerDisabled: a negative threshold disables the set entirely.
func TestBreakerDisabled(t *testing.T) {
	if bs := newBreakerSet(RetryPolicy{BreakerThreshold: -1}); bs != nil {
		t.Error("negative BreakerThreshold should disable the breaker set")
	}
}
