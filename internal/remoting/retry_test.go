package remoting

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/errs"
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
		if got := retryable(c.err); got != c.want {
			t.Errorf("retryable(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestBackoffGrowthAndCap: the backoff before retry n is retryBase doubled
// n-1 times until retryCap caps it, jittered by ±retryJitter.
func TestBackoffGrowthAndCap(t *testing.T) {
	step := retryBase
	for n := 1; n <= 10; n++ {
		lo, hi := step/2, step*3/2
		for i := 0; i < 50; i++ {
			if d := backoff(n); d < lo || d > hi {
				t.Fatalf("backoff(%d) = %v, want within [%v, %v]", n, d, lo, hi)
			}
		}
		step = min(2*step, retryCap)
	}
	if step != retryCap {
		t.Errorf("step after 10 retries = %v, want the %v cap", step, retryCap)
	}
}

// TestBackoffJitterBounds: jitter spreads each delay over [d/2, 3d/2],
// never outside it, and does spread it.
func TestBackoffJitterBounds(t *testing.T) {
	lo, hi := retryBase/2, retryBase*3/2
	least, most := hi, lo
	for i := 0; i < 200; i++ {
		d := backoff(1)
		if d < lo || d > hi {
			t.Fatalf("jittered backoff(1) = %v, want within [%v, %v]", d, lo, hi)
		}
		least, most = min(least, d), max(most, d)
	}
	if most-least < retryBase/2 {
		t.Errorf("200 delays span only [%v, %v]: the jitter does not spread them", least, most)
	}
}

// TestRetryDelayHonorsHint: a server retry-after hint beats the computed
// backoff (the shedding server knows its drain time), with jitter only ever
// stretching it — retrying before the hinted drain would re-shed.
func TestRetryDelayHonorsHint(t *testing.T) {
	hinted := shed(100 * time.Millisecond)
	for i := 0; i < 50; i++ {
		d := retryDelay(hinted, 1)
		if d < 100*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("retryDelay with 100ms hint = %v, want within [100ms, 150ms]", d)
		}
	}
	if d := retryDelay(errs.ErrNodeDown, 1); d > retryBase*3/2 {
		t.Errorf("retryDelay without hint = %v, want the computed backoff, at most %v", d, retryBase*3/2)
	}
}

// shed is the error an overloaded server answers with, carrying its
// retry-after hint.
func shed(hint time.Duration) error {
	return errs.WithRetryAfter(fmt.Errorf("shed: %w", errs.ErrOverloaded), hint)
}

// shedder answers every Ping with shed(hint): a retrying caller sleeps at
// least hint before its next attempt.
type shedder struct{ hint time.Duration }

func (s *shedder) Ping() error { return shed(s.hint) }

// shedding returns a channel whose Retry allows attempts and an ObjRef
// through it to a shedder with hint.
func shedding(t *testing.T, attempts int, hint time.Duration) (*Channel, *ObjRef) {
	t.Helper()
	ch, srv := newTestServer(t)
	ch.Retry = RetryPolicy{MaxAttempts: attempts}
	srv.Marshal("shedder", &shedder{hint: hint})
	return ch, NewObjRef(ch, srv.Addr(), "shedder")
}

// stamper sheds every Ping without a retry-after hint, so a retrying caller
// sleeps the computed backoff, and stamps when each attempt arrived.
type stamper struct {
	mu  sync.Mutex
	hit []time.Time
}

func (s *stamper) Ping() error {
	s.mu.Lock()
	s.hit = append(s.hit, time.Now())
	s.mu.Unlock()
	return fmt.Errorf("shed: %w", errs.ErrOverloaded)
}

// TestRetryScheduleNumbersRetriesFromOne: a blocking call's first retry waits
// backoff(1), retryBase jittered into [2.5, 7.5] ms, and its second
// backoff(2), [5, 15] ms, as the arrivals of its attempts at a shedding
// server show. A sleep never ends early, so every gap is at least its
// delay's floor; the least of a few calls' gaps is at most its ceiling. A
// schedule that numbered retries from 0 waits the base twice, and its second
// gap falls under 5 ms on half the calls.
func TestRetryScheduleNumbersRetriesFromOne(t *testing.T) {
	const calls = 16
	ch, srv := newTestServer(t)
	ch.Retry = RetryPolicy{MaxAttempts: 3}
	s := new(stamper)
	srv.Marshal("stamper", s)
	ref := NewObjRef(ch, srv.Addr(), "stamper")
	floor := [2]time.Duration{retryBase / 2, retryBase}
	ceil := [2]time.Duration{retryBase * 3 / 2, retryBase * 3}
	least := ceil
	for i := 0; i < calls; i++ {
		s.mu.Lock()
		s.hit = s.hit[:0]
		s.mu.Unlock()
		if _, err := ref.Invoke("Ping"); !errors.Is(err, errs.ErrOverloaded) {
			t.Fatalf("call %d: %v, want the shed", i, err)
		}
		s.mu.Lock()
		hit := slices.Clone(s.hit)
		s.mu.Unlock()
		if len(hit) != 3 {
			t.Fatalf("call %d made %d attempts, want 3", i, len(hit))
		}
		for r := range floor {
			gap := hit[r+1].Sub(hit[r])
			if gap < floor[r] {
				t.Errorf("call %d: retry %d came %v after the attempt before it, want at least %v", i, r+1, gap, floor[r])
			}
			least[r] = min(least[r], gap)
		}
	}
	for r := range least {
		if least[r] > ceil[r] {
			t.Errorf("retry %d: the least gap of %d calls is %v, want at most %v", r+1, calls, least[r], ceil[r])
		}
	}
	t.Logf("least gaps: first retry %v, second %v", least[0], least[1])
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
// enabled policy against a peer whose retry-after hint outlasts the deadline
// must give up before the deadline (refusing the unaffordable sleep) and
// surface the shed, not burn the attempt cap or the deadline.
func TestInvokeRetryStopsOnBudget(t *testing.T) {
	_, ref := shedding(t, 10, 200*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := ref.InvokeCtx(ctx, "Ping")
	if !errors.Is(err, errs.ErrOverloaded) {
		t.Errorf("error = %v, want ErrOverloaded (the shed, not ctx expiry)", err)
	}
	if elapsed := time.Since(start); elapsed > 90*time.Millisecond {
		t.Errorf("gave up after %v, want well before the 100ms deadline (a 200ms hint is unaffordable)", elapsed)
	}
}

// TestInvokeRetryAbortsOnClose: Channel.Close must wake a caller sleeping
// between retries — a teardown that strands callers in backoff timers leaks
// goroutines for the rest of the backoff.
func TestInvokeRetryAbortsOnClose(t *testing.T) {
	ch, ref := shedding(t, 10, 10*time.Second)
	done := make(chan error, 1)
	go func() {
		_, err := ref.InvokeCtx(context.Background(), "Ping")
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let it be shed and enter backoff
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
	_, ref := shedding(t, 10, time.Second)
	start := time.Now()
	_, err := ref.InvokeCtx(WithoutRetry(context.Background()), "Ping")
	if !errors.Is(err, errs.ErrOverloaded) {
		t.Fatalf("error = %v, want the shed", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("WithoutRetry call took %v, want one attempt, no 1s retry-after sleep", elapsed)
	}
}
