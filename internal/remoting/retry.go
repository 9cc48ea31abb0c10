// RetryPolicy: the unified retry/backoff layer for remote calls.
//
// Before it, retry logic was scattered: the channel redialled stale
// connections once, the SCOOPP proxy re-resolved once on ErrNodeDown, and
// the ErrOverloaded doc comment prescribed jittered backoff that no caller
// implemented. The policy centralises the loop: classify the failure,
// back off with jitter (honouring the server's retry-after hint when the
// reply carried one), respect the context's deadline budget — a retry that
// cannot finish before the deadline is not attempted — and stop at the
// attempt cap. A per-peer circuit breaker (breaker.go) sits underneath, so
// retries against a dead peer fail fast instead of re-timing-out.
package remoting

import (
	"context"
	"errors"
	"math/rand/v2"
	"time"

	"repro/internal/errs"
)

// RetryPolicy configures the channel-level retry loop applied by
// ObjRef.InvokeCtx. The zero policy is disabled (single attempt); use
// DefaultRetryPolicy or fill the fields. Each zero field of an enabled
// policy picks its default.
type RetryPolicy struct {
	// MaxAttempts caps total attempts, first try included (default 4).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 5ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff, which doubles per retry (default 1s).
	MaxDelay time.Duration
	// Jitter spreads each delay uniformly over [d*(1-Jitter), d*(1+Jitter)]
	// so synchronized callers do not retry in lockstep (default 0.5; set
	// negative for none).
	Jitter float64

	// BreakerThreshold is the per-peer circuit breaker's trip point:
	// connection-level failures within a rolling one-second window before
	// the breaker opens (default 5; negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker fails fast before
	// half-opening to probe the peer with one trial call (default 250ms).
	BreakerCooldown time.Duration
}

// backoffMultiplier grows the backoff per retry.
const backoffMultiplier = 2

// DefaultRetryPolicy returns the enabled policy with every default.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4}
}

// Enabled reports whether the policy retries at all.
func (p RetryPolicy) Enabled() bool { return p.MaxAttempts > 1 }

func (p RetryPolicy) baseDelay() time.Duration {
	if p.BaseDelay > 0 {
		return p.BaseDelay
	}
	return 5 * time.Millisecond
}

func (p RetryPolicy) maxDelay() time.Duration {
	if p.MaxDelay > 0 {
		return p.MaxDelay
	}
	return time.Second
}

func (p RetryPolicy) jitter() float64 {
	switch {
	case p.Jitter < 0:
		return 0
	case p.Jitter == 0:
		return 0.5
	case p.Jitter > 1:
		return 1
	}
	return p.Jitter
}

// Backoff returns the jittered delay before retry number retry (1 is the
// first retry).
func (p RetryPolicy) Backoff(retry int) time.Duration {
	d := float64(p.baseDelay())
	for i := 1; i < retry; i++ {
		d *= backoffMultiplier
		if d >= float64(p.maxDelay()) {
			break
		}
	}
	if max := float64(p.maxDelay()); d > max {
		d = max
	}
	if j := p.jitter(); j > 0 {
		d *= 1 - j + 2*j*rand.Float64()
	}
	if d < 1 {
		d = 1
	}
	return time.Duration(d)
}

// retryable classifies an error for the retry loop. Retryable failures are
// the transient ones: unreachable peers (ErrNodeDown — dial failures,
// connection resets, dead multiplexed lanes) and admission-control sheds
// (ErrOverloaded). Never retried: application errors, conversion failures
// (ErrBadConversion — a retry re-fails identically), context expiry, moved
// and destroyed objects (the proxy layer re-routes those itself), and the
// orderly channel-close sentinel (a retry would redial the connection
// Close just released).
func retryable(err error) bool {
	if err == nil ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, errs.ErrBadConversion) ||
		errors.Is(err, errs.ErrObjectMoved) ||
		errors.Is(err, errs.ErrObjectDestroyed) ||
		errors.Is(err, errChannelClosed) {
		return false
	}
	return errors.Is(err, errs.ErrNodeDown) || errors.Is(err, errs.ErrOverloaded)
}

// retryDelay picks the delay before retry number retry, preferring the
// server's retry-after hint (an overloaded server knows its drain time;
// the computed backoff is a guess) with the policy's jitter applied so
// hinted clients still spread out.
func (p RetryPolicy) retryDelay(err error, retry int) time.Duration {
	if hint := errs.RetryAfter(err); hint > 0 {
		if j := p.jitter(); j > 0 {
			hint = time.Duration(float64(hint) * (1 + j*rand.Float64()))
		}
		return hint
	}
	return p.Backoff(retry)
}

// budgetAllows reports whether sleeping delay and then re-attempting a call
// that last took attemptCost can still finish inside ctx's deadline. A
// retry that cannot finish is pure waste: it holds resources and then
// surfaces the same deadline error later.
func budgetAllows(ctx context.Context, delay, attemptCost time.Duration) bool {
	dl, ok := ctx.Deadline()
	if !ok {
		return true
	}
	if attemptCost < time.Millisecond {
		attemptCost = time.Millisecond
	}
	return time.Until(dl) > delay+attemptCost
}

// sleepRetry blocks for d, waking early when ctx ends or stop fires (the
// channel is closing: a mid-retry teardown must not strand the caller's
// goroutine in a timer). Returns nil when the full delay elapsed.
func sleepRetry(ctx context.Context, stop <-chan struct{}, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-stop:
		return errChannelClosed
	}
}
