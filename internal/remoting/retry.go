// RetryPolicy: the unified retry/backoff layer for remote calls.
//
// Before it, retry logic was scattered: the channel redialled stale
// connections once, the SCOOPP proxy re-resolved once on ErrNodeDown, and
// the ErrOverloaded doc comment prescribed jittered backoff that no caller
// implemented. The policy centralises the loop: classify the failure,
// back off with jitter (honouring the server's retry-after hint when the
// reply carried one), respect the context's deadline budget — a retry that
// cannot finish before the deadline is not attempted — and stop at the
// attempt cap. The channel's per-peer breaker, its dial backoff
// (channel.go), sits underneath, so retries against a dead peer fail fast
// instead of redialling it.
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
// DefaultRetryPolicy or set MaxAttempts. The backoff between attempts is
// fixed (backoff).
type RetryPolicy struct {
	// MaxAttempts caps total attempts, first try included (DefaultRetryPolicy
	// sets 4); 0 or 1 disables the policy.
	MaxAttempts int
}

// The backoff before retry n is retryBase·2^(n-1), capped at retryCap and
// spread uniformly over ±retryJitter of itself, so synchronized callers do
// not retry in lockstep.
const (
	retryBase   = 5 * time.Millisecond
	retryCap    = time.Second
	retryJitter = 0.5
)

// DefaultRetryPolicy returns the enabled policy: 4 attempts.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4}
}

// Enabled reports whether the policy retries at all.
func (p RetryPolicy) Enabled() bool { return p.MaxAttempts > 1 }

// backoff returns the jittered delay before retry number retry (1 is the
// first retry).
func backoff(retry int) time.Duration {
	d := retryBase
	for i := 1; i < retry && d < retryCap; i++ {
		d *= 2
	}
	d = min(d, retryCap)
	return time.Duration(float64(d) * (1 - retryJitter + 2*retryJitter*rand.Float64()))
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
// the computed backoff is a guess), stretched by up to retryJitter so
// hinted clients still spread out.
func retryDelay(err error, retry int) time.Duration {
	if hint := errs.RetryAfter(err); hint > 0 {
		return time.Duration(float64(hint) * (1 + retryJitter*rand.Float64()))
	}
	return backoff(retry)
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
