// The classifiers of a failed call, one place each: whether it is sent again
// at once on its route (Stale, Declined), never (Closed), or after the retry
// policy's backoff (RetryIn, Backoff). A caller applies them in one rule:
// core's attempt.Complete for a proxy's calls, ObjRef.invoke for a bare
// ObjRef's blocking call. Retries go behind the channel's one per-peer
// breaker, its dial backoff (channel.go), so retries against a dead peer
// fail fast instead of redialling it.
package remoting

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/errs"
)

// RetryPolicy configures the retry rule (RetryIn) that every remote call of
// the channel follows, a bare ObjRef's blocking call and a proxy's calls
// alike. The zero policy is disabled (single attempt); use
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

// retryable classifies an error for the retry policy. Retryable failures are
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
		Closed(err) {
		return false
	}
	return errors.Is(err, errs.ErrNodeDown) || errors.Is(err, errs.ErrOverloaded)
}

// RetryIn is the retry policy's rule: whether a call under ctx that failed
// with err goes out again, and after what delay. retry numbers the retry it
// would be (1 is the first) and took is what the failed attempt cost. A call
// goes again while the policy is enabled, ctx does not carry WithoutRetry,
// err is transient (retryable), the attempt cap is not reached, and the
// delay (the server's retry-after hint, or the jittered backoff) and another
// attempt still fit in ctx's deadline (budgetAllows).
func (ch *Channel) RetryIn(ctx context.Context, err error, retry int, took time.Duration) (time.Duration, bool) {
	if p := ch.Retry; !p.Enabled() || retryDisabled(ctx) || !retryable(err) || retry >= p.MaxAttempts {
		return 0, false
	}
	delay := retryDelay(err, retry)
	return delay, budgetAllows(ctx, delay, took)
}

// Stale reports whether a call that failed with err may be sent once more,
// at once, on its route: the lane it went out on died before any reply (a
// connection gone stale while idle, or a peer that restarted), not an
// orderly Close and not a dial the peer refused. Whether the call dialled
// that lane itself does not matter. The caller sends a call again on this
// ground once: the heuristic HTTP keep-alive clients apply to reused
// connections, since over TCP a stale connection usually accepts the write
// and only the read fails. A request the peer received and executed just
// before dying is executed again: at-most-once is traded for liveness
// across peer restarts, once per call.
func Stale(err error) bool {
	var re *remoteError
	var de dialError
	return errors.Is(err, errs.ErrNodeDown) && !Closed(err) && !errors.As(err, &re) && !errors.As(err, &de)
}

// Declined reports whether err declined a submission that never left the
// client: its Turn withdrew it (errOutOfTurn), or it met its lane failing
// and was held until the lane had left the channel's table (park). Sending
// it again is always safe, and its next submission dials afresh. One that
// an orderly Close declined is Closed too.
func Declined(err error) bool { return errors.Is(err, errDeclined) }

// Closed reports whether err is an orderly Channel.Close's, which nothing
// sends a call again after.
func Closed(err error) bool { return errors.Is(err, errChannelClosed) }

// errDeclined marks a submission that never left the client (Declined).
var errDeclined = errors.New("remoting: call declined")

// declined is err, a lane's failure, as what declined a call that never
// went out on the lane.
func declined(err error) error { return fmt.Errorf("%w: %w", errDeclined, err) }

// dialError is a dial the peer refused: the peer is down, not a lane gone
// stale under its calls.
type dialError struct{ error }

func (e dialError) Unwrap() error { return e.error }

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

// Backoff is one call's wait for its retry, which a timer ends (Wait) and
// Channel.Close or Cancel may end first: then is told once how it ended,
// nil when the delay passed, the close error, or context.Canceled. Nothing
// waits on a goroutine meanwhile.
type Backoff struct {
	ch   *Channel
	t    *time.Timer
	then func(error)
}

// Backoff registers a wait for a retry that then is told the end of; the
// timer starts with Wait, so the caller can name the wait to its canceller
// first.
func (ch *Channel) Backoff(then func(error)) *Backoff {
	b := &Backoff{ch: ch, then: then}
	ch.closeMu.Lock()
	if ch.backoffs == nil {
		ch.backoffs = make(map[*Backoff]struct{})
	}
	ch.backoffs[b] = struct{}{}
	ch.closeMu.Unlock()
	return b
}

// Wait starts b's timer: then hears nil after d, unless Close or Cancel
// ended b first.
func (b *Backoff) Wait(d time.Duration) {
	b.ch.closeMu.Lock()
	defer b.ch.closeMu.Unlock()
	if _, ok := b.ch.backoffs[b]; ok {
		b.t = time.AfterFunc(d, b.fire)
	}
}

func (b *Backoff) fire() {
	if b.ch.forget(b) {
		b.then(nil)
	}
}

// Cancel ends b at once with context.Canceled, unless it has ended.
func (b *Backoff) Cancel() {
	if b.ch.forget(b) {
		if b.t != nil {
			b.t.Stop()
		}
		b.then(context.Canceled)
	}
}

// forget takes b out of the channel's waits, and reports whether it was
// still there: whoever takes it out tells then.
func (ch *Channel) forget(b *Backoff) bool {
	ch.closeMu.Lock()
	defer ch.closeMu.Unlock()
	_, ok := ch.backoffs[b]
	delete(ch.backoffs, b)
	return ok
}

// sleep waits out a blocking call's backoff d, waking early when ctx ends
// (its error) or the channel closes (the close error). Returns nil when the
// full delay elapsed.
func (ch *Channel) sleep(ctx context.Context, d time.Duration) error {
	woke := make(chan error, 1)
	b := ch.Backoff(func(err error) { woke <- err })
	b.Wait(d)
	select {
	case err := <-woke:
		return err
	case <-ctx.Done():
		b.Cancel()
		<-woke
		return ctx.Err()
	}
}
