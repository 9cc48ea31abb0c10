// Per-peer circuit breakers: fail fast at peers that keep failing.
//
// Each peer address gets one breaker, fed by connection-level outcomes
// (dial failures, send/receive failures — the failures that already map to
// ErrNodeDown). Application errors never count: a server returning app
// failures is reachable and healthy at the transport level.
//
//	closed    — calls flow; a rolling window counts failures vs successes.
//	            Threshold failures inside the window with failures
//	            outnumbering successes open the breaker.
//	open      — calls fail fast with ErrNodeDown (no dial, no timeout) until
//	            the cooldown elapses.
//	half-open — exactly one trial call passes through; success closes the
//	            breaker, failure re-opens it for another cooldown.
//
// The fast-fail error wraps ErrNodeDown, so everything that already routes
// around dead peers — the SCOOPP proxy's re-resolve, health probes grading
// peers down, placement's exclusion of down peers — routes around open
// breakers with no extra wiring: a health probe against an open breaker
// fails instantly (counting toward suspect/down), and the half-open trial
// lets the same probe rediscover a recovered peer, flipping both breaker
// and health grade back.
package remoting

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/errs"
)

// errBreakerOpen marks fast-failed calls so they are distinguishable (and
// so the breaker never counts its own fast-fails as fresh peer failures).
var errBreakerOpen = fmt.Errorf("circuit breaker open: %w", errs.ErrNodeDown)

// breakerWindow is the rolling window a breaker counts failures in.
const breakerWindow = time.Second

// breakerState is one peer's breaker.
type breakerState struct {
	mu          sync.Mutex
	windowStart time.Time
	fails       int
	oks         int
	openUntil   time.Time // non-zero while open / half-open
	halfOpen    bool      // one trial call is in flight
}

// breakerSet holds the per-peer breakers of one channel.
type breakerSet struct {
	threshold int
	cooldown  time.Duration

	mu    sync.Mutex
	peers map[string]*breakerState
}

// newBreakerSet builds the set from the policy's breaker fields, nil when
// disabled.
func newBreakerSet(p RetryPolicy) *breakerSet {
	if p.BreakerThreshold < 0 {
		return nil
	}
	bs := &breakerSet{
		threshold: p.BreakerThreshold,
		cooldown:  p.BreakerCooldown,
	}
	if bs.threshold == 0 {
		bs.threshold = 5
	}
	if bs.cooldown <= 0 {
		bs.cooldown = 250 * time.Millisecond
	}
	return bs
}

func (bs *breakerSet) peer(netaddr string) *breakerState {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.peers[netaddr]
	if b == nil {
		if bs.peers == nil {
			bs.peers = make(map[string]*breakerState)
		}
		b = &breakerState{}
		bs.peers[netaddr] = b
	}
	return b
}

// allow gates one call at netaddr: nil to proceed (trial=true when this is
// the half-open probe whose outcome decides the breaker), errBreakerOpen to
// fail fast.
func (bs *breakerSet) allow(netaddr string) (trial bool, err error) {
	b := bs.peer(netaddr)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.openUntil.IsZero() {
		return false, nil
	}
	now := time.Now()
	if now.Before(b.openUntil) || b.halfOpen {
		return false, fmt.Errorf("remoting: %s: %w", netaddr, errBreakerOpen)
	}
	// Cooldown elapsed: admit exactly one trial.
	b.halfOpen = true
	return true, nil
}

// settle records the outcome of one admitted exchange, the same for the
// blocking and the completion-driven path. Only transport-level evidence
// moves the breaker: connection failures trip it, anything the peer
// actually answered (including app errors) counts as success. Context
// expiry is the caller's deadline, not the peer's fault, and an orderly
// Close is not a failure either.
func (bs *breakerSet) settle(ctx context.Context, netaddr string, trial bool, err error) {
	connFail := err != nil && ctx.Err() == nil &&
		isConnFailure(err) && !errors.Is(err, errChannelClosed)
	if connFail || err == nil || !isConnFailure(err) {
		bs.record(netaddr, trial, connFail)
	} else if trial {
		// The trial's outcome was ambiguous (ctx expiry / orderly close):
		// release the half-open slot without deciding.
		bs.record(netaddr, true, true)
	}
}

// record feeds one call outcome back. connFailure is true only for
// connection-level failures on calls the breaker admitted (fast-fails and
// app errors both count as "no transport evidence" and are ignored for
// state, though successes always help close the window).
func (bs *breakerSet) record(netaddr string, trial, connFailure bool) {
	b := bs.peer(netaddr)
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	if trial {
		b.halfOpen = false
		if connFailure {
			// Trial failed: re-open for another cooldown.
			b.openUntil = now.Add(bs.cooldown)
			return
		}
		// Trial succeeded: close and reset the window.
		b.openUntil = time.Time{}
		b.windowStart = now
		b.fails, b.oks = 0, 0
		return
	}
	if !b.openUntil.IsZero() {
		// Open (or a concurrent trial is pending): late outcomes from calls
		// admitted before the trip do not move the state.
		return
	}
	if b.windowStart.IsZero() || now.Sub(b.windowStart) > breakerWindow {
		b.windowStart = now
		b.fails, b.oks = 0, 0
	}
	if connFailure {
		b.fails++
		if b.fails >= bs.threshold && b.fails > b.oks {
			b.openUntil = now.Add(bs.cooldown)
		}
	} else {
		b.oks++
	}
}

// Open reports whether netaddr's breaker currently fails calls fast (open
// and still cooling down, or waiting on a half-open trial). Placement-style
// callers use it to route around the peer without paying a call.
func (bs *breakerSet) Open(netaddr string) bool {
	bs.mu.Lock()
	b := bs.peers[netaddr]
	bs.mu.Unlock()
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.openUntil.IsZero() {
		return false
	}
	return time.Now().Before(b.openUntil) || b.halfOpen
}

// IsBreakerOpenError reports whether err is a breaker fast-fail (as opposed
// to a real transport failure that paid a dial or timeout).
func IsBreakerOpenError(err error) bool {
	return errors.Is(err, errBreakerOpen)
}
