package parc

import (
	"context"

	"repro/internal/errs"
)

// Typed error taxonomy. Every failure surfaced by the runtime wraps one of
// these sentinels (with %w, including across remoting hops, where the wire
// envelope carries the sentinel's identity), so callers branch with
// errors.Is instead of string matching:
//
//	if errors.Is(err, parc.ErrNodeDown) { retryElsewhere() }
var (
	// ErrNoSuchMethod: the method name did not resolve on the target
	// class — raised client-side by the typed API and server-side by the
	// dispatcher.
	ErrNoSuchMethod = errs.ErrNoSuchMethod
	// ErrNoSuchClass: the class was never registered on the node asked to
	// instantiate it.
	ErrNoSuchClass = errs.ErrNoSuchClass
	// ErrNodeDown: the hosting node could not be reached (dial or I/O
	// failure on the remoting channel).
	ErrNodeDown = errs.ErrNodeDown
	// ErrObjectDestroyed: the parallel object was destroyed before the
	// call executed.
	ErrObjectDestroyed = errs.ErrObjectDestroyed
	// ErrObjectMoved: the parallel object live-migrated to another node.
	// Proxies re-route and retry transparently, so user code normally
	// never sees this; it surfaces only when a forward cannot be followed
	// (for example the whole tombstone chain is gone).
	ErrObjectMoved = errs.ErrObjectMoved
	// ErrBadConversion: a dynamically typed result could not be converted
	// to the requested static type (see As).
	ErrBadConversion = errs.ErrBadConversion
	// ErrOverloaded: the target object's bounded mailbox was full (see
	// WithMailboxBound) and the call was shed without executing. Unlike
	// ErrObjectMoved / ErrNodeDown the runtime does not retry it
	// transparently — it is the admission-control signal. Retry with
	// jittered exponential backoff, or spread the work across more
	// objects or nodes. Survives the wire in both reply envelopes.
	ErrOverloaded = errs.ErrOverloaded
	// ErrCanceled aliases context.Canceled: the caller's context was
	// canceled while the call was queued or in flight.
	ErrCanceled = context.Canceled
	// ErrDeadlineExceeded aliases context.DeadlineExceeded: the caller's
	// deadline expired locally or on the hosting node.
	ErrDeadlineExceeded = context.DeadlineExceeded
)
