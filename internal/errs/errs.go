// Package errs defines the runtime's typed error taxonomy: sentinel errors
// that every layer (dispatch, remoting, core, the parc facade) wraps with
// %w so callers can branch with errors.Is, plus the compact wire codes that
// carry a sentinel's identity across a remoting hop. The parc package
// re-exports the sentinels as part of the public API.
package errs

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Sentinel errors. Cancellation and deadline expiry have none of their
// own: the context package's sentinels, context.Canceled and
// context.DeadlineExceeded, are the ones every layer wraps.
var (
	// ErrNoSuchMethod: a method name did not resolve on the target class.
	ErrNoSuchMethod = errors.New("no such method")
	// ErrNoSuchClass: a class name was never registered on the node.
	ErrNoSuchClass = errors.New("class not registered")
	// ErrNodeDown: the hosting node could not be reached (dial or I/O
	// failure on the remoting channel).
	ErrNodeDown = errors.New("node unreachable")
	// ErrObjectDestroyed: the parallel object was destroyed before or
	// while the call was queued.
	ErrObjectDestroyed = errors.New("parallel object destroyed")
	// ErrObjectMoved: the parallel object migrated to another node. The
	// error chain normally carries a *MovedError with the new location so
	// callers can re-route without a directory round trip.
	ErrObjectMoved = errors.New("parallel object moved")
	// ErrBadConversion: a dynamically typed result could not be converted
	// to the requested static type.
	ErrBadConversion = errors.New("result conversion failed")
	// ErrOverloaded: the target object's bounded mailbox was full (or its
	// node is shedding load) and the call was rejected without executing.
	// This is a fast-fail admission decision, not a transport failure: the
	// proxy layer deliberately does NOT retry it transparently (unlike
	// ErrObjectMoved / ErrNodeDown). Callers should treat it as retryable
	// after backing off — retry against the same object with jittered
	// exponential backoff, or spread work across more objects — and must
	// expect it under sustained overload. The code survives both the string
	// and the compact reply envelopes, so errors.Is(err, ErrOverloaded)
	// works across any remoting hop.
	ErrOverloaded = errors.New("overloaded")
)

// Wire codes: the callResponse carries one of these so the client side can
// rebuild the sentinel chain after the error text crossed the network.
const (
	codeNone         = ""
	codeNoSuchMethod = "no-such-method"
	codeNoSuchClass  = "no-such-class"
	codeDestroyed    = "destroyed"
	codeNodeDown     = "node-down"
	codeCanceled     = "canceled"
	codeDeadline     = "deadline"
	CodeMoved        = "moved"
	CodeOverloaded   = "overloaded"
)

// MovedError is the forwarding half of ErrObjectMoved: it names where the
// object lives now, and at which migration generation that information was
// produced. Generations are monotonic per object, so a receiver can ignore
// a forward older than what it already knows. The remoting layer carries
// the three location fields in its reply envelope, so the whole error —
// not just its identity — survives the wire.
type MovedError struct {
	// URI is the moved object's (stable) URI.
	URI string
	// Node and Addr are the hosting node's cluster index and transport
	// address after the move.
	Node int
	Addr string
	// Gen is the object's migration generation at Addr (bumped on every
	// move).
	Gen uint64
}

// Error implements error.
func (e *MovedError) Error() string {
	return fmt.Sprintf("object %s moved to node %d (%s, generation %d)", e.URI, e.Node, e.Addr, e.Gen)
}

// Unwrap makes errors.Is(err, ErrObjectMoved) true.
func (e *MovedError) Unwrap() error { return ErrObjectMoved }

// overloadedError is ErrOverloaded with a retry-after hint: the shedding
// side knows how long its backlog needs to drain, so it tells the caller
// when a retry has a chance instead of leaving every client to guess the
// same (synchronized) backoff. The remoting layer carries the hint in both
// reply envelopes; RetryAfter extracts it on the client side.
type overloadedError struct {
	// RetryAfter is the server's drain estimate. Zero means no hint.
	RetryAfter time.Duration
	// Err is the underlying shed error (wraps ErrOverloaded).
	Err error
}

// Error implements error.
func (e *overloadedError) Error() string { return e.Err.Error() }

// Unwrap keeps errors.Is(err, ErrOverloaded) true.
func (e *overloadedError) Unwrap() error { return e.Err }

// WithRetryAfter attaches a retry-after hint to a shed error. A zero or
// negative hint returns err unchanged.
func WithRetryAfter(err error, d time.Duration) error {
	if err == nil || d <= 0 {
		return err
	}
	return &overloadedError{RetryAfter: d, Err: err}
}

// RetryAfter returns the retry-after hint carried in err's chain, or zero.
func RetryAfter(err error) time.Duration {
	var oe *overloadedError
	if errors.As(err, &oe) {
		return oe.RetryAfter
	}
	return 0
}

// Code maps an error to its wire code, or "" (codeNone) when no sentinel in
// the chain has one.
func Code(err error) string {
	switch {
	case err == nil:
		return codeNone
	case errors.Is(err, ErrNoSuchMethod):
		return codeNoSuchMethod
	case errors.Is(err, ErrNoSuchClass):
		return codeNoSuchClass
	case errors.Is(err, ErrObjectMoved):
		return CodeMoved
	case errors.Is(err, ErrObjectDestroyed):
		return codeDestroyed
	case errors.Is(err, ErrNodeDown):
		return codeNodeDown
	case errors.Is(err, ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, context.DeadlineExceeded):
		return codeDeadline
	case errors.Is(err, context.Canceled):
		return codeCanceled
	}
	return codeNone
}

// Sentinel is the inverse of Code; it returns nil for "" or an
// unknown code.
func Sentinel(code string) error {
	switch code {
	case codeNoSuchMethod:
		return ErrNoSuchMethod
	case codeNoSuchClass:
		return ErrNoSuchClass
	case CodeMoved:
		return ErrObjectMoved
	case codeDestroyed:
		return ErrObjectDestroyed
	case codeNodeDown:
		return ErrNodeDown
	case CodeOverloaded:
		return ErrOverloaded
	case codeDeadline:
		return context.DeadlineExceeded
	case codeCanceled:
		return context.Canceled
	}
	return nil
}
