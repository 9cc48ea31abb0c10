package core

import (
	"context"
	"fmt"
	"sync"
)

// maxInlineDepth bounds how many continuation frames run nested on one
// completion delivery before the chain hops to a fresh goroutine. The
// bound keeps completion-path latency predictable and the stack shallow: a
// reply that resolves a Then chain runs the first few links inline on the
// mux reader and ships the rest elsewhere.
const maxInlineDepth = 8

// sub is one registered continuation, stored as given: fn to tell
// (OnComplete), at to tell with the index i it was registered under
// (OnCompleteAt), or child to resolve with what then makes of the outcome
// (ThenAny; a nil then passes the outcome on).
type sub struct {
	fn    func(any, error)
	at    func(int, any, error)
	i     int
	then  func(any, error) (any, error)
	child *Future
}

func (s sub) isSet() bool { return s.fn != nil || s.at != nil || s.child != nil }

// canceller is what a Future abandons when it is cancelled: the call in
// flight on a connection, or the future this one waits on.
type canceller interface{ Cancel() }

// Future is the handle of an asynchronous call with a result. It is a
// completion-driven promise: the party that resolves it (the mux reader on
// reply arrival, for remote calls) runs the registered continuations
// directly — a pending future parks no goroutine, and ten thousand
// outstanding calls cost ten thousand heap objects, not ten thousand
// stacks. Waiting (Get) lazily materialises a done channel; chaining
// (ThenAny / OnComplete) does not. It is also the unit of cancellation
// (Cancel): no context is derived per call.
type Future struct {
	mu        sync.Mutex
	completed bool
	val       any
	err       error
	done      chan struct{} // lazily created; closed on completion
	first     sub           // the first continuation lives in the future
	more      *[]sub        // the second and later ones, allocated for the second
	abort     canceller     // see setAbort
}

// NewPromise returns an unresolved Future and its resolver. The resolver
// completes the future exactly once (later calls are ignored) and runs the
// registered continuations on the calling goroutine, up to the inline
// depth bound. It is the building block of the parc combinators.
func NewPromise() (*Future, func(any, error)) {
	f := &Future{}
	return f, f.complete
}

// ResolvedFuture returns a future already completed with (v, err).
func ResolvedFuture(v any, err error) *Future {
	return &Future{completed: true, val: v, err: err}
}

// complete resolves the future at depth 0.
func (f *Future) complete(v any, err error) { f.completeAt(v, err, 0) }

// completeAt resolves the future and delivers to every registered
// continuation, threading the inline-depth budget through the chain. First
// completion wins and is handed the abort hook; the rest are no-ops (a
// future fed by a reply, a Cancel and its context's end needs exactly this).
func (f *Future) completeAt(v any, err error, depth int) (abort canceller) {
	f.mu.Lock()
	if f.completed {
		f.mu.Unlock()
		return nil
	}
	f.completed = true
	f.val, f.err = v, err
	first, more, done, abort := f.first, f.more, f.done, f.abort
	f.first, f.more, f.abort = sub{}, nil, nil
	f.mu.Unlock()
	if done != nil {
		close(done)
	}
	if first.isSet() {
		f.deliver(first, depth)
	}
	if more != nil {
		for _, s := range *more {
			f.deliver(s, depth)
		}
	}
	return abort
}

// Cancel resolves a pending future with context.Canceled and abandons what
// it stood for: a call in flight gives its slot back and its late reply is
// dropped (the hosting node may still execute it), a call queued in a
// mailbox or in its proxy's queue is declined when its turn comes, a derived
// future cancels the one it derives from. A resolved future is left as it
// is.
func (f *Future) Cancel() {
	if abort := f.completeAt(nil, context.Canceled, 0); abort != nil {
		abort.Cancel()
	}
}

// setAbort names what a Cancel of f abandons from here on. A future that
// already has its outcome has no use for c and cancels it at once.
func (f *Future) setAbort(c canceller) {
	f.mu.Lock()
	pending := !f.completed
	if pending {
		f.abort = c
	}
	f.mu.Unlock()
	if !pending {
		c.Cancel()
	}
}

// resolved reports whether the future has its outcome. A queue asks at a
// call's turn, and declines one that was cancelled while it waited.
func (f *Future) resolved() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.completed
}

// deliver runs one continuation: inline while the depth budget lasts,
// otherwise on a fresh goroutine.
func (f *Future) deliver(s sub, depth int) {
	switch {
	case depth >= maxInlineDepth:
		go f.deliver(s, 0)
	case s.at != nil:
		s.at(s.i, f.val, f.err)
	case s.child == nil:
		s.fn(f.val, f.err)
	case s.then == nil:
		s.child.completeAt(f.val, f.err, depth+1)
	default:
		v, err := runContinuation(s.then, f.val, f.err)
		s.child.completeAt(v, err, depth+1)
	}
}

// subscribe registers a continuation, running it immediately (depth 0, on
// the caller) when the future is already resolved — Then after completion
// behaves exactly like Then before it.
func (f *Future) subscribe(s sub) {
	f.mu.Lock()
	switch {
	case f.completed:
		f.mu.Unlock()
		f.deliver(s, 0)
		return
	case !f.first.isSet():
		f.first = s
	case f.more == nil:
		f.more = &[]sub{s}
	default:
		*f.more = append(*f.more, s)
	}
	f.mu.Unlock()
}

// OnComplete registers fn to run with the future's outcome: immediately if
// already resolved, on the completion path otherwise. fn must not block —
// for remote calls the completion path is the connection's reader
// goroutine, shared by every caller on that lane.
func (f *Future) OnComplete(fn func(any, error)) { f.subscribe(sub{fn: fn}) }

// OnCompleteAt is OnComplete for an aggregate: fn is told which of its
// members resolved, so the one fn is registered as it is on every member and
// no closure is built per member to carry the index.
func (f *Future) OnCompleteAt(i int, fn func(int, any, error)) { f.subscribe(sub{at: fn, i: i}) }

// ThenAny returns a future resolved by fn applied to this future's
// outcome. fn runs on the completion path (bounded inline depth, overflow
// to a fresh goroutine); a panic inside it resolves the derived future with
// an error instead of unwinding the deliverer. Cancelling the derived future
// cancels this one. Typed chaining lives in the parc package (Then /
// Catch); this is their dynamically typed engine.
func (f *Future) ThenAny(fn func(any, error) (any, error)) *Future {
	child := &Future{abort: f}
	f.subscribe(sub{then: fn, child: child})
	return child
}

// Chain returns a future that resolves as the future step returns does; step
// runs on the completion path with f's outcome, unless the chain was
// cancelled first. Cancelling the chain cancels whichever of the two it is
// waiting on. A Pipeline stage is one Chain.
func Chain(f *Future, step func(any, error) *Future) *Future {
	chain := &Future{abort: f}
	f.OnComplete(func(v any, err error) {
		if !chain.resolved() {
			next := step(v, err)
			chain.setAbort(next)
			next.subscribe(sub{child: chain})
		}
	})
	return chain
}

// runContinuation applies fn with panic containment: the deliverer (a
// shared reader goroutine) must survive any user continuation.
func runContinuation(fn func(any, error) (any, error), v any, err error) (rv any, rerr error) {
	defer func() {
		if p := recover(); p != nil {
			rerr = fmt.Errorf("core: continuation panic: %v", p)
		}
	}()
	return fn(v, err)
}

// Done returns a channel closed on completion.
func (f *Future) Done() <-chan struct{} {
	f.mu.Lock()
	if f.done == nil {
		f.done = make(chan struct{})
		if f.completed {
			close(f.done)
		}
	}
	d := f.done
	f.mu.Unlock()
	return d
}

// Get blocks until the call completes.
func (f *Future) Get() (any, error) {
	f.mu.Lock()
	if f.completed {
		v, err := f.val, f.err
		f.mu.Unlock()
		return v, err
	}
	f.mu.Unlock()
	<-f.Done()
	// The close happens after val/err were written under mu, so this read
	// is ordered after them.
	return f.val, f.err
}
