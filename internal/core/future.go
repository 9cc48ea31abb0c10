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

// sub is one registered continuation, stored as given in cb: an Aggregate
// to tell with the index i it was registered under (OnCompleteAt, Chain), a
// Step whose future to resolve with its Then of the outcome (ThenInto), or a
// waiter's channel to close (Done). A pending future holds its first
// continuation, and a *[]sub of all of them once there are two (see Future).
type sub struct {
	cb any
	i  int
}

// canceller is what a Future abandons when it is cancelled: the call in
// flight on a connection, or the future this one waits on.
type canceller interface{ Cancel() }

// Future is the handle of an asynchronous call with a result. It is a
// completion-driven promise: the party that resolves it (the mux reader on
// reply arrival, for remote calls) runs the registered continuations
// directly — a pending future parks no goroutine, and ten thousand
// outstanding calls cost ten thousand heap objects, not ten thousand
// stacks. A waiter (Get, Done) registers a channel as one more
// continuation, which the resolution closes; chaining (ThenInto,
// OnCompleteAt) makes none. It is also the unit of cancellation (Cancel): no
// context is derived per call.
type Future struct {
	mu sync.Mutex
	// val and err are the outcome once the future has resolved (outcome),
	// and at is then resolvedAt. Until then they hold what it owes instead
	// (owed): val what a Cancel abandons (arm), err its continuations,
	// the first registered at index at (see sub). An asynchronous call's
	// Future lives in the caller's record of the call, and a Scatter wave's
	// records are one slab, so every field here is paid once per member.
	val, err any
	at       int
}

// resolvedAt is the at of a resolved future: no continuation is registered
// at a negative index (OnCompleteAt), so a pending future never holds it.
const resolvedAt = -1

// resolvedDone is the channel Done returns once the future has resolved. The
// channel a waiter registered before is closed by the resolution.
var resolvedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// owed returns, with mu held, what a pending future owes: its continuations
// and what a Cancel abandons.
func (f *Future) owed() (first sub, abort canceller) {
	abort, _ = f.val.(canceller)
	return sub{cb: f.err, i: f.at}, abort
}

// outcome returns a resolved future's value and error.
func (f *Future) outcome() (any, error) {
	err, _ := f.err.(error)
	return f.val, err
}

// complete resolves the future at depth 0.
func (f *Future) complete(v any, err error) { f.completeAt(v, err, 0) }

// completeAt resolves the future and delivers to every registered
// continuation, threading the inline-depth budget through the chain. First
// completion wins (won) and is handed the abort hook; the rest are no-ops (a
// future fed by a reply, a Cancel and its context's end needs exactly this).
func (f *Future) completeAt(v any, err error, depth int) (won bool, abort canceller) {
	f.mu.Lock()
	if f.at == resolvedAt {
		f.mu.Unlock()
		return false, nil
	}
	first, abort := f.owed()
	f.val, f.err, f.at = v, err, resolvedAt
	f.mu.Unlock()
	if first.cb != nil {
		f.deliver(first, depth)
	}
	return true, abort
}

// Cancel resolves a pending future with context.Canceled and abandons what
// it stood for: a call in flight gives its slot back and its late reply is
// dropped (the hosting node may still execute it), a call queued in a
// mailbox or in its proxy's queue is declined when its turn comes, a derived
// future cancels the one it derives from. A resolved future is left as it
// is.
func (f *Future) Cancel() {
	if _, abort := f.completeAt(nil, context.Canceled, 0); abort != nil {
		abort.Cancel()
	}
}

// arm names c what a Cancel abandons (a remote call as it is submitted, its
// backoff, the future a Chain waits on), and reports false for a future
// resolved already.
func (f *Future) arm(c canceller) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.at == resolvedAt {
		return false
	}
	f.val = c
	return true
}

// disarm takes back what a Cancel abandons, before the call is sent again,
// and reports false for a future resolved already: its Cancel may still be
// at the call's record, and the call goes no further.
func (f *Future) disarm() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.at == resolvedAt {
		return false
	}
	f.val = nil
	return true
}

// resolved reports whether the future has its outcome. A queue asks at a
// call's turn, and declines one that was cancelled while it waited.
func (f *Future) resolved() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.at == resolvedAt
}

// deliver runs one continuation: inline while the depth budget lasts,
// otherwise on a fresh goroutine. A waiter's channel is closed at once.
func (f *Future) deliver(s sub, depth int) {
	switch cb := s.cb.(type) {
	case *[]sub:
		for _, s := range *cb {
			f.deliver(s, depth)
		}
		return
	case chan struct{}:
		close(cb)
		return
	}
	if depth >= maxInlineDepth {
		go f.deliver(s, 0)
		return
	}
	v, err := f.outcome()
	switch cb := s.cb.(type) {
	case Aggregate:
		cb.MemberDone(s.i, v, err)
	case Step:
		v, err := runStep(cb, v, err)
		cb.asyncCall().fut.completeAt(v, err, depth+1)
	}
}

// subscribe registers a continuation, running it immediately (depth 0, on
// the caller) when the future is already resolved — Then after completion
// behaves exactly like Then before it.
func (f *Future) subscribe(s sub) {
	f.mu.Lock()
	if f.at == resolvedAt {
		f.mu.Unlock()
		f.deliver(s, 0)
		return
	}
	f.add(s)
	f.mu.Unlock()
}

// add registers s, with mu held, on a pending future.
func (f *Future) add(s sub) {
	switch first := f.err.(type) {
	case nil:
		f.err, f.at = s.cb, s.i
	case *[]sub:
		*first = append(*first, s)
	default:
		f.err, f.at = &[]sub{{cb: first, i: f.at}, s}, 0
	}
}

// waiter returns, with mu held, the channel a waiter registered on a pending
// future, if one did.
func (f *Future) waiter() (chan struct{}, bool) {
	switch cb := f.err.(type) {
	case chan struct{}:
		return cb, true
	case *[]sub:
		for _, s := range *cb {
			if c, ok := s.cb.(chan struct{}); ok {
				return c, true
			}
		}
	}
	return nil, false
}

// Aggregate is what waits on many futures: it is told the outcome of each,
// with the index it registered under (OnCompleteAt), so one Aggregate is
// registered as it is on every member and nothing is built per member to
// carry the index. MemberDone runs on the completion path and must not
// block. A type is an Aggregate or a Step, never both: a continuation that
// is both is told as an Aggregate.
type Aggregate interface {
	MemberDone(i int, v any, err error)
}

// OnCompleteAt registers a to be told the future's outcome under the index
// i, which must not be negative: at once if the future has resolved, on the
// completion path otherwise. For a remote call that path is the
// connection's reader goroutine, shared by every caller on the lane.
func (f *Future) OnCompleteAt(i int, a Aggregate) {
	if i < 0 {
		panic("core: OnCompleteAt at a negative index")
	}
	f.subscribe(sub{cb: a, i: i})
}

// Step is a derived future with the function that resolves it: the Async
// whose future resolves with Then applied to another future's outcome
// (ThenInto), one record for both.
type Step interface {
	Async
	Then(v any, err error) (any, error)
}

// ThenInto resolves s's future with s.Then applied to this future's
// outcome, and returns it. Then runs on the completion path (bounded inline
// depth, overflow to a fresh goroutine); a panic inside it resolves the
// derived future with an error instead of unwinding the deliverer.
// Cancelling the derived future cancels this one. s, zero, serves this one
// derivation. Typed chaining lives in the parc package (Then / Catch); this
// is their dynamically typed engine.
func (f *Future) ThenInto(s Step) *Future {
	child := &s.asyncCall().fut
	child.val = f // what a Cancel abandons (see Future)
	f.subscribe(sub{cb: s})
	return child
}

// Chain makes the call in c the next stage of a chain at f: until that call
// starts (Proxy.StartNext), a Cancel of c's future cancels f, and next is
// told f's outcome under the index i (OnCompleteAt), to start the call or to
// resolve c with f's error (Resolve). A Pipeline stage is one Chain.
func Chain(f *Future, c Async, i int, next Aggregate) {
	c.asyncCall().fut.arm(f)
	f.OnCompleteAt(i, next)
}

// begin readies a pending future for the call a Chain waited to start in
// it: the future the chain waited on is no longer what a Cancel abandons.
// It reports false for a future cancelled while the chain waited, whose call
// must not start.
func (f *Future) begin() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.at == resolvedAt {
		return false
	}
	f.val = nil
	return true
}

// FutureOf returns the future of the call made in c.
func FutureOf(c Async) *Future { return &c.asyncCall().fut }

// Resolve resolves the future of the call made in c with (v, err), unless
// it has resolved already, and runs its continuations on the caller: the
// outcome of a call that never started, or of an aggregate.
func Resolve(c Async, v any, err error) { c.asyncCall().fut.complete(v, err) }

// runStep applies s.Then with panic containment: the deliverer (a shared
// reader goroutine) must survive any user continuation.
func runStep(s Step, v any, err error) (rv any, rerr error) {
	defer func() {
		if p := recover(); p != nil {
			rerr = fmt.Errorf("core: continuation panic: %v", p)
		}
	}()
	return s.Then(v, err)
}

// Done returns a channel closed on completion: the one a waiter registered
// before, while the future is pending, so repeated calls give the same
// channel, and resolvedDone once it has resolved.
func (f *Future) Done() <-chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.at == resolvedAt {
		return resolvedDone
	}
	c, ok := f.waiter()
	if !ok {
		c = make(chan struct{})
		f.add(sub{cb: c})
	}
	return c
}

// Get blocks until the call completes.
func (f *Future) Get() (any, error) {
	// The outcome is written under mu before the waiter's channel is closed,
	// and a resolved future's Done reads at under mu, so this read is ordered
	// after the write either way.
	<-f.Done()
	return f.outcome()
}
