package parc

import (
	"errors"
	"sync/atomic"

	"repro/internal/core"
)

// This file holds the dataflow combinators over Result[R]: Then / Catch
// continuations and the WhenAll / WhenAny aggregators. All of them chain
// on the completion path — a pending combinator parks no goroutine, and
// aggregating N results costs N subscriptions, not N waiters. The
// continuation functions run on whatever goroutine resolves the future
// (for remote calls, a connection's reader), so they must not block; see
// the README's "Dataflow combinators & skeletons" section for the rules.

// Then returns a Result resolved by fn applied to r's value. fn runs on
// the completion path once r resolves successfully; an error in r (or a
// failed conversion to A) skips fn and propagates. A panic in fn resolves
// the derived Result with an error, and cancelling the derived Result
// cancels r. The derived Result and fn are one allocation, and fn's value
// settles in its slot. (Then is a function rather than a method because Go
// methods cannot introduce the result type parameter B.)
func Then[B any, A any](r *Result[A], fn func(A) (B, error)) *Result[B] {
	t := &then[B, A]{fn: fn}
	r.fut().ThenInto(t)
	return &t.Result
}

// then is Then's derived Result with its function: a core.Step.
type then[B, A any] struct {
	Result[B]
	fn func(A) (B, error)
}

// Then implements core.Step.
func (t *then[B, A]) Then(v any, err error) (any, error) {
	a, err := resultOf[A](v, err)
	if err != nil {
		return nil, err
	}
	return t.slot.hold(t.fn(a))
}

// Catch returns a Result that resolves to r's value when the call
// succeeds, and to fn's recovery otherwise. fn runs on the completion
// path; a panic inside it resolves the derived Result with an error.
func (r *Result[R]) Catch(fn func(error) (R, error)) *Result[R] {
	c := &catch[R]{fn: fn}
	r.fut().ThenInto(c)
	return &c.Result
}

// catch is Catch's derived Result with its function: a core.Step.
type catch[R any] struct {
	Result[R]
	fn func(error) (R, error)
}

// Then implements core.Step.
func (c *catch[R]) Then(v any, err error) (any, error) {
	if err != nil {
		return c.slot.hold(c.fn(err))
	}
	return c.slot.hold(resultOf[R](v, nil))
}

// WhenAll aggregates every input into one Result that resolves when the
// last of them does: with the values in input order on success, or with
// errors.Join of the failures — also in input order, regardless of
// completion order — when any input failed. The aggregate is one record,
// beside the values: it is registered as it is on every input, under the
// input's index, and counts completions down; no goroutine waits and
// nothing is allocated per element. A failure is only noted as it lands:
// once the last input has, each input's error is read back from the input
// itself, every one of them having resolved.
func WhenAll[R any](rs ...*Result[R]) *Result[[]R] {
	all := &allOf[R]{rs: rs}
	all.slot.val = make([]R, len(rs))
	if len(rs) == 0 {
		core.Resolve(all, &all.slot, nil)
		return &all.Result
	}
	all.remaining.Store(int64(len(rs)))
	for i, r := range rs {
		r.fut().OnCompleteAt(i, all)
	}
	return &all.Result
}

// allOf is WhenAll's aggregate: its Result, whose slot holds the values, and
// the count of inputs still pending. It is a core.Aggregate.
type allOf[R any] struct {
	Result[[]R]
	rs        []*Result[R]
	remaining atomic.Int64
	failed    atomic.Bool
}

// MemberDone implements core.Aggregate: input i resolved. The value writes
// happen before the Add that hands off the last count, and the final Add
// observes all prior Adds, so finish reads every value safely.
func (all *allOf[R]) MemberDone(i int, v any, err error) {
	if all.slot.val[i], err = resultOf[R](v, err); err != nil {
		all.failed.Store(true)
	}
	if all.remaining.Add(-1) == 0 {
		all.finish()
	}
}

// finish resolves the aggregate once every input has resolved.
func (all *allOf[R]) finish() {
	if !all.failed.Load() {
		core.Resolve(all, &all.slot, nil)
		return
	}
	var errs []error
	for _, r := range all.rs {
		if _, err := resultOf[R](r.fut().Get()); err != nil {
			errs = append(errs, err)
		}
	}
	core.Resolve(all, nil, errors.Join(errs...))
}

// ErrWhenAnyEmpty is returned by WhenAny called with no inputs.
var ErrWhenAnyEmpty = errors.New("parc: WhenAny of zero results")

// WhenAny resolves with the first input to complete — success or failure —
// and cancels the losing calls: each loser resolves with context.Canceled,
// gives back its in-flight slot and has its late reply dropped (its server
// may still execute it; cancellation aborts the wait, not the work already
// dispatched). A loser derived by Then, Catch or Pipeline cancels the call
// it is waiting on.
func WhenAny[R any](rs ...*Result[R]) *Result[R] {
	if len(rs) == 0 {
		return failed[R](ErrWhenAnyEmpty)
	}
	first := &anyOf[R]{rs: rs}
	for i, r := range rs {
		if first.won.Load() {
			break
		}
		r.fut().OnCompleteAt(i, first)
	}
	return &first.Result
}

// anyOf is WhenAny's aggregate: its Result and whether an input has won. It
// is a core.Aggregate.
type anyOf[R any] struct {
	Result[R]
	rs  []*Result[R]
	won atomic.Bool
}

// MemberDone implements core.Aggregate: the first input to resolve wins, and
// the others are cancelled.
func (first *anyOf[R]) MemberDone(i int, v any, err error) {
	if !first.won.CompareAndSwap(false, true) {
		return
	}
	core.Resolve(first, v, err)
	for j, l := range first.rs {
		if j != i {
			l.fut().Cancel()
		}
	}
}
