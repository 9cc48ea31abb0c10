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
// cancels r. (Then is a function rather than a method because Go methods
// cannot introduce the result type parameter B.)
func Then[B any, A any](r *Result[A], fn func(A) (B, error)) *Result[B] {
	cf := r.f.ThenAny(func(v any, err error) (any, error) {
		a, err := resultOf[A](v, err)
		if err != nil {
			return nil, err
		}
		return fn(a)
	})
	return &Result[B]{f: cf}
}

// Catch returns a Result that resolves to r's value when the call
// succeeds, and to fn's recovery otherwise. fn runs on the completion
// path; a panic inside it resolves the derived Result with an error.
func (r *Result[R]) Catch(fn func(error) (R, error)) *Result[R] {
	cf := r.f.ThenAny(func(v any, err error) (any, error) {
		if err == nil {
			return v, nil
		}
		return fn(err)
	})
	return &Result[R]{f: cf}
}

// WhenAll aggregates every input into one Result that resolves when the
// last of them does: with the values in input order on success, or with
// errors.Join of the failures — also in input order, regardless of
// completion order — when any input failed. It subscribes one function to
// every input, under the input's index, and counts completions down; no
// goroutine waits and nothing is allocated per element. A failure is only
// noted as it lands: once the last input has, each input's error is read
// back from the input itself, every one of them having resolved.
func WhenAll[R any](rs ...*Result[R]) *Result[[]R] {
	f, resolve := core.NewPromise()
	n := len(rs)
	if n == 0 {
		resolve([]R{}, nil)
		return &Result[[]R]{f: f}
	}
	vals := make([]R, n)
	var count struct {
		remaining atomic.Int64
		failed    atomic.Bool
	}
	count.remaining.Store(int64(n))
	// The slot writes below happen before the Add that hands off the last
	// count, and the final Add observes all prior Adds, so finish reads
	// every slot safely.
	finish := func() {
		if !count.failed.Load() {
			resolve(vals, nil)
			return
		}
		var errs []error
		for _, r := range rs {
			if _, err := resultOf[R](r.f.Get()); err != nil {
				errs = append(errs, err)
			}
		}
		resolve(nil, errors.Join(errs...))
	}
	member := func(i int, v any, err error) {
		if vals[i], err = resultOf[R](v, err); err != nil {
			count.failed.Store(true)
		}
		if count.remaining.Add(-1) == 0 {
			finish()
		}
	}
	for i, r := range rs {
		r.f.OnCompleteAt(i, member)
	}
	return &Result[[]R]{f: f}
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
	f, resolve := core.NewPromise()
	out := &Result[R]{f: f}
	if len(rs) == 0 {
		resolve(nil, ErrWhenAnyEmpty)
		return out
	}
	var won atomic.Bool
	claim := func(idx int, v any, err error) {
		if !won.CompareAndSwap(false, true) {
			return
		}
		resolve(v, err)
		for j, l := range rs {
			if j != idx {
				l.f.Cancel()
			}
		}
	}
	for i, r := range rs {
		if won.Load() {
			break
		}
		r.f.OnCompleteAt(i, claim)
	}
	return out
}
