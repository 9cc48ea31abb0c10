package parc

import (
	"context"

	"repro/internal/core"
)

// This file holds the parallel skeletons of the ROADMAP's "typed dataflow
// combinators and parallel skeletons" item: Scatter/Gather, MapReduce and
// Pipeline over a Group of parallel objects. A skeleton round issues every
// member's call through the completion-driven async path, so the calls to
// each destination node coalesce into batched frames on that peer's lane
// (one SendBatch per peer per writer pass, bound handles and the lane's
// encoders reused) instead of paying one synchronous round trip — or one
// parked goroutine — per element.

// Group is a set of typed parallel objects treated as one data-parallel
// worker pool, the unit the skeletons operate over. Members are usually
// spread across the cluster by the placement policy.
type Group[T any] struct {
	objs []*Object[T]
}

// NewGroup creates n parallel objects of class through the cluster's entry
// node — the placement policy spreads them over the nodes — and returns
// them as a group. On error the already-created members are destroyed.
func NewGroup[T any](c *Cluster, class string, n int) (*Group[T], error) {
	g := &Group[T]{objs: make([]*Object[T], 0, n)}
	for i := 0; i < n; i++ {
		o, err := New[T](c, class)
		if err != nil {
			g.Destroy(context.Background()) //nolint:errcheck // best-effort unwind
			return nil, err
		}
		g.objs = append(g.objs, o)
	}
	return g, nil
}

// GroupOf wraps existing handles as a group.
func GroupOf[T any](objs ...*Object[T]) *Group[T] {
	return &Group[T]{objs: objs}
}

// Size returns the number of members.
func (g *Group[T]) Size() int { return len(g.objs) }

// Object returns member i.
func (g *Group[T]) Object(i int) *Object[T] { return g.objs[i] }

// Destroy releases every member, returning the first error.
func (g *Group[T]) Destroy(ctx context.Context) error {
	var first error
	for _, o := range g.objs {
		if err := o.Destroy(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Scatter issues one asynchronous call per member — argsFor(i) supplies
// member i's arguments — and returns the typed futures in member order.
// The whole round is submitted before anything blocks, which is what lets
// per-peer batching collapse the frames: on a 3-node group a 30-element
// scatter is three batched writes, not thirty round trips. The wave is the
// unit of bookkeeping too: its members' Results and Futures are one
// allocation (see Result), and each member's attempt, with the connection's
// record, is its proxy's, lent while the member's call is in flight.
func Scatter[R any, T any](ctx context.Context, g *Group[T], method string, argsFor func(i int) []any) []*Result[R] {
	rs := make([]*Result[R], g.Size())
	if err := checkMethod[T](method); err != nil {
		return allFailed(rs, err)
	}
	wave := make([]asyncResult[R], len(rs))
	for i := range wave {
		rs[i] = wave[i].start(ctx, g.objs[i].p, method, argsFor(i))
	}
	return rs
}

// allFailed fills rs with the Results of a round that never started.
func allFailed[R any](rs []*Result[R], err error) []*Result[R] {
	for i := range rs {
		rs[i] = failed[R](err)
	}
	return rs
}

// Gather collects a scatter round: it blocks until every future resolves
// and returns the values in member order, or the joined errors.
func Gather[R any](ctx context.Context, rs []*Result[R]) ([]R, error) {
	return WhenAll(rs...).Get(ctx)
}

// MapReduce scatters method over the group and folds the gathered results
// in member order: acc = combine(acc, result[i]), starting from zero. The
// fold is sequential and deterministic — combine need not be commutative,
// only the partitioning must not care which member computed which part.
func MapReduce[A any, R any, T any](ctx context.Context, g *Group[T], method string, argsFor func(i int) []any, zero A, combine func(A, R) A) (A, error) {
	vals, err := Gather(ctx, Scatter[R](ctx, g, method, argsFor))
	if err != nil {
		var z A
		return z, err
	}
	acc := zero
	for _, v := range vals {
		acc = combine(acc, v)
	}
	return acc, nil
}

// Pipeline streams items through the group as stages: item k enters member
// 0, whose result feeds member 1, and so on; the returned futures resolve
// to the last member's output, in item order. Stage k+1's call for an item
// is issued from stage k's completion — the whole pipeline advances on
// reply arrivals with no goroutine per item in flight, and different items
// occupy different stages concurrently.
func Pipeline[R any, T any](ctx context.Context, g *Group[T], method string, items []any) []*Result[R] {
	out := make([]*Result[R], len(items))
	err := checkMethod[T](method)
	if err == nil && g.Size() == 0 {
		err = ErrWhenAnyEmpty
	}
	if err != nil {
		return allFailed(out, err)
	}
	// Only the last stage's value is read, as R: it settles in the item's
	// Result, which holds that stage's Future as a wave member's does. The
	// stages before it are untyped, and the first stage's Futures are one
	// allocation, as a wave's; every stage's attempt is its proxy's.
	n := g.Size()
	var first []core.AsyncCall
	if n > 1 {
		first = make([]core.AsyncCall, len(items))
	}
	last := make([]asyncResult[R], len(items))
	for k, item := range items {
		r := &last[k]
		var call core.Async = r // the first stage is the last
		if n > 1 {
			call = &first[k]
		}
		r.f = g.objs[0].p.StartAsync(ctx, call, method, []any{item})
		for i, o := range g.objs[1:] {
			call = r
			if i < n-2 { // a stage between the first and the last
				call = new(core.AsyncCall)
			}
			r.f = thenCall(ctx, r.f, o.p, call, method)
		}
		out[k] = &r.Result
	}
	return out
}

// thenCall flat-maps a future into the next stage's call, made in c: when
// prev resolves, the stage call is issued from the completion path and the
// returned future adopts its outcome. Cancelling it cancels whichever of
// the two is pending, so a cancelled item abandons the stage it is in.
func thenCall(ctx context.Context, prev *Future, p *Proxy, c core.Async, method string) *Future {
	return core.Chain(prev, func(v any, err error) *Future {
		if err != nil {
			return core.ResolvedFuture(nil, err)
		}
		return p.StartAsync(ctx, c, method, []any{v})
	})
}
