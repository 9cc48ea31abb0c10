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
// unit of bookkeeping too: its members' Results, each its call's Future
// and typed slot, are one allocation (see Result), and each member's
// attempt, with the connection's record, is its proxy's, lent while the
// member's call is in flight.
func Scatter[R any, T any](ctx context.Context, g *Group[T], method string, argsFor func(i int) []any) []*Result[R] {
	rs := make([]*Result[R], g.Size())
	if err := checkMethod[T](method); err != nil {
		return allFailed(rs, err)
	}
	wave := make([]Result[R], len(rs))
	for i := range wave {
		wave[i].start(ctx, g.objs[i].p, method, argsFor(i))
		rs[i] = &wave[i]
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
	n := g.Size()
	pl := &pipeline[R, T]{ctx: ctx, objs: g.objs, method: method,
		calls: make([]core.AsyncCall, (n-1)*len(items)), last: make([]Result[R], len(items))}
	for k, item := range items {
		c, sink := pl.stage(0, k)
		g.objs[0].p.StartAsync(ctx, c, sink, method, []any{item})
		for s := 1; s < n; s++ {
			next, _ := pl.stage(s, k)
			core.Chain(core.FutureOf(c), next, (s-1)*len(items)+k, pl)
			c = next
		}
		out[k] = &pl.last[k]
	}
	return out
}

// pipeline is one Pipeline: its stages' calls, and the Aggregate every
// stage but the last is chained to the next with. Only the last stage's
// value is read, as R: it settles in the item's Result, one of a slab, as a
// wave member's does. The stages before it are untyped, their calls one
// slab; every stage's attempt is its proxy's.
type pipeline[R any, T any] struct {
	ctx    context.Context
	objs   []*Object[T]
	method string
	calls  []core.AsyncCall // stage s < len(objs)-1 of item k at s*len(last)+k
	last   []Result[R]
}

// stage returns where stage s of item k is made, with its typed slot, nil
// before the last stage.
func (pl *pipeline[R, T]) stage(s, k int) (core.Async, core.Sink) {
	if s == len(pl.objs)-1 {
		return &pl.last[k], &pl.last[k].slot
	}
	return &pl.calls[s*len(pl.last)+k], nil
}

// MemberDone implements core.Aggregate: stage s-1 of item k resolved, told
// under the index (s-1)*len(items)+k, and stage s starts with its value, or
// fails with its error. A cancelled item abandons the stage it is in: stage
// s's Future, while its call waits, cancels the one it waits on
// (core.Chain), and once it starts, the call.
func (pl *pipeline[R, T]) MemberDone(i int, v any, err error) {
	s, k := i/len(pl.last)+1, i%len(pl.last)
	c, sink := pl.stage(s, k)
	if err != nil {
		core.Resolve(c, nil, err)
		return
	}
	pl.objs[s].p.StartNext(pl.ctx, c, sink, pl.method, []any{v})
}
