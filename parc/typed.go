package parc

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/keep"
	"repro/internal/wire"
)

// Object is the typed handle of a parallel object whose implementation
// class is the Go type T. It wraps the dynamic Proxy with compile-time
// association to T: method names are checked against T's method set before
// anything touches the wire, every blocking operation takes a
// context.Context, and results come back through the generic Call /
// CallAsync helpers instead of `any`.
//
//	parc.Register[Counter](cl, "counter")
//	obj, err := parc.New[Counter](cl, "counter")
//	_ = obj.Send(ctx, "Add", 2)                      // asynchronous
//	total, err := parc.Call[int](ctx, obj, "Total")  // synchronous, typed
type Object[T any] struct {
	p *core.Proxy
}

// Register registers class on every node of the cluster with the canonical
// factory func() any { return new(T) }.
func Register[T any](c *Cluster, class string) {
	c.RegisterClass(class, func() any { return new(T) })
}

// RegisterAt registers class on a single node runtime; multi-process
// deployments call it on every node (the paper's per-node boot
// registration).
func RegisterAt[T any](rt *Runtime, class string) {
	rt.RegisterClass(class, func() any { return new(T) })
}

// New creates a parallel object of class on the cluster's entry node and
// returns its typed handle. The placement policy decides which node hosts
// it.
func New[T any](c *Cluster, class string) (*Object[T], error) {
	return NewAt[T](c.Entry(), class)
}

// NewAt creates a parallel object of class through rt's object manager.
func NewAt[T any](rt *Runtime, class string) (*Object[T], error) {
	p, err := rt.NewParallelObject(class)
	if err != nil {
		return nil, err
	}
	return &Object[T]{p: p}, nil
}

// Bind rebinds a ProxyRef received as a method argument into a typed
// handle on this node.
func Bind[T any](rt *Runtime, ref ProxyRef) *Object[T] {
	return &Object[T]{p: rt.Attach(ref)}
}

// Proxy exposes the underlying dynamic proxy (the escape hatch to the
// stringly-typed API).
func (o *Object[T]) Proxy() *Proxy { return o.p }

// Ref returns a wire-encodable reference other nodes can Bind.
func (o *Object[T]) Ref() ProxyRef { return o.p.Ref() }

// Class returns the object's registered class name.
func (o *Object[T]) Class() string { return o.p.Class() }

// String implements fmt.Stringer.
func (o *Object[T]) String() string { return o.p.String() }

// Send performs an asynchronous method call with no result (the paper's
// asynchronous calls); on a remote object it leaves together with the
// Sends of its method queued behind it (method-call aggregation). The
// method name is validated against T before sending; an error is returned
// only for immediate failures (unknown method, ctx already done, object
// destroyed) — execution errors flow to Err.
func (o *Object[T]) Send(ctx context.Context, method string, args ...any) error {
	if err := checkMethod[T](method); err != nil {
		return err
	}
	return o.p.PostCtx(ctx, method, args...)
}

// Invoke performs a synchronous method call returning a dynamically typed
// result; prefer the generic Call helper, which converts it. It is ordered
// after all previously sent asynchronous calls on this handle. args is never
// kept: the runtime works on a copy its proxy keeps, so the list a caller
// builds stays on the caller's stack.
func (o *Object[T]) Invoke(ctx context.Context, method string, args ...any) (any, error) {
	if err := checkMethod[T](method); err != nil {
		return nil, err
	}
	return o.p.InvokeCtx(ctx, method, args...)
}

// Wait blocks until every asynchronous call sent on this handle has
// executed, or ctx ends (the calls keep draining in the background).
func (o *Object[T]) Wait(ctx context.Context) error { return o.p.WaitCtx(ctx) }

// Err returns the first error produced by an asynchronous call, if any.
// Call it after Wait to check a stream of Sends.
func (o *Object[T]) Err() error { return o.p.AsyncErr() }

// Destroy releases the parallel object.
func (o *Object[T]) Destroy(ctx context.Context) error { return o.p.DestroyCtx(ctx) }

// Migrate live-migrates the parallel object to cluster node toNode: the
// mailbox pauses and drains, the exported state travels to the new host,
// and a forwarding tombstone re-routes stale callers (including other
// handles to the same object) transparently. This handle follows the move
// immediately; asynchronous calls sent before Migrate are flushed first,
// so the state that travels includes them.
func (o *Object[T]) Migrate(ctx context.Context, toNode int) error {
	return o.p.MigrateCtx(ctx, toNode)
}

// Call performs a synchronous method call on a typed handle and converts
// the result to R, applying the wire layer's canonical conversions. The
// method name is validated against T's method set before the call leaves
// the node. A reply from another node whose result is exactly an R (a
// []byte, a numeric, string or bool slice, a string or a scalar) is decoded
// straight into a typed slot the call borrows, and the R returned is the
// caller's. args is never kept: the runtime works on a copy the handle's
// proxy keeps, so the list a caller (a generated proxy among them) builds
// stays on the caller's stack. (Call is a function rather than a method
// because Go methods cannot introduce the result type parameter R.)
func Call[R any, T any](ctx context.Context, o *Object[T], method string, args ...any) (R, error) {
	var zero R
	if err := checkMethod[T](method); err != nil {
		return zero, err
	}
	st := slotStore[R]()
	s := st.Get(st.kind)
	r, err := resultOf[R](o.p.InvokeInto(ctx, s, method, args))
	if err == nil {
		// After an error the connection's reader may still be writing into
		// s (the ctx ended while the reply was being decoded), so only a
		// call that succeeded gives its slot back.
		st.Put(st.kind, s)
	}
	return r, err
}

// slot is where a reply whose result is exactly an R is decoded: in a
// Result for an asynchronous call, borrowed from slotStore for a blocking
// one, and the value either call finishes with when it holds the result.
// It is the remoting.ResultSink a blocking call gives the runtime.
type slot[R any] struct{ val R }

// DecodeResult implements remoting.ResultSink, on the connection's reader
// and before the call is told its outcome: nothing reads val until the call
// has finished with the slot as its value (resultOf), so a reply that loses
// to a Cancel or a ctx lands in memory nobody looks at.
func (s *slot[R]) DecodeResult(d *wire.Decoder) bool { return d.ValueInto(&s.val) }

// slots is the store of R's slots for blocking calls, with their kind: a
// slot goes back emptied.
type slots[R any] struct {
	keep.Store[slot[R]]
	kind *keep.Kind[slot[R]]
}

// slotStores holds one store per result type.
var slotStores sync.Map // reflect.Type → *slots[R]

// slotStore returns the store of R's slots.
func slotStore[R any]() *slots[R] {
	t := reflect.TypeFor[R]()
	if p, ok := slotStores.Load(t); ok {
		return p.(*slots[R])
	}
	kind := keep.NewKind(func(s *slot[R]) bool { *s = slot[R]{}; return true })
	p, _ := slotStores.LoadOrStore(t, &slots[R]{kind: kind})
	return p.(*slots[R])
}

// CallAsync starts a synchronous-style call without blocking and returns a
// typed future (the delegate BeginInvoke pattern of the paper's Fig. 4).
// The call rides the completion path: no goroutine parks per outstanding
// Result, and Then/Catch continuations chain on reply arrival. ctx bounds
// the call as it is, with no context derived from it: the Result resolves
// with ctx's error when ctx ends first, and the call itself is what
// WhenAny cancels when it loses.
func CallAsync[R any, T any](ctx context.Context, o *Object[T], method string, args ...any) *Result[R] {
	if err := checkMethod[T](method); err != nil {
		return failed[R](err)
	}
	r := new(Result[R])
	r.start(ctx, o.p, method, args)
	return r
}

// start issues the call whose Result r is; r must be zero.
func (r *Result[R]) start(ctx context.Context, p *Proxy, method string, args []any) {
	p.StartAsync(ctx, r, &r.slot, method, args)
}

// Settle implements core.Sink, once, on the completion path and before the
// call's Future resolves: a reply decoded into the slot (v is s) is there
// already, and any other value the call finishes with is converted (As) into
// it. The Future resolves with the slot; a value As refuses fails the call.
func (s *slot[R]) Settle(v any) (any, error) {
	if v != any(s) {
		var err error
		if s.val, err = As[R](v, nil); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// hold settles a derived Result's value v in the slot, for its Future to
// resolve with, or passes err on.
func (s *slot[R]) hold(v R, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	s.val = v
	return s, nil
}

// resultOf is the one place a call's outcome becomes an R, blocking or
// asynchronous: read out of the typed slot when the call finished with one
// as its value, taken as it is when it is an R already, converted (As)
// otherwise.
func resultOf[R any](v any, err error) (R, error) {
	if err == nil {
		switch v := v.(type) {
		case *slot[R]:
			return v.val, nil
		case R:
			return v, nil
		}
	}
	return As[R](v, err)
}

// Result is the typed future returned by CallAsync, and by every combinator
// and skeleton. It is the whole of what an asynchronous call keeps: the
// call's Future (core.AsyncCall, the call's core.Async) and the typed slot
// its outcome settles in (the call's core.Sink), once, before the Future
// resolves: a reply whose type is R exactly (a []byte, a numeric, string or
// bool slice, a string or a scalar, over a connection) is decoded into it,
// and any other value is converted to R there, on the completion path. So
// every Get, and Gather, reads the identical value, or the identical error.
// What serves only the exchange, the attempt with the connection's record,
// is the proxy's, lent while the call is in flight. The Results of one
// Scatter are one allocation: holding one of them keeps the whole wave
// alive, every member's Future and value. Copy the value out of a Result
// that is kept for long.
type Result[R any] struct {
	async

	// slot is written by whoever settles the outcome as a value (the reply's
	// decode, the slot's Settle, or a combinator) before the Future resolves
	// with it, and is read only once it has; after an error a late reply may
	// still be landing in it.
	slot slot[R]
}

// async is the call's Future, embedded under a name of parc's own so that
// Result shows no field of it.
type async = core.AsyncCall

// fut is the Future of r's call.
func (r *Result[R]) fut() *Future { return core.FutureOf(r) }

// Get blocks until the call completes (or ctx ends) and returns its value as
// R. Repeated calls are idempotent: every Get returns the identical value
// and error. A Get abandoned because ctx ended returns ctx.Err() — the call
// keeps running and a later Get still observes its outcome.
func (r *Result[R]) Get(ctx context.Context) (R, error) {
	var zero R
	if ctx == nil {
		ctx = context.Background()
	}
	f := r.fut()
	if ctx.Done() != nil {
		select {
		case <-f.Done():
		case <-ctx.Done():
			// Check completion once more: a future resolved between the
			// select's two ready cases should win over the ctx error.
			select {
			case <-f.Done():
			default:
				return zero, ctx.Err()
			}
		}
	}
	return resultOf[R](f.Get())
}

// Done returns a channel closed when the call completes.
func (r *Result[R]) Done() <-chan struct{} { return r.fut().Done() }

// failed is the Result of a call that never started, resolved in place.
func failed[R any](err error) *Result[R] {
	r := new(Result[R])
	core.Resolve(r, nil, err)
	return r
}

// checkMethod fails fast, before any network traffic, when method is not
// in *T's method set; the error names the candidates and wraps
// ErrNoSuchMethod.
func checkMethod[T any](method string) error {
	t := reflect.TypeOf((*T)(nil))
	if set, ok := methodSets.Load(t); ok {
		if _, ok := set.(map[string]struct{})[method]; ok {
			return nil
		}
	}
	if _, ok := t.MethodByName(method); ok {
		set := make(map[string]struct{}, t.NumMethod())
		for i := 0; i < t.NumMethod(); i++ {
			set[t.Method(i).Name] = struct{}{}
		}
		methodSets.Store(t, set)
		return nil
	}
	names := make([]string, 0, t.NumMethod())
	for i := 0; i < t.NumMethod(); i++ {
		names = append(names, t.Method(i).Name)
	}
	candidates := "no exported methods"
	if len(names) > 0 {
		candidates = "exported methods: " + strings.Join(names, ", ")
	}
	return fmt.Errorf("parc: %s has no method %q (%s): %w", t.Elem(), method, candidates, ErrNoSuchMethod)
}

// methodSets caches the method set of every *T a good method name has been
// checked against, so the per-call check is two map lookups instead of
// reflect's MethodByName. Only a name that exists adds an entry, so
// caller-supplied bad names cannot grow it beyond one set per type.
var methodSets sync.Map // reflect.Type → map[string]struct{}
