// Code generated by parcgen; DO NOT EDIT.
// Typed proxy objects for the SCOOPP runtime (paper Figs. 4-6).

package main

import (
	"context"

	"repro/parc"
)

// EchoPO is the typed proxy object (PO) for parallel objects of class "main.Echo".
type EchoPO struct {
	o *parc.Object[Echo]
}

// RegisterEcho registers the Echo factory on a node; call it on every
// node before creating objects (the paper's per-node boot registration).
func RegisterEcho(rt *parc.Runtime) {
	parc.RegisterAt[Echo](rt, "main.Echo")
}

// NewEcho creates a parallel Echo through the object manager.
func NewEcho(rt *parc.Runtime) (*EchoPO, error) {
	o, err := parc.NewAt[Echo](rt, "main.Echo")
	if err != nil {
		return nil, err
	}
	return &EchoPO{o: o}, nil
}

// AttachEcho binds a received reference to a usable proxy.
func AttachEcho(rt *parc.Runtime, ref parc.ProxyRef) *EchoPO {
	return &EchoPO{o: parc.Bind[Echo](rt, ref)}
}

// Object exposes the typed handle.
func (po *EchoPO) Object() *parc.Object[Echo] { return po.o }

// Proxy exposes the underlying dynamic proxy.
func (po *EchoPO) Proxy() *parc.Proxy { return po.o.Proxy() }

// Ref returns a wire-encodable reference to the object.
func (po *EchoPO) Ref() parc.ProxyRef { return po.o.Ref() }

// Wait blocks until all asynchronous calls have executed or ctx ends.
func (po *EchoPO) Wait(ctx context.Context) error { return po.o.Wait(ctx) }

// Destroy releases the parallel object.
func (po *EchoPO) Destroy(ctx context.Context) error { return po.o.Destroy(ctx) }

// Ints invokes the method synchronously and returns its typed result.
func (po *EchoPO) Ints(ctx context.Context, v []int32) ([]int32, error) {
	return parc.Call[[]int32](ctx, po.o, "Ints", v)
}

// BeginInts starts the call asynchronously and returns a typed future.
func (po *EchoPO) BeginInts(ctx context.Context, v []int32) *parc.Result[[]int32] {
	return parc.CallAsync[[]int32](ctx, po.o, "Ints", v)
}

// Bytes invokes the method synchronously and returns its typed result.
func (po *EchoPO) Bytes(ctx context.Context, b []byte) ([]byte, error) {
	return parc.Call[[]byte](ctx, po.o, "Bytes", b)
}

// BeginBytes starts the call asynchronously and returns a typed future.
func (po *EchoPO) BeginBytes(ctx context.Context, b []byte) *parc.Result[[]byte] {
	return parc.CallAsync[[]byte](ctx, po.o, "Bytes", b)
}

// Serve invokes the method synchronously and returns its typed result.
func (po *EchoPO) Serve(ctx context.Context, v []int32) ([]int32, error) {
	return parc.Call[[]int32](ctx, po.o, "Serve", v)
}

// BeginServe starts the call asynchronously and returns a typed future.
func (po *EchoPO) BeginServe(ctx context.Context, v []int32) *parc.Result[[]int32] {
	return parc.CallAsync[[]int32](ctx, po.o, "Serve", v)
}

// Calls invokes the method synchronously and returns its typed result.
func (po *EchoPO) Calls(ctx context.Context) (int64, error) {
	return parc.Call[int64](ctx, po.o, "Calls")
}

// BeginCalls starts the call asynchronously and returns a typed future.
func (po *EchoPO) BeginCalls(ctx context.Context) *parc.Result[int64] {
	return parc.CallAsync[int64](ctx, po.o, "Calls")
}

// init registers typed invoker thunks for Echo: the dispatcher binds
// decoded arguments by type assertion and calls the method directly,
// skipping reflection on the server-side hot path.
func init() {
	parc.RegisterInvokers(&Echo{}, map[string]parc.Invoker{
		"Ints": func(ctx context.Context, obj any, args []any) (any, error) {
			x := obj.(*Echo)
			if len(args) != 1 {
				return nil, parc.BadArity(obj, "Ints", len(args), 1)
			}
			a0, err := parc.Arg[[]int32](obj, "Ints", args, 0)
			if err != nil {
				return nil, err
			}
			return x.Ints(a0), nil
		},
		"Bytes": func(ctx context.Context, obj any, args []any) (any, error) {
			x := obj.(*Echo)
			if len(args) != 1 {
				return nil, parc.BadArity(obj, "Bytes", len(args), 1)
			}
			a0, err := parc.Arg[[]byte](obj, "Bytes", args, 0)
			if err != nil {
				return nil, err
			}
			return x.Bytes(a0), nil
		},
		"Serve": func(ctx context.Context, obj any, args []any) (any, error) {
			x := obj.(*Echo)
			if len(args) != 1 {
				return nil, parc.BadArity(obj, "Serve", len(args), 1)
			}
			a0, err := parc.Arg[[]int32](obj, "Serve", args, 0)
			if err != nil {
				return nil, err
			}
			return x.Serve(a0), nil
		},
		"Calls": func(ctx context.Context, obj any, args []any) (any, error) {
			x := obj.(*Echo)
			if len(args) != 0 {
				return nil, parc.BadArity(obj, "Calls", len(args), 0)
			}
			return x.Calls(), nil
		},
	})
}

// TracerPO is the typed proxy object (PO) for parallel objects of class "main.Tracer".
type TracerPO struct {
	o *parc.Object[Tracer]
}

// RegisterTracer registers the Tracer factory on a node; call it on every
// node before creating objects (the paper's per-node boot registration).
func RegisterTracer(rt *parc.Runtime) {
	parc.RegisterAt[Tracer](rt, "main.Tracer")
}

// NewTracer creates a parallel Tracer through the object manager.
func NewTracer(rt *parc.Runtime) (*TracerPO, error) {
	o, err := parc.NewAt[Tracer](rt, "main.Tracer")
	if err != nil {
		return nil, err
	}
	return &TracerPO{o: o}, nil
}

// AttachTracer binds a received reference to a usable proxy.
func AttachTracer(rt *parc.Runtime, ref parc.ProxyRef) *TracerPO {
	return &TracerPO{o: parc.Bind[Tracer](rt, ref)}
}

// Object exposes the typed handle.
func (po *TracerPO) Object() *parc.Object[Tracer] { return po.o }

// Proxy exposes the underlying dynamic proxy.
func (po *TracerPO) Proxy() *parc.Proxy { return po.o.Proxy() }

// Ref returns a wire-encodable reference to the object.
func (po *TracerPO) Ref() parc.ProxyRef { return po.o.Ref() }

// Wait blocks until all asynchronous calls have executed or ctx ends.
func (po *TracerPO) Wait(ctx context.Context) error { return po.o.Wait(ctx) }

// Destroy releases the parallel object.
func (po *TracerPO) Destroy(ctx context.Context) error { return po.o.Destroy(ctx) }

// Load invokes the method synchronously and returns its typed result.
func (po *TracerPO) Load(ctx context.Context, grid int, width int, height int) (int, error) {
	return parc.Call[int](ctx, po.o, "Load", grid, width, height)
}

// BeginLoad starts the call asynchronously and returns a typed future.
func (po *TracerPO) BeginLoad(ctx context.Context, grid int, width int, height int) *parc.Result[int] {
	return parc.CallAsync[int](ctx, po.o, "Load", grid, width, height)
}

// Rows invokes the method synchronously and returns its typed result.
func (po *TracerPO) Rows(ctx context.Context, y0 int, y1 int) ([]int32, error) {
	return parc.Call[[]int32](ctx, po.o, "Rows", y0, y1)
}

// BeginRows starts the call asynchronously and returns a typed future.
func (po *TracerPO) BeginRows(ctx context.Context, y0 int, y1 int) *parc.Result[[]int32] {
	return parc.CallAsync[[]int32](ctx, po.o, "Rows", y0, y1)
}

// Calls invokes the method synchronously and returns its typed result.
func (po *TracerPO) Calls(ctx context.Context) (int64, error) {
	return parc.Call[int64](ctx, po.o, "Calls")
}

// BeginCalls starts the call asynchronously and returns a typed future.
func (po *TracerPO) BeginCalls(ctx context.Context) *parc.Result[int64] {
	return parc.CallAsync[int64](ctx, po.o, "Calls")
}

// init registers typed invoker thunks for Tracer: the dispatcher binds
// decoded arguments by type assertion and calls the method directly,
// skipping reflection on the server-side hot path.
func init() {
	parc.RegisterInvokers(&Tracer{}, map[string]parc.Invoker{
		"Load": func(ctx context.Context, obj any, args []any) (any, error) {
			x := obj.(*Tracer)
			if len(args) != 3 {
				return nil, parc.BadArity(obj, "Load", len(args), 3)
			}
			a0, err := parc.Arg[int](obj, "Load", args, 0)
			if err != nil {
				return nil, err
			}
			a1, err := parc.Arg[int](obj, "Load", args, 1)
			if err != nil {
				return nil, err
			}
			a2, err := parc.Arg[int](obj, "Load", args, 2)
			if err != nil {
				return nil, err
			}
			return x.Load(a0, a1, a2), nil
		},
		"Rows": func(ctx context.Context, obj any, args []any) (any, error) {
			x := obj.(*Tracer)
			if len(args) != 2 {
				return nil, parc.BadArity(obj, "Rows", len(args), 2)
			}
			a0, err := parc.Arg[int](obj, "Rows", args, 0)
			if err != nil {
				return nil, err
			}
			a1, err := parc.Arg[int](obj, "Rows", args, 1)
			if err != nil {
				return nil, err
			}
			return x.Rows(a0, a1), nil
		},
		"Calls": func(ctx context.Context, obj any, args []any) (any, error) {
			x := obj.(*Tracer)
			if len(args) != 0 {
				return nil, parc.BadArity(obj, "Calls", len(args), 0)
			}
			return x.Calls(), nil
		},
	})
}
