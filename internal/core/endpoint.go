package core

import (
	"context"

	"repro/internal/dispatch"
	"repro/internal/remoting"
)

// endpoint is what the runtime publishes under an object's URI: a remote
// call arrives as Invoke1(method, args) or InvokeBatch(method, calls) on
// it, never as a call on the user's object. Everything published goes
// through Runtime.publish, which takes this interface. A runtime call
// arrives through InvokeNested, the user's method named by the connection's
// handle and the list as decoded; a plain call of either method by name
// takes dispatch's reflective path.
type endpoint interface {
	remoting.NestedInvoker
	Invoke1(ctx context.Context, method string, args []any) (any, error)
	InvokeBatch(ctx context.Context, method string, calls []any) (int, error)
}

// invokeNested is InvokeNested for every endpoint type: the two runtime
// calls go straight to their methods, any other name by the flat list.
func invokeNested(ctx context.Context, ep endpoint, call, method string, args []any) (any, error) {
	switch call {
	case "Invoke1":
		return ep.Invoke1(ctx, method, args)
	case "InvokeBatch":
		n, err := ep.InvokeBatch(ctx, method, args)
		if err != nil {
			return nil, err
		}
		return n, nil
	}
	return dispatch.InvokeCtx(ctx, ep, call, []any{method, args})
}

func (e *actorEndpoint) InvokeNested(ctx context.Context, call, method string, args []any) (any, error) {
	return invokeNested(ctx, e, call, method, args)
}

func (w *ioWrapper) InvokeNested(ctx context.Context, call, method string, args []any) (any, error) {
	return invokeNested(ctx, w, call, method, args)
}

func (t *tombstone) InvokeNested(ctx context.Context, call, method string, args []any) (any, error) {
	return invokeNested(ctx, t, call, method, args)
}

// publish puts ep at uri on this node's server under a fresh lease,
// replacing whatever was there; onExpire (may be nil) runs if the lease
// lapses idle.
func (rt *Runtime) publish(uri string, ep endpoint, onExpire func()) {
	rt.server.Republish(uri, ep, onExpire)
}
