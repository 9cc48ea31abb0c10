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
// arrives through InvokeNested, method and list as decoded; the thunks
// below serve a call whose argument list is not in the nested-call shape
// and a dispatch by name.
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

// endpointTypes lists every concrete endpoint. Each gets the two invoker
// thunks below, so the server dispatches a runtime call without
// reflection, as it does a generated class; a type missing here still
// works, through dispatch's reflective path.
var endpointTypes = []endpoint{(*actorEndpoint)(nil), (*ioWrapper)(nil), (*tombstone)(nil)}

func init() {
	thunks := map[string]dispatch.Invoker{}
	for _, call := range []string{"Invoke1", "InvokeBatch"} {
		thunks[call] = func(ctx context.Context, obj any, args []any) (any, error) {
			method, rest, err := endpointArgs(obj, call, args)
			if err != nil {
				return nil, err
			}
			return invokeNested(ctx, obj.(endpoint), call, method, rest)
		}
	}
	for _, ep := range endpointTypes {
		dispatch.RegisterInvokers(ep, thunks)
	}
}

// endpointArgs binds the wire arguments of an endpoint call, (string,
// []any), with the conversions and error shapes of the reflective path.
func endpointArgs(obj any, name string, args []any) (string, []any, error) {
	if len(args) != 2 {
		return "", nil, dispatch.BadArity(obj, name, len(args), 2)
	}
	method, err := dispatch.Arg[string](args, 0)
	if err != nil {
		return "", nil, dispatch.BadArg(obj, name, 0, err)
	}
	rest, err := dispatch.Arg[[]any](args, 1)
	if err != nil {
		return "", nil, dispatch.BadArg(obj, name, 1, err)
	}
	return method, rest, nil
}

// publish puts ep at uri on this node's server under a fresh lease,
// replacing whatever was there; onExpire (may be nil) runs if the lease
// lapses idle.
func (rt *Runtime) publish(uri string, ep endpoint, onExpire func()) {
	rt.server.Republish(uri, ep, onExpire)
}
