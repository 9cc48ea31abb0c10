package core

import (
	"context"

	"repro/internal/dispatch"
)

// endpoint is what the runtime publishes under an object's URI: a remote
// call arrives as Invoke1(method, args) or InvokeBatch(method, calls) on
// it, never as a call on the user's object. Everything published goes
// through Runtime.publish, which takes this interface.
type endpoint interface {
	Invoke1(ctx context.Context, method string, args []any) (any, error)
	InvokeBatch(ctx context.Context, method string, calls []any) (int, error)
}

// endpointTypes lists every concrete endpoint. Each gets the two invoker
// thunks below, so the server dispatches a runtime call without
// reflection, as it does a generated class; a type missing here still
// works, through dispatch's reflective path.
var endpointTypes = []endpoint{(*actorEndpoint)(nil), (*ioWrapper)(nil), (*tombstone)(nil)}

func init() {
	thunks := map[string]dispatch.Invoker{
		"Invoke1": func(ctx context.Context, obj any, args []any) (any, error) {
			method, rest, err := endpointArgs(obj, "Invoke1", args)
			if err != nil {
				return nil, err
			}
			return obj.(endpoint).Invoke1(ctx, method, rest)
		},
		"InvokeBatch": func(ctx context.Context, obj any, args []any) (any, error) {
			method, calls, err := endpointArgs(obj, "InvokeBatch", args)
			if err != nil {
				return nil, err
			}
			n, err := obj.(endpoint).InvokeBatch(ctx, method, calls)
			if err != nil {
				return nil, err
			}
			return n, nil
		},
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
