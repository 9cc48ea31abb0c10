package core

import (
	"context"

	"repro/internal/dispatch"
	"repro/internal/remoting"
)

// What the runtime publishes under an object's URI (Server.Marshal) takes
// runtime calls, Invoke1(method, args) and InvokeBatch(method, calls), each
// naming the user's method on the connection's handle, never a call on the
// user's object. An actor and the tombstone a migration leaves take them as
// a remoting.Mailbox, on the server's read loop; an agglomerated object's
// wrapper as a remoting.NestedInvoker, on a goroutine of the call's own.
var (
	_ remoting.Mailbox       = (*actorEndpoint)(nil)
	_ remoting.Mailbox       = (*tombstone)(nil)
	_ remoting.NestedInvoker = (*ioWrapper)(nil)
)

// InvokeNested runs a runtime call on an agglomerated object: the two
// runtime calls go straight to their methods, any other name by the flat
// list.
func (w *ioWrapper) InvokeNested(ctx context.Context, call, method string, args []any) (any, error) {
	if call == "Invoke1" || call == "InvokeBatch" {
		return w.invoke(ctx, method, args, call == "InvokeBatch")
	}
	return dispatch.InvokeCtx(ctx, w, call, []any{method, args})
}
