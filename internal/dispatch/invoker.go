// Typed invoker thunks: the zero-reflection fast path of method dispatch.
//
// The reflective Invoke path pays MethodByName, AssignArgs and
// reflect.Value.Call on every request. parcgen emits, for every
// //parc:parallel class, a map of Invoker thunks that bind arguments with
// plain type assertions and call the method directly; RegisterInvokers
// installs them here and InvokeCtx consults the registry before falling
// back to reflection. An object type without registered thunks (or a method
// missing from its map) behaves exactly as before.
package dispatch

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// Invoker executes one method on obj with its arguments. obj is always the
// concrete type the thunks were registered for (the registry is keyed by
// it), so generated code may assert without checking. A thunk binds each
// argument through Arg, which is where a remote call's arguments are
// decoded: the server hands the thunk the request's pending list
// (wire.PendingList), and Arg decodes each element into the parameter's
// type.
type Invoker func(ctx context.Context, obj any, args []any) (any, error)

// invokerTables is the immutable snapshot swapped on registration so the
// per-call lookup is lock-free.
type invokerTables struct {
	byType map[reflect.Type]map[string]Invoker
}

var (
	invMu  sync.Mutex
	invTab atomic.Pointer[invokerTables]
)

func init() {
	invTab.Store(&invokerTables{byType: map[reflect.Type]map[string]Invoker{}})
}

// RegisterInvokers installs generated invoker thunks for the concrete type
// of sample (use the same pointer-ness objects are dispatched with: the
// SCOOPP runtime and the remoting factories create *T). Registering the
// same type again merges the maps, later registrations winning per method.
func RegisterInvokers(sample any, m map[string]Invoker) {
	t := reflect.TypeOf(sample)
	if t == nil {
		panic("dispatch: RegisterInvokers with nil sample")
	}
	invMu.Lock()
	defer invMu.Unlock()
	old := invTab.Load()
	next := &invokerTables{byType: make(map[reflect.Type]map[string]Invoker, len(old.byType)+1)}
	for k, v := range old.byType {
		next.byType[k] = v
	}
	merged := make(map[string]Invoker, len(m)+len(next.byType[t]))
	for k, v := range next.byType[t] {
		merged[k] = v
	}
	for k, v := range m {
		merged[k] = v
	}
	next.byType[t] = merged
	invTab.Store(next)
}

// lookupInvoker returns the thunk for (t, method), or nil.
func lookupInvoker(t reflect.Type, method string) Invoker {
	return invTab.Load().byType[t][method]
}

// InvokerFor resolves the generated thunk for (t, method), or nil when the
// type has none and calls must take the reflective path. Callers that
// dispatch the same method on the same concrete type repeatedly (the
// remoting server's bound-handle table, the RMI skeleton cache) resolve
// once and cache the result keyed by t, skipping the per-call registry
// lookups InvokeCtx would repeat. The returned Invoker must only be handed
// objects whose reflect.TypeOf equals t.
func InvokerFor(t reflect.Type, method string) Invoker {
	return lookupInvoker(t, method)
}

// Arg binds args[i] to T. A remote call's argument is still pending
// (*wire.Pending) when it gets here, and this is where it is decoded:
// straight into a T when its tag is the one T reads, with no box, and
// otherwise decoded and converted. A value already decoded takes a plain
// type assertion. The conversion on mismatch is wire.Assign's (an int64
// from an older peer binding to an int parameter, a []any to a typed
// slice, ...). A failure names obj's type, method and i, as the reflective
// path's does. Generated thunks perform the arity check before calling it.
func Arg[T any](obj any, method string, args []any, i int) (T, error) {
	v, err := arg[T](args[i])
	if err != nil {
		return v, fmt.Errorf("method %T.%s: argument %d: %w", obj, method, i, err)
	}
	return v, nil
}

// arg binds a to T, as Arg describes.
func arg[T any](a any) (T, error) {
	var v T
	if p, ok := a.(*wire.Pending); ok {
		if read, err := p.Into(&v); read {
			return v, err
		}
		var err error
		if a, err = p.Value(); err != nil {
			return v, err
		}
	}
	if v, ok := a.(T); ok {
		return v, nil
	}
	av, err := wire.Assign(reflect.TypeFor[T](), a)
	if err != nil {
		return v, err
	}
	return av.Interface().(T), nil
}

// BadArity reports an argument-count mismatch, in the same shape the
// reflective path produces.
func BadArity(obj any, method string, got, want int) error {
	return fmt.Errorf("method %T.%s: wire: got %d arguments, want %d", obj, method, got, want)
}
