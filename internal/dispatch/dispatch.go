// Package dispatch implements dynamic method invocation on arbitrary
// objects: the server-side half of every transparent proxy in this
// repository. Both RPC stacks (remoting, rmi) and the SCOOPP runtime's
// intra-grain direct calls route through Invoke.
package dispatch

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"

	"repro/internal/errs"
	"repro/internal/wire"
)

var (
	errorType = reflect.TypeOf((*error)(nil)).Elem()
	ctxType   = reflect.TypeOf((*context.Context)(nil)).Elem()
)

// Invoke calls an exported method on obj by name with decoded wire
// arguments, converting them to the declared parameter types. It is
// InvokeCtx with a background context.
func Invoke(obj any, method string, args []any) (any, error) {
	return InvokeCtx(context.Background(), obj, method, args)
}

// InvokeCtx calls an exported method on obj by name with wire arguments,
// converting them to the declared parameter types. A remote call's
// arguments arrive pending (wire.PendingList): a generated thunk decodes
// each into its parameter (Arg), the reflective path decodes them all, in
// place, before it converts them (wire.DecodeArgs). When the
// method's first parameter is a context.Context, ctx is injected there and
// the wire arguments fill the remaining parameters — this is how a caller's
// deadline reaches context-aware implementation methods.
//
// Supported method shapes: any number of non-variadic parameters (optionally
// led by a context.Context) and 0, 1 or 2 results. A trailing error result
// is mapped onto the returned error; a single non-error result is returned
// as the value.
//
// When a generated invoker thunk is registered for the object's concrete
// type (see RegisterInvokers), it is used instead of the reflective path:
// argument binding then skips wire.Assign and the call skips
// reflect.Value.Call entirely.
func InvokeCtx(ctx context.Context, obj any, method string, args []any) (any, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if inv := lookupInvoker(reflect.TypeOf(obj), method); inv != nil {
		return inv(ctx, obj, args)
	}
	rv := reflect.ValueOf(obj)
	m := rv.MethodByName(method)
	if !m.IsValid() {
		return nil, &NoMethodError{Obj: obj, Method: method}
	}
	mt := m.Type()
	if mt.IsVariadic() {
		return nil, fmt.Errorf("method %T.%s is variadic; not supported over the wire", obj, method)
	}
	params := make([]reflect.Type, mt.NumIn())
	for i := range params {
		params[i] = mt.In(i)
	}
	var ctxVal []reflect.Value
	if len(params) > 0 && params[0] == ctxType {
		if ctx == nil {
			ctx = context.Background()
		}
		ctxVal = []reflect.Value{reflect.ValueOf(ctx)}
		params = params[1:]
	}
	if err := wire.DecodeArgs(args); err != nil {
		return nil, fmt.Errorf("method %T.%s: %w", obj, method, err)
	}
	in, err := wire.AssignArgs(params, args)
	if err != nil {
		return nil, fmt.Errorf("method %T.%s: %w", obj, method, err)
	}
	outs := m.Call(append(ctxVal, in...))
	switch len(outs) {
	case 0:
		return nil, nil
	case 1:
		if isErrorValue(outs[0]) {
			return nil, errOrNil(outs[0])
		}
		return outs[0].Interface(), nil
	case 2:
		if !isErrorValue(outs[1]) {
			return nil, fmt.Errorf("method %T.%s: second result must be error", obj, method)
		}
		if err := errOrNil(outs[1]); err != nil {
			return nil, err
		}
		return outs[0].Interface(), nil
	default:
		return nil, fmt.Errorf("method %T.%s: too many results (%d)", obj, method, len(outs))
	}
}

// NoMethodError reports a failed method lookup. It names the candidate
// exported methods of the target so callers migrating from stringly-typed
// calls can spot typos, and unwraps to errs.ErrNoSuchMethod.
type NoMethodError struct {
	Obj    any
	Method string
}

// Error implements error.
func (e *NoMethodError) Error() string {
	names := methodNames(e.Obj)
	if len(names) == 0 {
		return fmt.Sprintf("type %T has no method %q (no exported methods)", e.Obj, e.Method)
	}
	return fmt.Sprintf("type %T has no method %q (exported methods: %s)",
		e.Obj, e.Method, strings.Join(names, ", "))
}

// Unwrap makes errors.Is(err, errs.ErrNoSuchMethod) true.
func (e *NoMethodError) Unwrap() error { return errs.ErrNoSuchMethod }

// methodNames returns the sorted exported method names of obj.
func methodNames(obj any) []string {
	t := reflect.TypeOf(obj)
	if t == nil {
		return nil
	}
	names := make([]string, 0, t.NumMethod())
	for i := 0; i < t.NumMethod(); i++ {
		names = append(names, t.Method(i).Name)
	}
	sort.Strings(names)
	return names
}

func isErrorValue(v reflect.Value) bool { return v.Type().Implements(errorType) }

func errOrNil(v reflect.Value) error {
	if v.IsNil() {
		return nil
	}
	return v.Interface().(error)
}
