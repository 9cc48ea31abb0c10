// Support surface for parcgen-generated code. The typed POs and invoker
// thunks the preprocessor emits compile against this package, so the
// dispatch pieces they need are re-exported here; its wire codecs call
// repro/internal/wire directly (wire.Encoder, wire.Decoder and
// wire.RegisterGeneratedCodec), so a generated file with codecs builds
// only inside this module.
package parc

import "repro/internal/dispatch"

// Invoker is a generated dispatch thunk: it executes one method on obj with
// decoded wire arguments, binding them with type assertions instead of
// reflection. See RegisterInvokers.
type Invoker = dispatch.Invoker

// RegisterInvokers installs generated invoker thunks for the concrete type
// of sample; the runtime's dispatcher (both the local SCOOPP call path and
// the remoting server) prefers them over reflective invocation. parcgen
// emits the call from an init function in the generated file.
func RegisterInvokers(sample any, m map[string]Invoker) {
	dispatch.RegisterInvokers(sample, m)
}

// Arg binds args[i] to T for a generated thunk: a type assertion on the
// fast path, the wire conversion rules on mismatch. obj and method only
// shape the error message.
func Arg[T any](obj any, method string, args []any, i int) (T, error) {
	v, err := dispatch.Arg[T](args, i)
	if err != nil {
		return v, dispatch.BadArg(obj, method, i, err)
	}
	return v, nil
}

// BadArity reports an argument-count mismatch from a generated thunk.
func BadArity(obj any, method string, got, want int) error {
	return dispatch.BadArity(obj, method, got, want)
}
