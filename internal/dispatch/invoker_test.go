package dispatch

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/errs"
)

// thunkTarget plays a generated parallel-object class; its thunks below are
// written in parcgen's output shape.
type thunkTarget struct {
	calls   int
	lastCtx context.Context
}

func (t *thunkTarget) Add(a, b int) int { t.calls++; return a + b }

func (t *thunkTarget) Fail() error { return errors.New("boom") }

func (t *thunkTarget) WithCtx(ctx context.Context, s string) string {
	t.lastCtx = ctx
	return "ctx:" + s
}

// Reflected has no invokers registered; it must keep using the reflective
// path untouched.
type reflectedTarget struct{}

func (reflectedTarget) Double(v int) int { return 2 * v }

func registerThunks(t *testing.T) *int {
	t.Helper()
	thunkCalls := new(int)
	RegisterInvokers(&thunkTarget{}, map[string]Invoker{
		"Add": func(ctx context.Context, obj any, args []any) (any, error) {
			*thunkCalls++
			x := obj.(*thunkTarget)
			if len(args) != 2 {
				return nil, BadArity(obj, "Add", len(args), 2)
			}
			a0, err := Arg[int](obj, "Add", args, 0)
			if err != nil {
				return nil, err
			}
			a1, err := Arg[int](obj, "Add", args, 1)
			if err != nil {
				return nil, err
			}
			return x.Add(a0, a1), nil
		},
		"WithCtx": func(ctx context.Context, obj any, args []any) (any, error) {
			*thunkCalls++
			x := obj.(*thunkTarget)
			if len(args) != 1 {
				return nil, BadArity(obj, "WithCtx", len(args), 1)
			}
			a0, err := Arg[string](obj, "WithCtx", args, 0)
			if err != nil {
				return nil, err
			}
			return x.WithCtx(ctx, a0), nil
		},
	})
	return thunkCalls
}

func TestInvokerFastPath(t *testing.T) {
	thunkCalls := registerThunks(t)
	obj := &thunkTarget{}

	res, err := Invoke(obj, "Add", []any{int64(2), 3})
	if err != nil {
		t.Fatal(err)
	}
	if res != 5 {
		t.Errorf("Add = %v, want 5", res)
	}
	if *thunkCalls != 1 {
		t.Errorf("thunk used %d times, want 1", *thunkCalls)
	}
	if obj.calls != 1 {
		t.Errorf("method executed %d times, want 1", obj.calls)
	}

	// Context injection flows through the thunk.
	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, "v")
	res, err = InvokeCtx(ctx, obj, "WithCtx", []any{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if res != "ctx:x" {
		t.Errorf("WithCtx = %v", res)
	}
	if obj.lastCtx == nil || obj.lastCtx.Value(key{}) != "v" {
		t.Errorf("caller context did not reach the method: %v", obj.lastCtx)
	}
}

func TestInvokerFallbacks(t *testing.T) {
	thunkCalls := registerThunks(t)
	obj := &thunkTarget{}

	// A method outside the thunk map uses the reflective path and still
	// works (including its error mapping).
	if _, err := Invoke(obj, "Fail", nil); err == nil || err.Error() != "boom" {
		t.Errorf("reflective fallback Fail: %v", err)
	}
	// Unknown method still reports NoMethodError / ErrNoSuchMethod.
	_, err := Invoke(obj, "Nope", nil)
	if !errors.Is(err, errs.ErrNoSuchMethod) {
		t.Errorf("unknown method error = %v", err)
	}
	// Types without invokers never see the registry.
	res, err := Invoke(reflectedTarget{}, "Double", []any{21})
	if err != nil || res != 42 {
		t.Errorf("reflective type: %v, %v", res, err)
	}
	if *thunkCalls != 0 {
		t.Errorf("thunks ran %d times for non-thunk calls", *thunkCalls)
	}
}

func TestInvokerArgErrors(t *testing.T) {
	registerThunks(t)
	obj := &thunkTarget{}

	if _, err := Invoke(obj, "Add", []any{1}); err == nil {
		t.Error("expected arity error")
	}
	_, err := Invoke(obj, "Add", []any{"a", "b"})
	if err == nil {
		t.Fatal("expected conversion error")
	}
	if !errors.Is(err, errs.ErrBadConversion) {
		t.Errorf("conversion error %v does not unwrap to ErrBadConversion", err)
	}
}

func TestArgConversions(t *testing.T) {
	// Exact type: no conversion.
	v, err := Arg[int](nil, "M", []any{7}, 0)
	if err != nil || v != 7 {
		t.Errorf("Arg[int] = %v, %v", v, err)
	}
	// Wire widening: int64 -> int.
	v, err = Arg[int](nil, "M", []any{int64(9)}, 0)
	if err != nil || v != 9 {
		t.Errorf("Arg[int](int64) = %v, %v", v, err)
	}
	// []any -> typed slice.
	s, err := Arg[[]int](nil, "M", []any{[]any{1, 2}}, 0)
	if err != nil || len(s) != 2 {
		t.Errorf("Arg[[]int] = %v, %v", s, err)
	}
	// Interface target.
	a, err := Arg[any](nil, "M", []any{"x"}, 0)
	if err != nil || a != "x" {
		t.Errorf("Arg[any] = %v, %v", a, err)
	}
	// A failure names the method and the argument, as the reflective
	// path does.
	_, err = Arg[int](&thunkTarget{}, "Add", []any{1, "nope"}, 1)
	if want := "method *dispatch.thunkTarget.Add: argument 1: "; err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("Arg[int](string) = %v, want an error starting %q", err, want)
	}
}

// TestHasInvoker: a thunk is found only for a method registered on the
// object's own concrete type.
func TestHasInvoker(t *testing.T) {
	registerThunks(t)
	has := func(obj any, method string) bool { return InvokerFor(reflect.TypeOf(obj), method) != nil }
	if !has(&thunkTarget{}, "Add") {
		t.Error("no invoker for thunkTarget.Add")
	}
	if has(&thunkTarget{}, "Fail") {
		t.Error("an invoker for thunkTarget.Fail, an unregistered method")
	}
	if has(reflectedTarget{}, "Double") {
		t.Error("an invoker for reflectedTarget.Double")
	}
}

func TestInvokerFor(t *testing.T) {
	type unthunked struct{}
	obj := &invokerTarget{}
	RegisterInvokers(obj, map[string]Invoker{
		"Probe": func(ctx context.Context, o any, args []any) (any, error) {
			return "thunked", nil
		},
	})
	inv := InvokerFor(reflect.TypeOf(obj), "Probe")
	if inv == nil {
		t.Fatal("InvokerFor returned nil for a registered thunk")
	}
	got, err := inv(context.Background(), obj, nil)
	if err != nil || got != "thunked" {
		t.Fatalf("thunk = %v, %v", got, err)
	}
	if InvokerFor(reflect.TypeOf(obj), "Missing") != nil {
		t.Error("InvokerFor returned a thunk for an unregistered method")
	}
	if InvokerFor(reflect.TypeOf(unthunked{}), "Probe") != nil {
		t.Error("InvokerFor returned a thunk for an unregistered type")
	}
}

type invokerTarget struct{}

func (*invokerTarget) Probe() string { return "direct" }
