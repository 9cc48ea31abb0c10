package parc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// Slotted returns results of the kinds a Result can meet: the types a typed
// slot takes, and those it leaves to conversion.
type Slotted struct{}

// Spot is a registered struct, for a Result of pointer type.
type Spot struct{ X, Y int }

func init() { RegisterType(Spot{}) }

func (*Slotted) Bytes(n int) []byte   { return bytes.Repeat([]byte{byte(n)}, n) }
func (*Slotted) Ints(n int) []int32   { return []int32{int32(n), int32(-n)} }
func (*Slotted) Name(n int) string    { return fmt.Sprint("name-", n) }
func (*Slotted) Num(n int) int        { return n }
func (*Slotted) Spot(n int) *Spot     { return &Spot{X: n, Y: -n} }
func (*Slotted) Fail(n int) error     { return fmt.Errorf("slotted: failed on %d", n) }
func (*Slotted) Echo(b []byte) []byte { return b }

// slottedOn starts a two-node cluster and returns a Slotted object on the
// other node and one on the caller's.
func slottedOn(t *testing.T) (remote, local *Object[Slotted]) {
	t.Helper()
	place := &pinNode{node: 1}
	cl, err := StartCluster(WithNodes(2), WithPlacement(place))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	Register[Slotted](cl, "slotted")
	if remote, err = New[Slotted](cl, "slotted"); err != nil {
		t.Fatal(err)
	}
	place.node = 0
	if local, err = New[Slotted](cl, "slotted"); err != nil {
		t.Fatal(err)
	}
	if remote.Proxy().IsLocal() || !local.Proxy().IsLocal() {
		t.Fatal("want one remote object and one local")
	}
	return remote, local
}

// inSlot reports whether r's future resolved with a typed slot as its value:
// the reply was decoded into a Result, not boxed.
func inSlot[R any](r *Result[R]) bool {
	v, _ := r.f.Get()
	_, ok := v.(*asyncResult[R])
	return ok
}

// TestTypedSlotResults: a Result whose reply is exactly an R holds the value
// itself; one of any other R (a wider number, a pointer to a registered
// struct, any), a failed call's and a local object's are converted as they
// always were; and Get, Then, Catch, WhenAll and WhenAny return the same
// values over either kind.
func TestTypedSlotResults(t *testing.T) {
	remote, local := slottedOn(t)
	ctx := within(t, 20*time.Second)
	for i := 0; i < 2; i++ { // declare and confirm the handles: calls are bound from here
		for _, m := range []string{"Bytes", "Ints", "Name", "Num", "Spot", "Fail"} {
			remote.Invoke(ctx, m, 1) //nolint:errcheck // Fail fails
		}
	}
	get := func(what string, r any, want any, slot bool) {
		t.Helper()
		rv := reflect.ValueOf(r)
		for i := 0; i < 2; i++ { // Get is idempotent
			out := rv.MethodByName("Get").Call([]reflect.Value{reflect.ValueOf(ctx)})
			if err, _ := out[1].Interface().(error); err != nil || !reflect.DeepEqual(out[0].Interface(), want) {
				t.Errorf("%s = %v, %v, want %v", what, out[0].Interface(), err, want)
			}
		}
		var took bool
		switch r := r.(type) {
		case *Result[[]byte]:
			took = inSlot(r)
		case *Result[[]int32]:
			took = inSlot(r)
		case *Result[string]:
			took = inSlot(r)
		case *Result[int]:
			took = inSlot(r)
		case *Result[int64]:
			took = inSlot(r)
		case *Result[*Spot]:
			took = inSlot(r)
		case *Result[any]:
			took = inSlot(r)
		}
		if took != slot {
			t.Errorf("%s: decoded into the typed slot = %v, want %v", what, took, slot)
		}
	}
	get("[]byte", CallAsync[[]byte](ctx, remote, "Bytes", 3), []byte{3, 3, 3}, true)
	get("[]byte above BorrowMin", CallAsync[[]byte](ctx, remote, "Bytes", 2000), bytes.Repeat([]byte{2000 % 256}, 2000), true)
	get("[]int32", CallAsync[[]int32](ctx, remote, "Ints", 4), []int32{4, -4}, true)
	get("string", CallAsync[string](ctx, remote, "Name", 5), "name-5", true)
	get("int", CallAsync[int](ctx, remote, "Num", 6), 6, true)
	get("int as int64", CallAsync[int64](ctx, remote, "Num", 7), int64(7), false)
	get("pointer", CallAsync[*Spot](ctx, remote, "Spot", 8), &Spot{X: 8, Y: -8}, false)
	get("int as any", CallAsync[any](ctx, remote, "Num", 9), any(9), false)
	get("local []byte", CallAsync[[]byte](ctx, local, "Bytes", 3), []byte{3, 3, 3}, false)
	get("local int", CallAsync[int](ctx, local, "Num", 6), 6, false)

	failed := CallAsync[int](ctx, remote, "Fail", 10)
	if v, err := failed.Get(ctx); err == nil || v != 0 || inSlot(failed) {
		t.Errorf("failed call = %v, %v, in slot %v", v, err, inSlot(failed))
	}
	if _, err := CallAsync[[]int32](ctx, remote, "Name", 1).Get(ctx); !errors.Is(err, ErrBadConversion) {
		t.Errorf("a string read as []int32: %v, want ErrBadConversion", err)
	}

	// The combinators, over slotted Results and converted ones alike.
	for _, obj := range []*Object[Slotted]{remote, local} {
		where := map[bool]string{true: "local", false: "remote"}[obj == local]
		then := Then(CallAsync[[]int32](ctx, obj, "Ints", 11), func(v []int32) (int, error) { return int(v[0] - v[1]), nil })
		if v, err := then.Get(ctx); err != nil || v != 22 {
			t.Errorf("%s Then = %v, %v", where, v, err)
		}
		caught := CallAsync[string](ctx, obj, "Name", 12).Catch(func(error) (string, error) { return "recovered", nil })
		if v, err := caught.Get(ctx); err != nil || v != "name-12" {
			t.Errorf("%s Catch over a success = %q, %v", where, v, err)
		}
		caught = CallAsync[string](ctx, obj, "Fail", 13).Catch(func(err error) (string, error) { return "recovered", nil })
		if v, err := caught.Get(ctx); err != nil || v != "recovered" {
			t.Errorf("%s Catch over a failure = %q, %v", where, v, err)
		}
		all, err := WhenAll(CallAsync[int](ctx, obj, "Num", 14), CallAsync[int](ctx, obj, "Num", 15), CallAsync[int](ctx, obj, "Num", 16)).Get(ctx)
		if err != nil || !reflect.DeepEqual(all, []int{14, 15, 16}) {
			t.Errorf("%s WhenAll = %v, %v", where, all, err)
		}
		spots, err := WhenAll(CallAsync[*Spot](ctx, obj, "Spot", 17), CallAsync[*Spot](ctx, obj, "Spot", 18)).Get(ctx)
		if err != nil || !reflect.DeepEqual(spots, []*Spot{{17, -17}, {18, -18}}) {
			t.Errorf("%s WhenAll of pointers = %v, %v", where, spots, err)
		}
		anys, err := WhenAll(CallAsync[any](ctx, obj, "Num", 19), CallAsync[any](ctx, obj, "Name", 20)).Get(ctx)
		if err != nil || !reflect.DeepEqual(anys, []any{19, "name-20"}) {
			t.Errorf("%s WhenAll of any = %v, %v", where, anys, err)
		}
		first := CallAsync[[]byte](ctx, obj, "Bytes", 4)
		if v, err := first.Get(ctx); err != nil || len(v) != 4 {
			t.Fatalf("%s Bytes = %v, %v", where, v, err)
		}
		if v, err := WhenAny(first, CallAsync[[]byte](ctx, obj, "Bytes", 5)).Get(ctx); err != nil || !bytes.Equal(v, []byte{4, 4, 4, 4}) {
			t.Errorf("%s WhenAny with one member resolved = %v, %v", where, v, err)
		}
		if _, err := WhenAll(CallAsync[int](ctx, obj, "Num", 21), CallAsync[int](ctx, obj, "Fail", 22)).Get(ctx); err == nil {
			t.Errorf("%s WhenAll with a failed member succeeded", where)
		}
	}
}

// TestCancelAgainstReplyTypedSlot: a thousand calls, each cancelled while
// its reply is on its way into the Result's typed slot. The Result reads
// the echo when the reply resolved it first and context.Canceled, with no
// value, when the Cancel did, whichever of the reader and the Cancel then
// takes the connection's record; under the race detector, nothing reads the
// slot while the reader may still be writing it.
func TestCancelAgainstReplyTypedSlot(t *testing.T) {
	remote, _ := slottedOn(t)
	ctx := within(t, 60*time.Second)
	payload := bytes.Repeat([]byte{0xC3}, 64)
	for i := 0; i < 2; i++ {
		if _, err := Call[[]byte](ctx, remote, "Echo", payload); err != nil {
			t.Fatal(err)
		}
	}
	var replied, cancelled int
	for i := 0; i < 1000; i++ {
		r := CallAsync[[]byte](ctx, remote, "Echo", payload)
		for spin := i % 32; spin > 0; spin-- {
			runtime.Gosched()
		}
		r.f.Cancel()
		for j := 0; j < 2; j++ {
			switch v, err := r.Get(ctx); {
			case err == nil && bytes.Equal(v, payload):
				replied++
			case errors.Is(err, context.Canceled) && v == nil:
				cancelled++
			default:
				t.Fatalf("call %d = %x, %v", i, v, err)
			}
		}
	}
	if _, err := Call[[]byte](ctx, remote, "Echo", payload); err != nil {
		t.Fatalf("the lane after a thousand cancelled calls: %v", err)
	}
	t.Logf("%d calls answered before their Cancel, %d cancelled first", replied/2, cancelled/2)
}
