package parc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/racetest"
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

// slotValues holds a value of every type a typed slot takes, in the order
// of TestTypedSlotBlockingCall's checks, each one whose box is allocated
// unless its type's boxes are static (a bool, a byte).
var slotValues = []any{
	[]byte{1, 2}, []int{3, -4}, []int32{5}, []int64{-6}, []float32{7.5}, []float64{8.5},
	[]string{"nine"}, []bool{true, false}, "ten", true,
	1100, int8(-12), int16(1300), int32(-1400), int64(1500),
	uint(1600), uint8(17), uint16(1800), uint32(1900), uint64(2000),
	float32(21.5), float64(22.5),
}

// Value returns slotValues[i], as its own type on the wire.
func (*Slotted) Value(i int) any { return slotValues[i] }

// slottedOn starts a two-node cluster and returns a Slotted object on the
// other node and one on the caller's.
func slottedOn(t *testing.T, opts ...Option) (remote, local *Object[Slotted]) {
	t.Helper()
	place := &pinNode{node: 1}
	cl, err := StartCluster(append([]Option{WithNodes(2), WithPlacement(place)}, opts...)...)
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

// inSlot reports whether r's future resolved with r's own typed slot as its
// value: the outcome settled in the Result before the future resolved.
func inSlot[R any](r *Result[R]) bool {
	v, _ := r.fut().Get()
	return v == any(&r.slot)
}

// TestTypedSlotResults: a Result holds its value itself, whether the reply
// was exactly an R and decoded into it, or of any other R (a wider number, a
// pointer to a registered struct, any) or a local object's, and converted
// into it; a failed call's is not in the slot; and Get, Then, Catch, WhenAll
// and WhenAny return the same values over either kind.
func TestTypedSlotResults(t *testing.T) {
	remote, local := slottedOn(t)
	ctx := within(t, 20*time.Second)
	for i := 0; i < 2; i++ { // declare and confirm the handles: calls are bound from here
		for _, m := range []string{"Bytes", "Ints", "Name", "Num", "Spot", "Fail"} {
			remote.Invoke(ctx, m, 1) //nolint:errcheck // Fail fails
		}
	}
	get := func(what string, r any, want any) {
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
		if !took {
			t.Errorf("%s: the value is not in the Result's typed slot", what)
		}
	}
	get("[]byte", CallAsync[[]byte](ctx, remote, "Bytes", 3), []byte{3, 3, 3})
	get("[]byte above BorrowMin", CallAsync[[]byte](ctx, remote, "Bytes", 2000), bytes.Repeat([]byte{2000 % 256}, 2000))
	get("[]int32", CallAsync[[]int32](ctx, remote, "Ints", 4), []int32{4, -4})
	get("string", CallAsync[string](ctx, remote, "Name", 5), "name-5")
	get("int", CallAsync[int](ctx, remote, "Num", 6), 6)
	get("int as int64", CallAsync[int64](ctx, remote, "Num", 7), int64(7))
	get("pointer", CallAsync[*Spot](ctx, remote, "Spot", 8), &Spot{X: 8, Y: -8})
	get("int as any", CallAsync[any](ctx, remote, "Num", 9), any(9))
	get("local []byte", CallAsync[[]byte](ctx, local, "Bytes", 3), []byte{3, 3, 3})
	get("local int", CallAsync[int](ctx, local, "Num", 6), 6)

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

// TestResultSettlesOnce: the outcome of a Result whose value As converts (an
// []int32 read as []int64, by CallAsync and by a one-stage Pipeline) or
// refuses (a string read as []int64), from an object on another node and
// from one on the caller's, settles once. Get
// again, Get from eight goroutines at once, and Gather over the same
// Results return the identical slice, its data where the first Get found
// it, or the identical error value.
func TestResultSettlesOnce(t *testing.T) {
	remote, local := slottedOn(t)
	ctx := within(t, 20*time.Second)
	for _, obj := range []*Object[Slotted]{remote, local} {
		where := map[bool]string{true: "local", false: "remote"}[obj == local]
		converted := []*Result[[]int64]{CallAsync[[]int64](ctx, obj, "Ints", 3), CallAsync[[]int64](ctx, obj, "Ints", 4),
			Pipeline[[]int64](ctx, GroupOf(obj), "Ints", []any{5})[0]}
		refused := []*Result[[]int64]{CallAsync[[]int64](ctx, obj, "Name", 5), CallAsync[[]int64](ctx, obj, "Name", 6)}
		firsts := make([][]int64, len(converted))
		for i, r := range converted {
			first, err := r.Get(ctx)
			if n := int64(i + 3); err != nil || !reflect.DeepEqual(first, []int64{n, -n}) {
				t.Fatalf("%s Ints(%d) as []int64 = %v, %v", where, n, first, err)
			}
			firsts[i] = first
			everyGet(t, r, func(what string, v []int64, err error) {
				if err != nil || len(v) != len(first) || &v[0] != &first[0] {
					t.Errorf("%s %s of member %d = %v (data %p), %v; want the first Get's %v (data %p)", where, what, i, v, v, err, first, first)
				}
			})
		}
		vals, err := Gather(ctx, converted)
		if err != nil || len(vals) != len(converted) {
			t.Fatalf("%s Gather = %v, %v", where, vals, err)
		}
		for i, v := range vals {
			if len(v) != len(firsts[i]) || &v[0] != &firsts[i][0] {
				t.Errorf("%s Gather member %d = %v (data %p), want Get's (data %p)", where, i, v, v, firsts[i])
			}
		}
		firstErrs := make([]error, len(refused))
		for i, r := range refused {
			v, first := r.Get(ctx)
			if !errors.Is(first, ErrBadConversion) || v != nil {
				t.Fatalf("%s Name as []int64 = %v, %v, want ErrBadConversion", where, v, first)
			}
			firstErrs[i] = first
			everyGet(t, r, func(what string, v []int64, err error) {
				if err != first || v != nil {
					t.Errorf("%s %s of refused member %d = %v, %v (%p); want the first Get's error (%p)", where, what, i, v, err, err, first)
				}
			})
		}
		_, err = Gather(ctx, refused)
		for i, first := range firstErrs {
			if !errors.Is(err, first) {
				t.Errorf("%s Gather's error %v does not hold member %d's error value (%p)", where, err, i, first)
			}
		}
	}
}

// everyGet calls check with r's outcome as a second Get returns it, and as
// eight Gets at once do.
func everyGet[R any](t *testing.T, r *Result[R], check func(what string, v R, err error)) {
	t.Helper()
	ctx := context.Background()
	v, err := r.Get(ctx)
	check("a second Get", v, err)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := r.Get(ctx)
			check("a concurrent Get", v, err)
		}()
	}
	wg.Wait()
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
		r.fut().Cancel()
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

// TestTypedSlotBlockingCall: a blocking Call of every type a typed slot
// takes, to an object on another node, has its reply decoded into a slot it
// borrows, which the runtime hands back in place of the value, and allocates
// less than the same call read as a boxed value; a Call whose R is not the
// reply's type, and a Call to a local object, convert the value as they
// always did.
func TestTypedSlotBlockingCall(t *testing.T) {
	remote, local := slottedOn(t)
	ctx := within(t, 20*time.Second)
	for i := 0; i < 2; i++ { // declare and confirm the handles: calls are bound from here
		for _, m := range []string{"Value", "Num", "Spot", "Name"} {
			if _, err := remote.Invoke(ctx, m, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, check := range []func(*testing.T, context.Context, *Object[Slotted], *Object[Slotted], int){
		blockingSlot[[]byte], blockingSlot[[]int], blockingSlot[[]int32], blockingSlot[[]int64],
		blockingSlot[[]float32], blockingSlot[[]float64], blockingSlot[[]string], blockingSlot[[]bool],
		blockingSlot[string], blockingSlot[bool],
		blockingSlot[int], blockingSlot[int8], blockingSlot[int16], blockingSlot[int32], blockingSlot[int64],
		blockingSlot[uint], blockingSlot[uint8], blockingSlot[uint16], blockingSlot[uint32], blockingSlot[uint64],
		blockingSlot[float32], blockingSlot[float64],
	} {
		t.Run(fmt.Sprintf("%T", slotValues[i]), func(t *testing.T) { check(t, ctx, remote, local, i) })
	}

	// Not exactly an R: converted, and the slot is left alone.
	convertedCall(t, ctx, remote, "Num", int64(7))
	convertedCall(t, ctx, remote, "Num", any(7))
	convertedCall(t, ctx, remote, "Spot", &Spot{X: 7, Y: -7})
	convertedCall(t, ctx, remote, "Spot", Spot{X: 7, Y: -7})
	convertedCall(t, ctx, local, "Name", "name-7")
	if _, err := Call[[]int32](ctx, remote, "Name", 1); !errors.Is(err, ErrBadConversion) {
		t.Errorf("a string read as []int32: %v, want ErrBadConversion", err)
	}
}

// blockingSlot checks Call[R] of slotValues[i]. On the remote object the
// reply lands in the slot InvokeInto is given, and the slot is the value the
// call returns; Call returns what it holds, with fewer allocations than the
// boxed value costs (a bool's or a byte's box is static and costs none). On
// the local object InvokeInto returns the value itself.
func blockingSlot[R any](t *testing.T, ctx context.Context, remote, local *Object[Slotted], i int) {
	want := slotValues[i].(R)
	s := new(slot[R])
	if v, err := remote.Proxy().InvokeInto(ctx, s, "Value", []any{i}); err != nil || v != any(s) || !reflect.DeepEqual(s.val, want) {
		t.Errorf("remote InvokeInto = %v, %v, slot %#v; want the slot, holding %#v", v, err, s.val, want)
	}
	s = new(slot[R])
	if v, err := local.Proxy().InvokeInto(ctx, s, "Value", []any{i}); err != nil || v == any(s) || !reflect.DeepEqual(v, any(want)) {
		t.Errorf("local InvokeInto = %v, %v; want the value %#v", v, err, want)
	}
	for _, obj := range []*Object[Slotted]{remote, local} {
		if got, err := Call[R](ctx, obj, "Value", i); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("Call on %v = %#v, %v, want %#v", obj, got, err, want)
		}
	}
	if racetest.Enabled || reflect.TypeFor[R]().Size() == 1 {
		return // the race detector allocates on its own account
	}
	args := []any{i}
	slotted := testing.AllocsPerRun(100, func() { Call[R](ctx, remote, "Value", args...) })    //nolint:errcheck // checked above
	boxed := testing.AllocsPerRun(100, func() { As[R](remote.Invoke(ctx, "Value", args...)) }) //nolint:errcheck // checked above
	if slotted >= boxed {
		t.Errorf("Call: %.0f allocs, the value boxed and converted: %.0f; want fewer", slotted, boxed)
	}
}

// convertedCall checks a Call whose reply is not exactly an R (another type,
// any, a pointer, a struct) or comes from a local object: InvokeInto returns
// the value and leaves the slot alone, and Call converts the value to want.
func convertedCall[R any](t *testing.T, ctx context.Context, obj *Object[Slotted], method string, want R) {
	t.Helper()
	s := new(slot[R])
	if v, err := obj.Proxy().InvokeInto(ctx, s, method, []any{7}); err != nil || v == any(s) || !reflect.ValueOf(&s.val).Elem().IsZero() {
		t.Errorf("%s as %T: InvokeInto = %v, %v, slot %#v; want the value and the slot untouched", method, want, v, err, s.val)
	}
	if got, err := Call[R](ctx, obj, method, 7); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("%s as %T: Call = %#v, %v, want %#v", method, want, got, err, want)
	}
}

// TestCancelAgainstReplyBlockingSlot: a thousand blocking calls, each
// cancelled while its reply is on its way into the call's typed slot, return
// the echo when the reply was in first and context.Canceled, with no value,
// when the cancel was, never a value half written. A slot such a call let
// go is not lent again: the call after each, over another of the four
// lanes, returns exactly its own echo, and under the race detector nothing
// touches a slot the first call's reader may still be writing.
func TestCancelAgainstReplyBlockingSlot(t *testing.T) {
	remote, _ := slottedOn(t, WithMuxLanes(4))
	ctx := within(t, 60*time.Second)
	echo := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 64+i%64) }
	call := func(ctx context.Context, i int) ([]byte, error) { return Call[[]byte](ctx, remote, "Echo", echo(i)) }
	for i := 0; i < 8; i++ { // declare and confirm the handle on every lane
		if _, err := call(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	var replied, cancelled int
	for i := 0; i < 1000; i++ {
		cctx, cancel := context.WithCancel(ctx)
		go func(spin int) {
			for ; spin > 0; spin-- {
				runtime.Gosched() // let the reply come closer, by a varying amount
			}
			cancel()
		}(i % 32)
		switch v, err := call(cctx, i); {
		case err == nil && bytes.Equal(v, echo(i)):
			replied++
		case errors.Is(err, context.Canceled) && v == nil:
			cancelled++
		default:
			t.Fatalf("call %d = %x, %v", i, v, err)
		}
		cancel()
		if v, err := call(ctx, i+1); err != nil || !bytes.Equal(v, echo(i+1)) {
			t.Fatalf("the call after cancelled call %d = %x, %v, want its own echo", i, v, err)
		}
	}
	t.Logf("%d calls answered before their cancel, %d cancelled first", replied, cancelled)
}
