package parc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/racetest"
	"repro/internal/remoting"
)

// Echoer is a class with an invoker thunk, as parcgen would emit, so a
// budget on a call to it measures the runtime and not reflection on the
// test's class.
type Echoer struct{}

func (*Echoer) Echo(b []byte) []byte { return b }
func (*Echoer) Other()               {}

func init() {
	RegisterInvokers(&Echoer{}, map[string]Invoker{
		"Echo": func(_ context.Context, obj any, args []any) (any, error) {
			if len(args) != 1 {
				return nil, BadArity(obj, "Echo", len(args), 1)
			}
			b, err := Arg[[]byte](obj, "Echo", args, 0)
			if err != nil {
				return nil, err
			}
			return obj.(*Echoer).Echo(b), nil
		},
	})
}

// remoteEchoer starts two nodes on loopback TCP, where a connection owns its
// receive buffer as it does in production (over inproc:// every frame goes
// through the process-wide pool, whose misses depend on what ran before),
// and returns an Echoer placed on the node the caller is not on.
func remoteEchoer(t *testing.T) *Object[Echoer] {
	t.Helper()
	nodes := make([]*Runtime, 2)
	addrs := make([]string, 2)
	for i := range nodes {
		rt, err := ServeNode(WithNodeID(i), WithListen("127.0.0.1:0"),
			WithPlacement(&pinNode{node: 1}))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		RegisterAt[Echoer](rt, "echoer")
		nodes[i], addrs[i] = rt, rt.Addr()
	}
	for _, rt := range nodes {
		if err := rt.JoinCluster(addrs); err != nil {
			t.Fatal(err)
		}
	}
	obj, err := NewAt[Echoer](nodes[0], "echoer")
	if err != nil {
		t.Fatal(err)
	}
	if obj.Proxy().IsLocal() {
		t.Fatal("want a remote object")
	}
	return obj
}

// TestAllocBudgetTypedCall: a 64 B typed call to an object on another node,
// both ends counted, stays inside its budget,
// and the method-name check of a typed call is free once it has passed.
// The call measures 3, all of them the user's values: the payload on either
// end (the argument the server decodes into the thunk's parameter, the
// result the caller's slot receives) and the reply's box in the thunk. The
// reply is decoded into a typed slot the call borrows, so the caller's end
// boxes nothing; args is built outside the call, so the argument's box (1
// more in a generated proxy, whose list stays on its stack:
// TestAllocBudgetCallerList) is not in it. A
// reply boxed on the caller's end again, or an envelope, waiter, closure,
// argument list, slot or method name built per call, adds at least 1 to the
// 3, which the budget of 4 holds and TestAllocBudgetArgumentUnboxed fails;
// a second allocation more fails it, and a server that dispatches the
// endpoint reflectively (12 more) fails both.
func TestAllocBudgetTypedCall(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	obj := remoteEchoer(t)
	ctx := context.Background()
	payload := bytes.Repeat([]byte{0xAB}, 64)
	args := []any{payload}
	call := func() {
		got, err := Call[[]byte](ctx, obj, "Echo", args...)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("Echo = %x, %v", got, err)
		}
	}
	for i := 0; i < 4; i++ {
		call() // declare and confirm the handle, warm the pools
	}
	if n := testing.AllocsPerRun(500, call); n > 4 {
		t.Errorf("typed remote call: %.0f allocs, budget 4", n)
	} else {
		t.Logf("typed remote call: %.0f allocs", n)
	}
	if n := testing.AllocsPerRun(500, func() {
		if err := checkMethod[Echoer]("Echo"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("checkMethod on a known name: %.0f allocs, want 0", n)
	}
}

// TestAllocBudgetCallerList is TestAllocBudgetTypedCall with the argument
// list built per call, as a caller (a generated proxy among them) writes
// it: Call[[]byte](ctx, obj, "Echo", payload). It measures 4: the 3 of that
// call and the payload's box on the caller's end. The list itself costs
// nothing: the runtime copies it into one the object's proxy keeps, so it
// stays on the caller's stack. A list that escapes again adds 1, which the
// budget of 5 holds; a second allocation more fails it.
func TestAllocBudgetCallerList(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	obj := remoteEchoer(t)
	ctx := context.Background()
	payload := bytes.Repeat([]byte{0xAB}, 64)
	call := func() {
		got, err := Call[[]byte](ctx, obj, "Echo", payload)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("Echo = %x, %v", got, err)
		}
	}
	for i := 0; i < 4; i++ {
		call() // declare and confirm the handle, warm the pools
	}
	if n := testing.AllocsPerRun(500, call); n > 5 {
		t.Errorf("typed remote call with a list built per call: %.0f allocs, budget 5", n)
	} else {
		t.Logf("typed remote call with a list built per call: %.0f allocs", n)
	}
}

// TestAllocBudgetArgumentUnboxed holds the call of TestAllocBudgetTypedCall,
// its list passed in, to the 3 it measures: the payload on either end and
// the reply's box in the thunk. The server reads only the request's header
// and leaves the argument pending in its frame (wire.PendingList), and the
// thunk's dispatch.Arg decodes it straight into the []byte parameter. A
// server that decodes the list boxed before dispatch, as it did before the
// pending list, measures 4 and fails; so does anything else the call
// allocates per call.
func TestAllocBudgetArgumentUnboxed(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	obj := remoteEchoer(t)
	ctx := context.Background()
	payload := bytes.Repeat([]byte{0xCD}, 64)
	args := []any{payload}
	call := func() {
		got, err := Call[[]byte](ctx, obj, "Echo", args...)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("Echo = %x, %v", got, err)
		}
	}
	for i := 0; i < 4; i++ {
		call()
	}
	if n := testing.AllocsPerRun(500, call); n > 3 {
		t.Errorf("typed remote call, argument bound where it is decoded: %.0f allocs, budget 3", n)
	} else {
		t.Logf("typed remote call, argument bound where it is decoded: %.0f allocs", n)
	}
}

// TestAllocBudgetAcrossCollections holds a blocking typed call to its
// budget when garbage collections come as often as pingpong_bulk's: the
// 64 B call of TestAllocBudgetTypedCall and a 256 KiB one (where the two
// receive frames take the place of the payload's two copies), with a
// collection after every four calls. What a collection costs on its own
// (the runtime's cleanup, 2 here) is measured alone and subtracted. Both
// sizes measure 3 a call: what a blocking call reuses (the encoders on
// either end, the server's call record, the caller's record and its typed
// slot) is kept by the lane, the server connection, the ObjRef and parc,
// none of which a collection empties. A call that takes any of them from a
// sync.Pool refills it after every collection, and at one collection in
// four calls that comes to 4.5 and fails the budget of 4.
func TestAllocBudgetAcrossCollections(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	obj := remoteEchoer(t)
	ctx := context.Background()
	const callsPerGC, runs = 4, 50
	control := testing.AllocsPerRun(runs, runtime.GC)
	for _, size := range []int{64, 256 << 10} {
		payload := bytes.Repeat([]byte{0xAB}, size)
		args := []any{payload}
		call := func() {
			got, err := Call[[]byte](ctx, obj, "Echo", args...)
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("Echo(%d B) = %d B, %v", size, len(got), err)
			}
		}
		for i := 0; i < 4; i++ {
			call()
		}
		n := (testing.AllocsPerRun(runs, func() {
			for i := 0; i < callsPerGC; i++ {
				call()
			}
			runtime.GC()
		}) - control) / callsPerGC
		if n > 4 {
			t.Errorf("%d B call, a collection every %d calls: %.2f allocs a call (a collection alone %.2f), budget 4",
				size, callsPerGC, n, control)
		} else {
			t.Logf("%d B call, a collection every %d calls: %.2f allocs a call (a collection alone %.2f)",
				size, callsPerGC, n, control)
		}
	}
}

// TestAllocBudgetAsyncCall holds one CallAsync and the Get of its result, on
// the same remote object, to what it measures plus one. It measures 5, one
// more than the blocking call: that call's 4 minus the reply's box on the
// caller's end (the result is decoded into the Result's typed slot, and the
// future resolves with a pointer to it), plus two of the runtime's own: the
// call (one object of 88 B, the Result and its Future) and the channel Get
// waits on. The attempt the re-run rule rides on, which holds the
// connection's record, the one place the request and its context are kept,
// is drawn from the proxy's store and goes back when the call is done, so
// it costs nothing. The caller's context is Background, so nothing is spent
// on cancellation; a derived context, a hook, an attempt allocated per call,
// a closure around a continuation or a completion, or a reply decoded as a
// value and boxed again adds at least 1, which the budget of 6 holds; a
// second allocation more fails it.
func TestAllocBudgetAsyncCall(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	obj := remoteEchoer(t)
	ctx := context.Background()
	payload := bytes.Repeat([]byte{0xAB}, 64)
	args := []any{payload}
	call := func() {
		got, err := CallAsync[[]byte](ctx, obj, "Echo", args...).Get(ctx)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("Echo = %x, %v", got, err)
		}
	}
	for i := 0; i < 4; i++ {
		call()
	}
	if n := testing.AllocsPerRun(500, call); n > 6 {
		t.Errorf("async remote call: %.0f allocs, budget 6", n)
	} else {
		t.Logf("async remote call: %.0f allocs", n)
	}
}

// TestAllocBudgetScatterWave holds a wave of 256 calls over remote objects,
// Scatter then Gather, to what a member call measures plus one, so that the
// wave's share is gated too. A member measures 5: the 3 of the blocking call
// that are left when the reply lands in the typed slot (the payload on either
// end, the reply's box in the thunk) plus the argument
// list with its boxed payload that this test's argsFor builds per member; the
// wave's own (the slab of 72 B Results, each its call's Future and typed
// slot, the slice of pointers to them, WhenAll's one record and its values,
// the channel Gather waits on) come to 0.02 to 0.04 between 256, where a
// slab of 88 B records and WhenAll's promise, counters and closures beside
// its Result came to 0.04 to 0.06. The
// members' attempts are their proxies', drawn from a store of two and,
// beyond those, from the attempts' pool, which a collection empties: that
// pool term is the one left, and it is 0 while no collection falls inside
// the run, since each connection receives into its own buffer; so the
// figure is the same alone, after other tests, at any -cpu and with
// -count=3 (a collection that empties the attempt, encoder and call-record
// pools mid-run shows as 0.1 at most, 256 attempts a wave refilled once). A
// member that allocates anything of the runtime's own again adds 1, which
// the budget of 5.98 holds; a second allocation more fails it.
func TestAllocBudgetScatterWave(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	wave := echoWave(t)
	if n := testing.AllocsPerRun(20, wave) / waveMembers; n > 5.98 {
		t.Errorf("scatter wave: %.2f allocs a member call, budget 5.98", n)
	} else {
		t.Logf("scatter wave: %.2f allocs a member call", n)
	}
}

// TestAllocBudgetAsyncFootprint holds what an asynchronous call stores, in
// bytes. A wave member's record is its Result, which holds only what
// outlives the call, its Future (48 B) and its typed slot, and must stay
// within 72 B. A wave allocates its 256 Results as one slab: at 72 B that is
// 18,432 B, which is one of the allocator's size classes exactly, 72 B a
// member; at 80 B it would take the 20,480 B class. What serves only the
// exchange, the attempt the re-run rule rides on with the connection's
// 104 B CallRecord, is the proxy's, drawn from its store and back when the
// call is done (core's attempt), so the slab does not pin it for as long as
// the caller holds its Results. A record that kept the request and its
// context twice, the blocking call's channel and envelope, and an encoder's
// bytes beside the encoder was 616 B; one that kept copies of what its
// context, its channel and its future's state already hold (the deadline
// and token, the breaker, the call's name as a string, a second
// continuation slot and a completed flag) was 416 B; one that kept a memo of
// the converted outcome beside the slot, the queued frame beside the lane's
// queue, two hooks on the context and the call and method as two strings
// was 352 B; one that held five pointers back into itself (the Result's and
// the attempt's to the Future, the record's sink to the slot and its
// Completer to the attempt, the Future's abort hook to the record), a
// derived future's field beside every continuation, and the Future's
// continuations and abort hook beside the outcome they are never needed
// with, was 280 B; one that held the attempt and its CallRecord inside it,
// 128 B needed only while the call was in flight, was 216 B, a slab of 7
// pages, 224 B a member; and one that kept the Future beside the Result with
// a pointer from one to the other, and the waiter's channel in a field of
// the Future of its own rather than among its continuations, was 88 B, a
// slab in the 24,576 B class, 96 B a member. The bytes a Scatter wave of 256
// allocates, both ends and the wave's own, are held per member to 341 B,
// where they measure 302 to 304 B (325 to 326 B with the 88 B record): the
// same 38 B of slack as before. The record's fields are logged with their
// offsets, so that a change names the row it moves, and so is the attempt's
// share that left it.
func TestAllocBudgetAsyncFootprint(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	size, future := unsafe.Sizeof(Result[[]byte]{}), unsafe.Sizeof(core.Future{})
	t.Logf("Result[[]byte] %d B, what outlives the call: core.AsyncCall %d B (Future %d B) and the typed slot",
		size, unsafe.Sizeof(core.AsyncCall{}), future)
	logFields(t, reflect.TypeFor[Result[[]byte]](), 0, "")
	t.Logf("the proxy's, lent for the exchange: the attempt, with remoting.CallRecord %d B", unsafe.Sizeof(remoting.CallRecord{}))
	if future != 48 {
		t.Errorf("core.Future is %d B, want 48", future)
	}
	if size > 72 {
		t.Errorf("Result[[]byte] is %d B, budget 72", size)
	}

	const waves, budget = 20, 341.0
	wave := echoWave(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// The least of three windows: a collection inside one empties the pools
	// that a wave's encoders and server call records overflow into, whose
	// refill is not the call's.
	perMember := 0.0
	for w := 0; w < 3; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < waves; i++ {
			wave()
		}
		runtime.ReadMemStats(&after)
		got := float64(after.TotalAlloc-before.TotalAlloc) / (waveMembers * waves)
		t.Logf("window %d: %.1f B", w, got)
		if w == 0 || got < perMember {
			perMember = got
		}
	}
	if perMember > budget {
		t.Errorf("scatter wave: %.1f B a member call, budget %.0f", perMember, budget)
	} else {
		t.Logf("scatter wave: %.1f B a member call", perMember)
	}
}

// logFields logs every field of the struct type typ, at its offset from the
// record's start (base), and the fields of each struct it embeds or holds by
// value, indented, so that a change to the record names the row it moves.
func logFields(t *testing.T, typ reflect.Type, base uintptr, indent string) {
	t.Helper()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		t.Logf("%s%4d %4d  %s %s", indent, base+f.Offset, f.Type.Size(), f.Name, f.Type)
		if f.Type.Kind() == reflect.Struct && f.Type.PkgPath() != "sync" && f.Type.PkgPath() != "sync/atomic" {
			logFields(t, f.Type, base+f.Offset, indent+"  ")
		}
	}
}

// waveMembers is the size of echoWave's waves.
const waveMembers = 256

// echoWave returns a Scatter then Gather of waveMembers 64 B Echo calls over
// one Echoer on another node, checked, warmed up: the handle declared and the
// pools filled.
func echoWave(t *testing.T) func() {
	one := remoteEchoer(t)
	objs := make([]*Object[Echoer], waveMembers)
	for i := range objs {
		objs[i] = one
	}
	g := GroupOf(objs...)
	ctx := context.Background()
	payload := bytes.Repeat([]byte{0xAB}, 64)
	argsFor := func(int) []any { return []any{payload} }
	wave := func() {
		got, err := Gather(ctx, Scatter[[]byte](ctx, g, "Echo", argsFor))
		if err != nil || len(got) != waveMembers || !bytes.Equal(got[waveMembers-1], payload) {
			t.Fatalf("wave = %d results, %v", len(got), err)
		}
	}
	for i := 0; i < 4; i++ {
		wave()
	}
	return wave
}

// TestAllocBudgetWhenAll: aggregating 256 Results that are already issued
// costs the aggregate's own allocations, its values and one record (its
// Result and its count), the same two for 16 members, and nothing per
// member: the one record is subscribed under each member's index. A
// promise, a Result beside it, a count, and one closure to finish and one to
// subscribe were 8.
func TestAllocBudgetWhenAll(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	ctx := context.Background()
	cost := func(members int) float64 {
		rs := make([]*Result[int], members)
		return testing.AllocsPerRun(100, func() {
			for i := range rs {
				rs[i] = new(Result[int])
			}
			all := WhenAll(rs...)
			for i, r := range rs {
				core.Resolve(r, i%200, nil) // small enough to box without allocating
			}
			got, err := all.Get(ctx)
			if err != nil || len(got) != members || got[members-1] != (members-1)%200 {
				t.Fatalf("WhenAll = %d values, %v", len(got), err)
			}
		}) - float64(members) // the stand-in members' Results
	}
	small, large := cost(16), cost(256)
	t.Logf("WhenAll: %.0f allocs over 16 members, %.0f over 256", small, large)
	if large != small {
		t.Errorf("WhenAll over 256 members costs %.0f allocs, over 16 %.0f: it allocates per member", large, small)
	}
	if large > 2 {
		t.Errorf("WhenAll: %.0f allocs, budget 2", large)
	}
}

// TestCheckMethodUnknownName: a bad name still fails before anything is
// sent, names the candidates, wraps ErrNoSuchMethod, and adds nothing to
// the method-set cache however many distinct bad names arrive.
func TestCheckMethodUnknownName(t *testing.T) {
	if err := checkMethod[Echoer]("Other"); err != nil {
		t.Fatal(err)
	}
	cached := func() int {
		n := 0
		methodSets.Range(func(_, set any) bool {
			n += 1 + len(set.(map[string]struct{}))
			return true
		})
		return n
	}
	before := cached()
	for i := 0; i < 100; i++ {
		err := checkMethod[Echoer](fmt.Sprintf("Nope%d", i))
		if !errors.Is(err, ErrNoSuchMethod) {
			t.Fatalf("err = %v, want ErrNoSuchMethod", err)
		}
		if msg := err.Error(); !strings.Contains(msg, "exported methods: Echo, Other") || !strings.Contains(msg, "Echoer") {
			t.Fatalf("error does not list the candidates: %v", err)
		}
	}
	// A type never checked with a good name is not cached at all.
	type unseen struct{}
	if err := checkMethod[unseen]("X"); !errors.Is(err, ErrNoSuchMethod) || !strings.Contains(err.Error(), "no exported methods") {
		t.Fatalf("err = %v", err)
	}
	if after := cached(); after != before {
		t.Errorf("bad names grew the method-set cache from %d to %d entries", before, after)
	}
	if err := checkMethod[Echoer]("Echo"); err != nil {
		t.Fatalf("known name after misses: %v", err)
	}
}
