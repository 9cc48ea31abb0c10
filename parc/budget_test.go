package parc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/racetest"
	"repro/internal/transport"
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

// remoteEchoer starts two nodes on an in-process transport and returns an
// Echoer placed on the one the caller is not on.
func remoteEchoer(t *testing.T) *Object[Echoer] {
	t.Helper()
	nodes := make([]*Runtime, 2)
	addrs := make([]string, 2)
	for i := range nodes {
		rt, err := ServeNode(WithNodeID(i), WithListen(fmt.Sprintf("inproc://budget-%s-%d", t.Name(), i)),
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

// TestAllocBudgetTypedCall: a 64 B typed call to an object on another node
// of an in-process transport, both ends counted, stays inside its budget,
// and the method-name check of a typed call is free once it has passed.
// The call measures 6: the payload and its box on either end, the reply's
// box in the thunk and its copy in Call. An envelope, waiter, closure or
// argument list built per call again adds at least 1 to the 6 and must
// fail the budget of 7; so must a server that dispatches the endpoint
// reflectively (12 more).
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
	if n := testing.AllocsPerRun(500, call); n > 7 {
		t.Errorf("typed remote call: %.0f allocs, budget 7", n)
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

// TestAllocBudgetAsyncCall holds one CallAsync and the Get of its result, on
// the same remote object, to what it measures plus one. It measures 10, by
// an allocation profile: the payload and its box on either end and the
// reply's box in the thunk (5), the method name read on the server (1), and
// four of the runtime's own: the Future (which is also the attempt the
// re-run rule rides on), the Result, the connection's call record, and the
// channel Get waits on. The caller's context is Background, so nothing is
// spent on cancellation; a derived context, a hook, or a closure around a
// continuation or a completion again adds at least 1 and must fail the
// budget of 11.
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
	if n := testing.AllocsPerRun(500, call); n > 11 {
		t.Errorf("async remote call: %.0f allocs, budget 11", n)
	} else {
		t.Logf("async remote call: %.0f allocs", n)
	}
}

// TestAllocBudgetScatterWave holds a wave of 256 calls over remote objects,
// Scatter then Gather, to what a member call measures plus one, so that
// WhenAll's share is gated too. A member measures 12: the 10 of
// TestAllocBudgetAsyncCall less the channel, which only the one Gather
// makes, plus WhenAll's closure over the member's index and the argument
// list with its boxed payload that this test's argsFor builds per member;
// the wave's own slices and promise come to 0.04 between 256.
func TestAllocBudgetScatterWave(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	const members = 256
	one := remoteEchoer(t)
	objs := make([]*Object[Echoer], members)
	for i := range objs {
		objs[i] = one
	}
	g := GroupOf(objs...)
	ctx := context.Background()
	payload := bytes.Repeat([]byte{0xAB}, 64)
	argsFor := func(int) []any { return []any{payload} }
	wave := func() {
		got, err := Gather(ctx, Scatter[[]byte](ctx, g, "Echo", argsFor))
		if err != nil || len(got) != members || !bytes.Equal(got[members-1], payload) {
			t.Fatalf("wave = %d results, %v", len(got), err)
		}
	}
	for i := 0; i < 4; i++ {
		wave()
	}
	// The transport's frame pool looks at one buffer a request and puts a
	// too-small one back (ROADMAP 5(c)), so a wave of mixed request and
	// reply sizes misses it up to twice a call, or not at all, as the pool
	// happens to be ordered. Not this budget's business: no collection
	// while it measures, and a pool of frames that fit either.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 4*members; i++ {
		transport.PutFrame(make([]byte, 512))
	}
	if n := testing.AllocsPerRun(20, wave) / members; n > 13 {
		t.Errorf("scatter wave: %.2f allocs a member call, budget 13", n)
	} else {
		t.Logf("scatter wave: %.2f allocs a member call", n)
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
		for _, set := range *knownMethods.Load() {
			n += 1 + len(set)
		}
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
