package parc_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/parc"
)

// slowCounter is a context-aware parallel-object class: Sleep honours its
// injected context, so a caller's deadline aborts it on the hosting node.
type slowCounter struct {
	mu sync.Mutex
	n  int
}

func (c *slowCounter) Add(v int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n += v
}

func (c *slowCounter) Total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Sleep blocks for d or until the injected request context ends.
func (c *slowCounter) Sleep(ctx context.Context, millis int) error {
	select {
	case <-time.After(time.Duration(millis) * time.Millisecond):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// startTyped boots a 2-node cluster with a registered slowCounter class and
// returns a typed handle to a fresh object.
func startTyped(t *testing.T, opts ...parc.Option) (*parc.Cluster, *parc.Object[slowCounter]) {
	t.Helper()
	cl, err := parc.StartCluster(append([]parc.Option{parc.WithNodes(2)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	parc.Register[slowCounter](cl, "slow")
	obj, err := parc.New[slowCounter](cl, "slow")
	if err != nil {
		t.Fatal(err)
	}
	return cl, obj
}

func TestObjectCallHappyPath(t *testing.T) {
	ctx := context.Background()
	_, obj := startTyped(t)
	for v := 1; v <= 4; v++ {
		if err := obj.Send(ctx, "Add", v); err != nil {
			t.Fatal(err)
		}
	}
	total, err := parc.Call[int](ctx, obj, "Total")
	if err != nil {
		t.Fatal(err)
	}
	if total != 10 {
		t.Errorf("Total = %d, want 10", total)
	}
	// Typed future path.
	res := parc.CallAsync[int](ctx, obj, "Total")
	if total, err = res.Get(ctx); err != nil || total != 10 {
		t.Errorf("CallAsync Total = %d, %v; want 10, nil", total, err)
	}
	if err := obj.Err(); err != nil {
		t.Errorf("async error stream: %v", err)
	}
}

func TestObjectRoundRobinPlacementRemote(t *testing.T) {
	ctx := context.Background()
	cl, _ := startTyped(t)
	// With two nodes and round-robin placement, creating more objects
	// must place at least one remotely; the typed API must work there
	// identically.
	remote := 0
	for i := 0; i < 4; i++ {
		obj, err := parc.New[slowCounter](cl, "slow")
		if err != nil {
			t.Fatal(err)
		}
		if !obj.Proxy().IsLocal() {
			remote++
		}
		if err := obj.Send(ctx, "Add", i); err != nil {
			t.Fatal(err)
		}
		if got, err := parc.Call[int](ctx, obj, "Total"); err != nil || got != i {
			t.Fatalf("object %d: Total = %d, %v", i, got, err)
		}
	}
	if remote == 0 {
		t.Error("round robin never placed remotely")
	}
}

func TestCallContextCancellationMidInvoke(t *testing.T) {
	_, obj := startTyped(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := parc.Call[any](ctx, obj, "Sleep", 5000)
	elapsed := time.Since(start)
	if !errors.Is(err, parc.ErrCanceled) {
		t.Fatalf("err = %v, want errors.Is(err, ErrCanceled)", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %v; the in-flight invoke was not aborted", elapsed)
	}
}

func TestCallDeadlineExpiryOnSlowMethod(t *testing.T) {
	_, obj := startTyped(t)
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := parc.Call[any](ctx, obj, "Sleep", 5000)
	elapsed := time.Since(start)
	if !errors.Is(err, parc.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want errors.Is(err, ErrDeadlineExceeded)", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("deadline expiry took %v; the slow method was not abandoned", elapsed)
	}
}

func TestServerSideDeadlinePropagation(t *testing.T) {
	// The deadline travels in the request envelope: the context-aware
	// Sleep method observes it on the hosting node and returns early, so
	// the response (an error response) comes back over the wire rather
	// than the client abandoning the connection.
	cl, _ := startTyped(t)
	var remote *parc.Object[slowCounter]
	for i := 0; i < 2; i++ {
		obj, err := parc.New[slowCounter](cl, "slow")
		if err != nil {
			t.Fatal(err)
		}
		if !obj.Proxy().IsLocal() {
			remote = obj
		}
	}
	if remote == nil {
		t.Fatal("no remote object created")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := remote.Invoke(ctx, "Sleep", 5000)
	if !errors.Is(err, parc.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want errors.Is(err, ErrDeadlineExceeded)", err)
	}
}

func TestErrorsIsForEachSentinel(t *testing.T) {
	ctx := context.Background()
	cl, obj := startTyped(t)

	// ErrNoSuchMethod: checked client-side before any traffic; the error
	// names the candidates.
	_, err := parc.Call[int](ctx, obj, "Tootal")
	if !errors.Is(err, parc.ErrNoSuchMethod) {
		t.Errorf("unknown method: err = %v, want ErrNoSuchMethod", err)
	}
	if err == nil || !containsAll(err.Error(), "Add", "Total", "Sleep") {
		t.Errorf("unknown-method error does not name candidates: %v", err)
	}
	if err := obj.Send(ctx, "Tootal"); !errors.Is(err, parc.ErrNoSuchMethod) {
		t.Errorf("Send unknown method: err = %v, want ErrNoSuchMethod", err)
	}

	// ErrNoSuchMethod across the wire: bypass the client-side check via
	// the dynamic proxy so the server produces it.
	_, err = obj.Proxy().InvokeCtx(ctx, "Invoke1")
	if err == nil {
		t.Error("dynamic call with missing args should fail")
	}

	// ErrNoSuchClass.
	if _, err := parc.New[slowCounter](cl, "unregistered"); !errors.Is(err, parc.ErrNoSuchClass) {
		t.Errorf("unregistered class: err = %v, want ErrNoSuchClass", err)
	}

	// ErrCanceled: context already done.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := parc.Call[int](canceled, obj, "Total"); !errors.Is(err, parc.ErrCanceled) {
		t.Errorf("pre-canceled ctx: err = %v, want ErrCanceled", err)
	}

	// ErrObjectDestroyed: calls after Destroy fail with the sentinel on
	// local actors (stopped mailbox) and remote objects alike (the wire
	// code rebuilds the chain client-side).
	for i := 0; i < 2; i++ {
		victim, err := parc.New[slowCounter](cl, "slow")
		if err != nil {
			t.Fatal(err)
		}
		if err := victim.Destroy(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := victim.Invoke(ctx, "Total"); !errors.Is(err, parc.ErrObjectDestroyed) {
			t.Errorf("destroyed object (local=%v): err = %v, want ErrObjectDestroyed",
				victim.Proxy().IsLocal(), err)
		}
	}

	// ErrBadConversion: the wire value cannot become the requested type.
	if _, err := parc.Call[time.Time](ctx, obj, "Total"); !errors.Is(err, parc.ErrBadConversion) {
		t.Errorf("bad conversion: err = %v, want ErrBadConversion", err)
	}
}

func TestErrNodeDownOnUnreachablePeer(t *testing.T) {
	// A node serving on a real TCP port, then stopped: invoking through a
	// stale reference surfaces ErrNodeDown.
	n0, err := parc.ServeNode(parc.WithNodeID(0))
	if err != nil {
		t.Fatal(err)
	}
	parc.RegisterAt[slowCounter](n0, "slow")
	obj, err := parc.NewAt[slowCounter](n0, "slow")
	if err != nil {
		t.Fatal(err)
	}
	ref := obj.Ref()
	n0.Close()

	n1, err := parc.ServeNode(parc.WithNodeID(0))
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	stale := parc.Bind[slowCounter](n1, ref)
	if _, err := stale.Invoke(context.Background(), "Total"); !errors.Is(err, parc.ErrNodeDown) {
		t.Errorf("dead peer: err = %v, want ErrNodeDown", err)
	}
}

// TestAsConversionErrors is the regression test for the silent-zero bug:
// As used to return the zero value with a nil error when the converted
// value failed the final type assertion.
func TestAsConversionErrors(t *testing.T) {
	if _, err := parc.As[int]("nope", nil); err == nil {
		t.Error("As[int] of a string should fail")
	} else if !errors.Is(err, parc.ErrBadConversion) {
		t.Errorf("err = %v, want ErrBadConversion", err)
	}
	// A conversion that Assign cannot perform must never silently yield
	// the zero value.
	if got, err := parc.As[time.Time](42, nil); err == nil {
		t.Errorf("As[time.Time](42) = %v with nil error; want ErrBadConversion", got)
	} else if !errors.Is(err, parc.ErrBadConversion) {
		t.Errorf("err = %v, want ErrBadConversion", err)
	}
}

func TestResultGetHonoursContext(t *testing.T) {
	_, obj := startTyped(t)
	callCtx, stop := context.WithCancel(context.Background())
	defer stop() // aborts the still-running Sleep so cluster shutdown is fast
	res := parc.CallAsync[any](callCtx, obj, "Sleep", 5000)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := res.Get(ctx); !errors.Is(err, parc.ErrDeadlineExceeded) {
		t.Errorf("Result.Get under deadline: err = %v, want ErrDeadlineExceeded", err)
	}
}

// TestFunctionalOptionsCompose drives a cluster configured entirely
// through functional options (the only config surface since the
// positional ClusterConfig/NodeConfig API was removed).
func TestFunctionalOptionsCompose(t *testing.T) {
	ctx := context.Background()
	cl, err := parc.StartCluster(
		parc.WithNodes(3),
		parc.WithNetwork(parc.Ethernet100()),
		parc.WithPlacement(&parc.RoundRobin{}),
		parc.WithLoadCacheTTL(10*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Size() != 3 {
		t.Fatalf("Size = %d, want 3", cl.Size())
	}
	parc.Register[slowCounter](cl, "slow")
	obj, err := parc.New[slowCounter](cl, "slow")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := obj.Send(ctx, "Add", 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := obj.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if got, err := parc.Call[int](ctx, obj, "Total"); err != nil || got != 16 {
		t.Fatalf("Total = %d, %v; want 16", got, err)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		found := false
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
