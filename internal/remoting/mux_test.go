package remoting

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/errs"
	"repro/internal/transport"
)

// countingNetwork counts dials, to prove the multiplexed channel shares one
// connection.
type countingNetwork struct {
	transport.Network
	dials atomic.Int64
}

func (n *countingNetwork) Dial(addr string) (transport.Conn, error) {
	n.dials.Add(1)
	return n.Network.Dial(addr)
}

// gateService blocks WaitGate until Open runs, and reports (through
// started) when WaitGate is executing server-side.
type gateService struct {
	started chan struct{}
	gate    chan struct{}
}

func newGateService() *gateService {
	return &gateService{started: make(chan struct{}, 16), gate: make(chan struct{})}
}

func (g *gateService) WaitGate() string {
	g.started <- struct{}{}
	<-g.gate
	return "waited"
}

func (g *gateService) Open() string {
	close(g.gate)
	return "opened"
}

func (g *gateService) Ping() string { return "pong" }

func newMuxServer(t *testing.T) (*Channel, *Server, *countingNetwork) {
	t.Helper()
	net := &countingNetwork{Network: transport.NewMemNetwork()}
	ch := NewMultiplexedChannel(net)
	srv, err := ch.ListenAndServe("mem://mux")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	t.Cleanup(ch.Close)
	return ch, srv, net
}

func TestMultiplexedInvoke(t *testing.T) {
	ch, srv, _ := newMuxServer(t)
	shared := &divideServer{}
	srv.Marshal("d", shared)
	ref, err := GetObject(ch, srv.URLFor("d"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ref.Invoke("Divide", 10.0, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2.5 {
		t.Errorf("Divide = %v", got)
	}
	if _, err := ref.Invoke("Divide", 1.0, 0.0); err == nil {
		t.Error("expected division by zero error")
	} else {
		var re *remoteError
		if !errors.As(err, &re) {
			t.Errorf("error type %T, want *remoteError", err)
		}
	}
}

func TestMultiplexedSharesOneConnection(t *testing.T) {
	ch, srv, net := newMuxServer(t)
	ch.MuxLanes = 1 // this test is exactly about sharing one connection
	shared := &divideServer{}
	srv.Marshal("d", shared)
	ref, _ := GetObject(ch, srv.URLFor("d"))
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if _, err := ref.Invoke("Divide", 8.0, 2.0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if shared.Calls() != 320 {
		t.Errorf("calls = %d, want 320", shared.Calls())
	}
	if d := net.dials.Load(); d != 1 {
		t.Errorf("dials = %d, want 1 (one long-lived connection per peer)", d)
	}
}

// TestMultiplexedOutOfOrderCompletion proves the pipeline: a call that
// blocks server-side must not block a later call on the same connection,
// and the later call's response overtakes it on the wire. With the old
// serial per-connection dispatch this test deadlocks.
func TestMultiplexedOutOfOrderCompletion(t *testing.T) {
	ch, srv, _ := newMuxServer(t)
	g := newGateService()
	srv.Marshal("g", g)
	ref, _ := GetObject(ch, srv.URLFor("g"))

	slow := goInvoke(ref, "WaitGate")
	select {
	case <-g.started:
	case <-time.After(5 * time.Second):
		t.Fatal("WaitGate never reached the server")
	}
	select {
	case <-slow:
		t.Fatal("WaitGate completed before the gate opened")
	default:
	}

	done := make(chan struct{})
	var openRes any
	var openErr error
	go func() {
		defer close(done)
		openRes, openErr = ref.Invoke("Open")
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Open deadlocked behind WaitGate: dispatch is not concurrent")
	}
	if openErr != nil || openRes != "opened" {
		t.Fatalf("Open = %v, %v", openRes, openErr)
	}
	if got := <-slow; got.err != nil || got.v != "waited" {
		t.Fatalf("WaitGate = %v, %v", got.v, got.err)
	}
}

// TestMultiplexedCancellationAbandonsCall checks that an expired context
// abandons only its own call: the shared connection survives and later
// calls (and the late response being dropped) work fine.
func TestMultiplexedCancellationAbandonsCall(t *testing.T) {
	ch, srv, net := newMuxServer(t)
	ch.MuxLanes = 1 // dial count below assumes a single shared connection
	g := newGateService()
	srv.Marshal("g", g)
	ref, _ := GetObject(ch, srv.URLFor("g"))

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := ref.InvokeCtx(ctx, "WaitGate"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	// The connection must still be usable by other calls.
	if got, err := ref.Invoke("Ping"); err != nil || got != "pong" {
		t.Fatalf("Ping after cancellation = %v, %v", got, err)
	}
	// Unblock the abandoned handler; its late response is dropped.
	if _, err := ref.Invoke("Open"); err != nil {
		t.Fatal(err)
	}
	if got, err := ref.Invoke("Ping"); err != nil || got != "pong" {
		t.Fatalf("Ping after late response = %v, %v", got, err)
	}
	if d := net.dials.Load(); d != 1 {
		t.Errorf("dials = %d, want 1: cancellation must not kill the connection", d)
	}
}

// TestMultiplexedMaxInFlightBackpressure bounds concurrent exchanges: with
// MaxInFlight=2, six concurrent callers must never execute more than two
// methods at once server-side.
func TestMultiplexedMaxInFlightBackpressure(t *testing.T) {
	ch, srv, _ := newMuxServer(t)
	ch.MuxLanes = 1 // MaxInFlight is per lane; the peak bound assumes one
	ch.MaxInFlight = 2
	var cur, peak atomic.Int64
	blocker := &blockingService{cur: &cur, peak: &peak, dur: 30 * time.Millisecond}
	srv.Marshal("b", blocker)
	ref, _ := GetObject(ch, srv.URLFor("b"))
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ref.Invoke("Work") //nolint:errcheck
		}()
	}
	wg.Wait()
	if peak.Load() > 2 {
		t.Errorf("MaxInFlight violated: peak server concurrency %d", peak.Load())
	}
}

// TestMultiplexedStaleConnRetry kills the server between calls: the
// long-lived connection goes stale and the next call must transparently
// redial instead of failing with ErrNodeDown.
func TestMultiplexedStaleConnRetry(t *testing.T) {
	net := transport.NewMemNetwork()
	ch := NewMultiplexedChannel(net)
	defer ch.Close()
	srv, err := ch.ListenAndServe("mem://restart")
	if err != nil {
		t.Fatal(err)
	}
	srv.Marshal("d", &divideServer{})
	ref, _ := GetObject(ch, srv.URLFor("d"))
	if _, err := ref.Invoke("Noop"); err != nil {
		t.Fatal(err)
	}
	srv.Close() // peer "restarts": the pipe is now dead
	srv2, err := ch.ListenAndServe("mem://restart")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	srv2.Marshal("d", &divideServer{})
	got, err := ref.Invoke("Divide", 9.0, 3.0)
	if err != nil {
		t.Fatalf("call after peer restart = %v, want transparent redial", err)
	}
	if got != 3.0 {
		t.Errorf("Divide = %v", got)
	}
}

// TestMultiplexedDownPeerFails ensures genuine failures still surface: with
// no listener at all the retry must not loop or mask ErrNodeDown.
func TestMultiplexedDownPeerFails(t *testing.T) {
	net := transport.NewMemNetwork()
	ch := NewMultiplexedChannel(net)
	defer ch.Close()
	ref := NewObjRef(ch, "mem://nowhere", "d")
	if _, err := ref.Invoke("Noop"); !errors.Is(err, errs.ErrNodeDown) {
		t.Fatalf("err = %v, want ErrNodeDown", err)
	}
}

// TestChannelCloseDrainsConnections: Close releases every peer lane; the
// channel stays usable and redials afterwards.
func TestChannelCloseDrainsConnections(t *testing.T) {
	t.Run("multiplexed", func(t *testing.T) {
		ch, srv, net := newMuxServer(t)
		srv.Marshal("d", &divideServer{})
		ref, _ := GetObject(ch, srv.URLFor("d"))
		if _, err := ref.Invoke("Noop"); err != nil {
			t.Fatal(err)
		}
		ch.Close()
		ch.muxMu.Lock()
		peers := len(ch.muxPeers)
		ch.muxMu.Unlock()
		if peers != 0 {
			t.Errorf("Close left %d multiplexed peers", peers)
		}
		if _, err := ref.Invoke("Noop"); err != nil {
			t.Errorf("channel unusable after Close: %v", err)
		}
		if d := net.dials.Load(); d != 2 {
			t.Errorf("dials = %d, want 2 (redial after Close)", d)
		}
	})
}

// TestMultiplexedCloseDoesNotRetry: an in-flight call failed by an orderly
// Channel.Close must surface ErrNodeDown without redialling — a retry
// would re-create the connection Close just released.
func TestMultiplexedCloseDoesNotRetry(t *testing.T) {
	ch, srv, net := newMuxServer(t)
	g := newGateService()
	openGate := sync.OnceFunc(func() { close(g.gate) })
	t.Cleanup(openGate) // before the server closes, should a check fail first
	srv.Marshal("g", g)
	ref, _ := GetObject(ch, srv.URLFor("g"))
	ar := goInvoke(ref, "WaitGate")
	select {
	case <-g.started:
	case <-time.After(5 * time.Second):
		t.Fatal("WaitGate never reached the server")
	}
	ch.Close()
	if got := <-ar; !errors.Is(got.err, errs.ErrNodeDown) {
		t.Fatalf("in-flight call after Close = %v, want ErrNodeDown", got.err)
	}
	if d := net.dials.Load(); d != 1 {
		t.Errorf("dials = %d, want 1: Close must not trigger a retry redial", d)
	}
	openGate() // release the abandoned server-side handler
}

// TestFailLanesSendsOnceMore: a lane FailLanes fails tells its call in
// flight ErrNodeDown, as a dead connection does, not Close's error, so a
// blocking call is sent once more (Stale), on a lane dialled afresh, and is
// answered there.
func TestFailLanesSendsOnceMore(t *testing.T) {
	ch, srv, net := newMuxServer(t)
	g := newGateService()
	openGate := sync.OnceFunc(func() { close(g.gate) })
	t.Cleanup(openGate)
	srv.Marshal("g", g)
	ref, _ := GetObject(ch, srv.URLFor("g"))
	ar := goInvoke(ref, "WaitGate")
	select {
	case <-g.started:
	case <-time.After(5 * time.Second):
		t.Fatal("WaitGate never reached the server")
	}
	ch.FailLanes()
	select {
	case <-g.started: // sent again, it waits at the gate too
	case <-time.After(5 * time.Second):
		t.Fatal("the call was not sent again after its lane failed")
	}
	openGate()
	if got := <-ar; got.err != nil || got.v != "waited" {
		t.Fatalf("call whose lane failed = %v, %v, want its answer", got.v, got.err)
	}
	if d := net.dials.Load(); d != 2 {
		t.Errorf("dials = %d, want 2: the lane, and its replacement", d)
	}
}
