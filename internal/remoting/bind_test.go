package remoting

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/errs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// sniffingNetwork wraps a Network and records the first byte of every
// message each direction sends, so tests can assert which frame actually
// travelled, and the bind ack of every reply.
type sniffingNetwork struct {
	transport.Network

	mu       sync.Mutex
	toServer []byte   // first byte of each client->server message
	toClient []byte   // first byte of each server->client message
	acks     []uint32 // bind ack of each reply
}

func newSniffingNetwork() *sniffingNetwork {
	return &sniffingNetwork{Network: transport.NewMemNetwork()}
}

func (n *sniffingNetwork) Dial(addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &sniffingConn{Conn: c, net: n}, nil
}

type sniffingConn struct {
	transport.Conn
	net *sniffingNetwork
}

func (c *sniffingConn) Send(msg []byte) error {
	if len(msg) > 0 {
		c.net.mu.Lock()
		c.net.toServer = append(c.net.toServer, msg[0])
		c.net.mu.Unlock()
	}
	return c.Conn.Send(msg)
}

func (c *sniffingConn) Recv() ([]byte, error) {
	msg, err := c.Conn.Recv()
	if err == nil && len(msg) > 0 {
		d := wire.NewDecoder(nil)
		_, ack, _, _ := decodeReplyHeader(d, msg)
		d.Release()
		c.net.mu.Lock()
		c.net.toClient = append(c.net.toClient, msg[0])
		c.net.acks = append(c.net.acks, ack)
		c.net.mu.Unlock()
	}
	return msg, err
}

// markers returns how many recorded first bytes in dir match marker.
func (n *sniffingNetwork) markers(dir string, marker byte) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	bytes := n.toServer
	if dir == "toClient" {
		bytes = n.toClient
	}
	count := 0
	for _, b := range bytes {
		if b == marker {
			count++
		}
	}
	return count
}

// acked returns how many replies carried a bind ack.
func (n *sniffingNetwork) acked() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	count := 0
	for _, a := range n.acks {
		if a != 0 {
			count++
		}
	}
	return count
}

// bindServer starts a mux server and a one-lane client over a sniffing
// network.
func bindServer(t *testing.T) (*Channel, *Server, *sniffingNetwork) {
	t.Helper()
	net := newSniffingNetwork()
	srv, err := NewMultiplexedChannel(net).ListenAndServe("mem://bind")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.RegisterWellKnown("d", Singleton, func() any { return &divideServer{} })
	cliCh := NewMultiplexedChannel(net)
	// One lane: these tests count frame markers per connection, and
	// handles are per-lane state — striping would split the counts.
	cliCh.MuxLanes = 1
	t.Cleanup(cliCh.Close)
	return cliCh, srv, net
}

func callN(t *testing.T, ref *ObjRef, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		got, err := ref.Invoke("Divide", 10.0, 4.0)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got != 2.5 {
			t.Fatalf("call %d: Divide = %v, want 2.5", i, got)
		}
	}
}

// wantMarkers fails t unless the client sent declaring and bound call
// frames and the server replies in the given numbers, and nothing else.
func (n *sniffingNetwork) wantMarkers(t *testing.T, declaring, bound, replies int) {
	t.Helper()
	if got := n.markers("toServer", markDeclare); got != declaring {
		t.Errorf("declaring calls = %d, want %d", got, declaring)
	}
	if got := n.markers("toServer", markBoundCall); got != bound {
		t.Errorf("bound calls = %d, want %d", got, bound)
	}
	if got := n.markers("toClient", markBoundReply); got != replies {
		t.Errorf("replies = %d, want %d", got, replies)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if sent, got := len(n.toServer), len(n.toClient); sent != declaring+bound || got != replies {
		t.Errorf("%d frames sent and %d received, want %d and %d", sent, got, declaring+bound, replies)
	}
}

// TestBindingUpgradesToCompact proves the handshake: a connection's first
// frame is the pair's declaring call, every reply is a compact reply from
// the first one on (that one carries the ack), and later calls send the
// bare bound frame.
func TestBindingUpgradesToCompact(t *testing.T) {
	ch, srv, net := bindServer(t)
	ref, err := GetObject(ch, srv.URLFor("d"))
	if err != nil {
		t.Fatal(err)
	}
	callN(t, ref, 1)
	net.wantMarkers(t, 1, 0, 1)
	if got := net.acked(); got != 1 {
		t.Errorf("acks after the declaring call = %d, want 1", got)
	}
	callN(t, ref, 5)
	net.wantMarkers(t, 1, 5, 6)
	if got := net.acked(); got != 1 {
		t.Errorf("acks after bound calls = %d, want 1", got)
	}
}

// TestBindingConcurrentCallers hammers one bound pair from many goroutines
// while the handshake is still in flight, so declaring and bound frames
// interleave on the pipe and responses complete out of order. Every call
// must still match its own response.
func TestBindingConcurrentCallers(t *testing.T) {
	ch, srv, _ := bindServer(t)
	ref, err := GetObject(ch, srv.URLFor("d"))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				a := float64(8 * (i + 1))
				got, err := ref.Invoke("Divide", a, 2.0)
				if err != nil {
					t.Error(err)
					return
				}
				if got != a/2 {
					t.Errorf("Divide(%v, 2) = %v", a, got)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestBindRebuildAfterRedial proves handles are per-connection state: after
// a peer restart kills the pipe, the retried call declares its pair again
// on the fresh connection, and later calls are bound again.
func TestBindRebuildAfterRedial(t *testing.T) {
	net := newSniffingNetwork()
	ch := NewMultiplexedChannel(net)
	ch.MuxLanes = 1 // sequential calls must reuse one connection's handles
	defer ch.Close()
	srv, err := ch.ListenAndServe("mem://rebind")
	if err != nil {
		t.Fatal(err)
	}
	srv.RegisterWellKnown("d", Singleton, func() any { return &divideServer{} })
	ref, _ := GetObject(ch, srv.URLFor("d"))
	callN(t, ref, 3) // declare + 2 bound
	net.wantMarkers(t, 1, 2, 3)

	srv.Close() // peer "restarts": the pipe is dead, handles die with it
	srv2, err := ch.ListenAndServe("mem://rebind")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	srv2.RegisterWellKnown("d", Singleton, func() any { return &divideServer{} })

	callN(t, ref, 3) // transparent redial: declare again + bound again
	// The first call after the restart may go out on the dead pipe first (a
	// bound frame nobody answers) before the redial sends it, declaring.
	if got := net.markers("toServer", markDeclare); got != 2 {
		t.Errorf("declaring calls after restart = %d, want 2 (binding must rebuild)", got)
	}
	if got := net.markers("toServer", markBoundCall); got < 4 {
		t.Errorf("bound calls after restart = %d, want at least 4", got)
	}
}

// TestUnregisterInvalidatesBoundEntry: the bound path caches the
// registration, but Unregister must still take effect immediately, and a
// republished object must be picked up.
func TestUnregisterInvalidatesBoundEntry(t *testing.T) {
	ch, srv, _ := bindServer(t)
	ref, err := GetObject(ch, srv.URLFor("d"))
	if err != nil {
		t.Fatal(err)
	}
	callN(t, ref, 3) // bound and confirmed
	srv.Unregister("d")
	if _, err := ref.Invoke("Divide", 1.0, 1.0); !errors.Is(err, errs.ErrObjectDestroyed) {
		t.Fatalf("call after Unregister = %v, want ErrObjectDestroyed", err)
	}
	srv.RegisterWellKnown("d", Singleton, func() any { return &divideServer{} })
	callN(t, ref, 3)
}

// typeA and typeB share a method name but are distinct concrete types, so
// a SingleCall factory alternating between them exercises the bound
// entry's invoker-cache revalidation.
type typeA struct{}

func (typeA) Who() string { return "A" }

type typeB struct{}

func (typeB) Who() string { return "B" }

// TestBoundSingleCallTypeChange: the invoker cache is keyed by concrete
// type; a SingleCall factory that changes its mind must not dispatch
// through a stale thunk.
func TestBoundSingleCallTypeChange(t *testing.T) {
	ch, srv, _ := bindServer(t)
	var n int
	var mu sync.Mutex
	srv.RegisterWellKnown("flip", SingleCall, func() any {
		mu.Lock()
		defer mu.Unlock()
		n++
		if n%2 == 0 {
			return typeB{}
		}
		return typeA{}
	})
	ref, err := GetObject(ch, srv.URLFor("flip"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i := 0; i < 8; i++ {
		got, err := ref.Invoke("Who")
		if err != nil {
			t.Fatal(err)
		}
		seen[got.(string)]++
	}
	if seen["A"] != 4 || seen["B"] != 4 {
		t.Errorf("seen = %v, want A:4 B:4", seen)
	}
}

// TestUnboundHandleGetsErrorReply: a bound call for a handle the server
// never saw declared must produce an error reply for that seq, not kill
// the connection, which then takes a declaring call.
func TestUnboundHandleGetsErrorReply(t *testing.T) {
	net := transport.NewMemNetwork()
	ch := NewMultiplexedChannel(net)
	defer ch.Close()
	srv, err := ch.ListenAndServe("mem://unbound")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.RegisterWellKnown("d", Singleton, func() any { return &divideServer{} })

	c, err := net.Dial("mem://unbound")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	exchange := func(handle uint32, declare bool, req *callRequest) (*callResponse, uint32) {
		t.Helper()
		if err := c.Send(boundCallBytes(t, handle, declare, req)); err != nil {
			t.Fatal(err)
		}
		reply, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		resp, ack, _, err := decodeReply(reply)
		if err != nil {
			t.Fatal(err)
		}
		return resp, ack
	}
	if resp, ack := exchange(99, false, &callRequest{Seq: 7, Args: []any{}}); resp.Seq != 7 || !resp.IsErr || ack != 0 {
		t.Fatalf("resp = %+v ack %d, want IsErr for seq 7 and no ack", resp, ack)
	}
	// The connection survives: a declaring call works and is acked.
	if resp, ack := exchange(1, true, &callRequest{URI: "d", Method: "Noop", Seq: 8, Args: []any{}}); resp.Seq != 8 || resp.IsErr || ack != 1 {
		t.Fatalf("resp = %+v ack %d, want ok for seq 8 and ack 1", resp, ack)
	}
}

// TestFullHandleTableDispatchesByURI: once a lane has spent its handles,
// a new pair's calls declare handle 0, every one of them: the server
// dispatches each by URI and acknowledges none.
func TestFullHandleTableDispatchesByURI(t *testing.T) {
	ch, srv, net := bindServer(t)
	mc, _, err := ch.getMux(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	spent := make([]*clientBind, maxBindHandles)
	for i := range spent {
		spent[i] = &clientBind{handle: uint32(i + 1)}
	}
	mc.byHandle.Store(&spent)
	ref, err := GetObject(ch, srv.URLFor("d"))
	if err != nil {
		t.Fatal(err)
	}
	callN(t, ref, 5)
	net.wantMarkers(t, 5, 0, 5)
	if got := net.acked(); got != 0 {
		t.Errorf("%d replies acknowledged handle 0", got)
	}
	if cb := mc.bindFor(ref.uri, "Divide"); cb != unboundSentinel {
		t.Errorf("pair bound to handle %d in a full table", cb.handle)
	}
}

// stringEnvelope is the request envelope a connection's first calls were
// once sent in: the binfmt encoding of a registered struct. stringReply is
// its reply.
type stringEnvelope struct {
	URI, Method string
	Seq         uint64
	Args        []any
	Bind        uint32
}

type stringReply struct {
	Seq    uint64
	Result any
}

func init() {
	wire.RegisterName("remoting.callRequest", stringEnvelope{})
	wire.RegisterName("remoting.callResponse", stringReply{})
}

// TestStringEnvelopeClosesItsConnection: a frame in the string envelope is
// a framing failure. The server drops the connection it came on, and a
// client on another connection carries on, on its bound handles, without a
// redial.
func TestStringEnvelopeClosesItsConnection(t *testing.T) {
	ch, srv, net := bindServer(t)
	ref, err := GetObject(ch, srv.URLFor("d"))
	if err != nil {
		t.Fatal(err)
	}
	callN(t, ref, 2)

	c, err := net.Network.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	raw, err := wire.BinFmt{}.Marshal(&stringEnvelope{URI: "d", Method: "Noop", Seq: 8, Args: []any{}, Bind: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(raw); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() {
		_, err := c.Recv()
		closed <- err
	}()
	select {
	case err := <-closed:
		if err == nil {
			t.Fatal("the server answered a string envelope")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the server kept a connection that sent a string envelope")
	}

	callN(t, ref, 3)
	net.wantMarkers(t, 1, 4, 5)
}

// TestNonReplyFrameFailsLane: a peer that answers with anything but a
// reply frame (here, the string envelope's reply) fails the lane with
// ErrNodeDown, for blocking and completion-driven calls alike, and once the
// channel is closed no goroutine of it is left.
func TestNonReplyFrameFailsLane(t *testing.T) {
	before := runtime.NumGoroutine()
	net := transport.NewMemNetwork()
	l, err := net.Listen("mem://oldpeer")
	if err != nil {
		t.Fatal(err)
	}
	var peers sync.WaitGroup
	peers.Add(1)
	go func() { // a peer that answers every call in the string envelope
		defer peers.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			peers.Add(1)
			go func() {
				defer peers.Done()
				defer c.Close()
				for {
					raw, err := c.Recv()
					if err != nil {
						return
					}
					var req callRequest
					if _, _, _, err := decodeBoundCall(raw, &req, nil); err != nil {
						return
					}
					reply, err := wire.BinFmt{}.Marshal(&stringReply{Seq: req.Seq, Result: 7})
					if err != nil || c.Send(reply) != nil {
						return
					}
				}
			}()
		}
	}()
	ch := NewMultiplexedChannel(net)
	ref := NewObjRef(ch, l.Addr(), "x")
	if v, err := ref.Invoke("M"); !errors.Is(err, errs.ErrNodeDown) {
		t.Errorf("blocking call = %v, %v, want ErrNodeDown", v, err)
	}
	h := newHeard()
	if err := ref.InvokeAsyncCb(context.Background(), new(CallRecord), "M", nil, h); err != nil {
		t.Fatal(err)
	}
	if v, err := h.wait(t); !errors.Is(err, errs.ErrNodeDown) {
		t.Errorf("completion-driven call = %v, %v, want ErrNodeDown", v, err)
	}
	ch.Close()
	l.Close()
	peers.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before, %d after the lane failed and the channel closed", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBindingOverTCP runs the full bound fan-out over real loopback TCP:
// batched vectored writes on both sides must preserve frame boundaries,
// and out-of-order completions must match their seqs. This is the
// miniature of the benchmark's fanout_small workload, asserted for
// correctness under -race.
func TestBindingOverTCP(t *testing.T) {
	net := transport.TCPNetwork{}
	ch := NewMultiplexedChannel(net)
	defer ch.Close()
	srv, err := ch.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.RegisterWellKnown("d", Singleton, func() any { return &divideServer{} })
	ref, err := GetObject(ch, srv.URLFor("d"))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nums := make([]int32, 16+i)
			for k := range nums {
				nums[k] = int32(i * k)
			}
			for j := 0; j < 25; j++ {
				got, err := ref.Invoke("Echo", nums)
				if err != nil {
					t.Error(err)
					return
				}
				echoed, ok := got.([]int32)
				if !ok || len(echoed) != len(nums) {
					t.Errorf("Echo returned %T len %d, want []int32 len %d", got, len(echoed), len(nums))
					return
				}
				for k := range nums {
					if echoed[k] != nums[k] {
						t.Errorf("caller %d: echo[%d] = %d, want %d", i, k, echoed[k], nums[k])
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestBindingWithDeadline: the bound call frame carries the deadline, so a
// bound call past its deadline must still be refused server-side.
func TestBindingWithDeadline(t *testing.T) {
	ch, srv, _ := bindServer(t)
	g := newGateService()
	srv.RegisterWellKnown("g", Singleton, func() any { return g })
	ref, err := GetObject(ch, srv.URLFor("g"))
	if err != nil {
		t.Fatal(err)
	}
	// Bind the pair first so the deadline call below travels bound.
	if _, err := ref.Invoke("Ping"); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Invoke("Ping"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := ref.InvokeCtx(ctx, "Ping"); err != nil {
		t.Fatalf("bound call with live deadline = %v", err)
	}
	// An already-expired deadline must be refused before dispatch, through
	// the bound frame's deadline field.
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := ref.InvokeCtx(expired, "Ping"); err == nil {
		t.Fatal("expired deadline through a bound call succeeded, want error")
	}
}
