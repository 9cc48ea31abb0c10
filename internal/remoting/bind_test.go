package remoting

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/errs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// sniffingNetwork wraps a Network and records the first byte of every
// message each direction sends, so tests can assert which frame actually
// travelled.
type sniffingNetwork struct {
	transport.Network

	mu       sync.Mutex
	toServer []byte // first byte of each client->server message
	toClient []byte // first byte of each server->client message
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
		c.net.mu.Lock()
		c.net.toClient = append(c.net.toClient, msg[0])
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
	srv.Marshal("d", &divideServer{})
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
// frame is the triple's declaring call, and the triple's next call is bare
// although no reply has come back yet, because a handle is confirmed when a
// frame declaring it is queued, not when the server answers. Every reply is
// a compact reply.
func TestBindingUpgradesToCompact(t *testing.T) {
	ch, srv, net := bindServer(t)
	g := newGateService()
	openGate := sync.OnceFunc(func() { close(g.gate) })
	t.Cleanup(openGate) // before the server closes, should a check fail first
	srv.Marshal("g", g)
	ref, err := GetObject(ch, srv.URLFor("g"))
	if err != nil {
		t.Fatal(err)
	}
	held := []*heard{newHeard(), newHeard()}
	for _, h := range held {
		if err := ref.InvokeAsyncCb(context.Background(), new(CallRecord), "WaitGate", nil, h); err != nil {
			t.Fatal(err)
		}
		<-g.started // the frame reached the server, whose reply waits on the gate
	}
	net.wantMarkers(t, 1, 1, 0)
	openGate()
	for _, h := range held {
		if v, err := h.wait(t); err != nil || v != "waited" {
			t.Fatalf("WaitGate = %v, %v", v, err)
		}
	}
	net.wantMarkers(t, 1, 1, 2)

	d, err := GetObject(ch, srv.URLFor("d"))
	if err != nil {
		t.Fatal(err)
	}
	callN(t, d, 1)
	net.wantMarkers(t, 2, 1, 3)
	callN(t, d, 5)
	net.wantMarkers(t, 2, 6, 8)
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
	srv.Marshal("d", &divideServer{})
	ref, _ := GetObject(ch, srv.URLFor("d"))
	callN(t, ref, 3) // declare + 2 bound
	net.wantMarkers(t, 1, 2, 3)

	srv.Close() // peer "restarts": the pipe is dead, handles die with it
	srv2, err := ch.ListenAndServe("mem://rebind")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	srv2.Marshal("d", &divideServer{})

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
	srv.Marshal("d", &divideServer{})
	callN(t, ref, 3)
}

// typeA and typeB share a method name but are distinct concrete types, so
// publishing one in place of the other exercises the bound entry's
// invoker-cache revalidation.
type typeA struct{}

func (typeA) Who() string { return "A" }

type typeB struct{}

func (typeB) Who() string { return "B" }

// TestBoundRemarshalTypeChange: the invoker cache is keyed by concrete
// type; a Marshal that publishes another type under a bound URI, as a
// migration does, must not leave the next call dispatching through a stale
// thunk.
func TestBoundRemarshalTypeChange(t *testing.T) {
	ch, srv, _ := bindServer(t)
	srv.Marshal("flip", typeA{})
	ref, err := GetObject(ch, srv.URLFor("flip"))
	if err != nil {
		t.Fatal(err)
	}
	who := func(want string) {
		t.Helper()
		if got, err := ref.Invoke("Who"); err != nil || got != want {
			t.Fatalf("Who = %v, %v, want %s", got, err, want)
		}
	}
	who("A")
	who("A") // bound now: the entry caches typeA's thunk
	srv.Marshal("flip", typeB{})
	who("B")
	who("B")
	srv.Marshal("flip", typeA{})
	who("A")
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
	srv.Marshal("d", &divideServer{})

	c, err := net.Dial("mem://unbound")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	exchange := func(handle uint32, declare bool, req *callRequest) *callResponse {
		t.Helper()
		if err := c.Send(boundCallBytes(t, handle, declare, req)); err != nil {
			t.Fatal(err)
		}
		reply, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		resp, _, err := decodeReply(reply)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if resp := exchange(99, false, &callRequest{Seq: 7, Args: []any{}}); resp.Seq != 7 || !resp.IsErr || !resp.Unbound {
		t.Fatalf("resp = %+v, want an unbound-handle error for seq 7", resp)
	}
	// The connection survives: a declaring call works, and so does a bare
	// call on the handle it declared.
	if resp := exchange(1, true, &callRequest{URI: "d", Call: "Noop", Seq: 8, Args: []any{}}); resp.Seq != 8 || resp.IsErr {
		t.Fatalf("resp = %+v, want ok for seq 8", resp)
	}
	if resp := exchange(1, false, &callRequest{Seq: 9, Args: []any{}}); resp.Seq != 9 || resp.IsErr {
		t.Fatalf("resp = %+v, want ok for seq 9", resp)
	}
}

// TestFullHandleTableDispatchesByURI: once a lane has spent its handles,
// a new triple's calls declare handle 0, every one of them, and the server
// dispatches each by URI. The triple's entry, the shared sentinel, is kept
// in the bind table like any other, so its later calls find it under the
// read lock; it is never confirmed, on this lane or any other.
func TestFullHandleTableDispatchesByURI(t *testing.T) {
	ch, srv, net := bindServer(t)
	mc, err := laneFor(NewObjRef(ch, srv.Addr(), "d"))
	if err != nil {
		t.Fatal(err)
	}
	mc.handles.Store(maxBindHandles)
	ref, err := GetObject(ch, srv.URLFor("d"))
	if err != nil {
		t.Fatal(err)
	}
	callN(t, ref, 5)
	net.wantMarkers(t, 5, 0, 5)
	k := bindKey{uri: ref.uri, call: "Divide"}
	sh := &mc.bindShards[k.hash()&(bindShardCount-1)]
	sh.mu.RLock()
	cb := sh.m[k]
	sh.mu.RUnlock()
	if cb != unboundSentinel {
		t.Errorf("the triple's entry in the shard map is %v, want the sentinel", cb)
	}
	if n := mc.handles.Load(); n != maxBindHandles {
		t.Errorf("%d handles given out, want %d", n, maxBindHandles)
	}
	if unboundSentinel.confirmed.Load() {
		t.Error("handle 0 was confirmed")
	}
}

// nestedNames answers a runtime call with the triple it was dispatched as;
// its user method Fail fails, and Hold waits for hold to close.
type nestedNames struct {
	uri  string
	hold chan struct{}
}

func (n *nestedNames) InvokeNested(_ context.Context, call, method string, _ []any) (any, error) {
	switch method {
	case "Fail":
		return nil, errors.New("failed")
	case "Hold":
		<-n.hold
	}
	return n.uri + "|" + call + "|" + method, nil
}

// Who answers a plain call.
func (n *nestedNames) Who() string { return n.uri + "|Who" }

// TestConnectionKeepsOneMethodPerHandle: a server connection keeps a
// triple's strings once per handle. A redeclaration keeps the entry it has,
// a new triple on the handle replaces it, and handle 0 keeps nothing. A
// runtime call's user method crosses the wire in the declaring frame only.
// A lane whose handles are spent falls back to handle 0: every call
// declares, each is dispatched by URI, and calling the same methods again
// leaves neither end holding more.
func TestConnectionKeepsOneMethodPerHandle(t *testing.T) {
	var sc serverConn
	req := callRequest{URI: "n", Call: "Invoke1", Method: "M"}
	e := sc.declare(&req, 3)
	same := callRequest{URI: strings.Clone("n"), Call: strings.Clone("Invoke1"), Method: strings.Clone("M")}
	if sc.declare(&same, 3) != e {
		t.Error("redeclaring a handle replaced its entry")
	}
	other := callRequest{URI: "n", Call: "Invoke1", Method: "N"}
	if e2 := sc.declare(&other, 3); e2 == e || e2.method != "N" || len(sc.binds) != 3 || sc.binds[2] != e2 {
		t.Errorf("a new triple on handle 3: %d entries, handle 3 holds %+v", len(sc.binds), sc.binds[2])
	}
	if sc.declare(&req, 0) != nil || len(sc.binds) != 3 {
		t.Error("handle 0 was kept")
	}

	ch, srv, net := bindServer(t)
	srv.Marshal("n", &nestedNames{uri: "n"})
	ref, err := GetObject(ch, srv.URLFor("n"))
	if err != nil {
		t.Fatal(err)
	}
	const names = 1000
	send := func(prefix string) {
		t.Helper()
		for i := 0; i < names; i++ {
			m := fmt.Sprintf("%s%d", prefix, i)
			if v, err := ref.InvokeNestedCtx(context.Background(), "Invoke1", m, nil); err != nil || v != "n|Invoke1|"+m {
				t.Fatalf("%s = %v, %v", m, v, err)
			}
		}
	}
	send("M")
	send("M")
	net.wantMarkers(t, names, names, 2*names)

	mc, err := laneFor(NewObjRef(ch, srv.Addr(), "d"))
	if err != nil {
		t.Fatal(err)
	}
	mc.handles.Store(maxBindHandles)
	send("F") // the lane keeps the sentinel for each new triple here
	heapObjects := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapObjects
	}
	before := heapObjects()
	send("F")
	send("F")
	if after := heapObjects(); after > before+names/10 {
		t.Errorf("heap objects %d before %d calls on handle 0, %d after: an end keeps them", before, 2*names, after)
	}
	net.wantMarkers(t, 4*names, names, 5*names)
}

// TestErrorsNameTheUserMethod: a runtime call's failures name the user's
// method, not the endpoint call that carried it: an error reply
// (remoteError), a call abandoned at its deadline (the lane's error), and a
// deadline the server finds expired before dispatch, which the server's
// channel counts as one deadline drop.
func TestErrorsNameTheUserMethod(t *testing.T) {
	ch, srv, net := bindServer(t)
	n := &nestedNames{uri: "n", hold: make(chan struct{})}
	t.Cleanup(func() { close(n.hold) })
	srv.Marshal("n", n)
	ref, err := GetObject(ch, srv.URLFor("n"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = ref.InvokeNestedCtx(context.Background(), "Invoke1", "Fail", nil)
	var re *remoteError
	if !errors.As(err, &re) || re.Method != "Fail" || !strings.Contains(err.Error(), "n.Fail:") {
		t.Errorf("Fail = %v, want a remoteError naming n.Fail", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = ref.InvokeNestedCtx(ctx, "Invoke1", "Hold", nil)
	if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "n.Hold:") {
		t.Errorf("Hold past its deadline = %v, want an error naming n.Hold", err)
	}

	c, err := net.Network.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	drops := srv.ch.Metrics().Counter("deadline_drops")
	before := drops.Load()
	late := &callRequest{URI: "n", Call: "Invoke1", Method: "Late", Seq: 1, Deadline: time.Now().Add(-time.Second).UnixNano()}
	if err := c.Send(boundCallBytes(t, 1, true, late)); err != nil {
		t.Fatal(err)
	}
	reply, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	resp, _, err := decodeReply(reply)
	if err != nil {
		t.Fatal(err)
	}
	if want := "deadline expired before dispatch of n.Late:"; !resp.IsErr || !strings.HasPrefix(resp.ErrMsg, want) {
		t.Errorf("expired call answered %+v, want an error starting %q", resp, want)
	}
	if got := drops.Load() - before; got != 1 {
		t.Errorf("deadline_drops moved by %d for one expired call, want 1", got)
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
	srv.Marshal("d", &divideServer{})
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
	srv.Marshal("g", g)
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

// TestBindingIgnoresDroppedDeclarations: a declaring frame that is encoded
// and then dropped before it is queued declares nothing. Here one is
// dropped by a blocking call whose context ends while it waits for an
// in-flight slot, and one by a completion-driven call cancelled while it
// waits for admission; the triple's next call still declares, and the one
// after it is bare.
func TestBindingIgnoresDroppedDeclarations(t *testing.T) {
	ch, srv, net := bindServer(t)
	ch.MaxInFlight = 1
	g := newGateService()
	openGate := sync.OnceFunc(func() { close(g.gate) })
	t.Cleanup(openGate) // before the server closes, should a check fail first
	srv.Marshal("g", g)
	ref, err := GetObject(ch, srv.URLFor("g"))
	if err != nil {
		t.Fatal(err)
	}
	held := newHeard()
	if err := ref.InvokeAsyncCb(context.Background(), new(CallRecord), "WaitGate", nil, held); err != nil {
		t.Fatal(err)
	}
	<-g.started // the lane's one slot is taken
	mc, err := laneFor(ref)
	if err != nil {
		t.Fatal(err)
	}
	ping := mc.bindFor(&callRequest{URI: "g", Call: "Ping"})

	short, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := ref.InvokeCtx(short, "Ping"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Ping without a slot = %v, want DeadlineExceeded", err)
	}
	if ping.confirmed.Load() {
		t.Fatal("a blocking call that never got a slot confirmed its handle")
	}

	queued, cancelQueued := context.WithCancel(context.Background())
	refused := newHeard()
	if err := ref.InvokeAsyncCb(queued, new(CallRecord), "Ping", nil, refused); err != nil {
		t.Fatal(err)
	}
	cancelQueued()
	openGate() // the slot frees, and admission refuses the cancelled call
	if v, err := held.wait(t); err != nil || v != "waited" {
		t.Fatalf("WaitGate = %v, %v", v, err)
	}
	if _, err := refused.wait(t); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled queued Ping = %v, want context.Canceled", err)
	}
	if ping.confirmed.Load() {
		t.Fatal("a call refused at admission confirmed its handle")
	}

	for i := 0; i < 2; i++ {
		if v, err := ref.Invoke("Ping"); err != nil || v != "pong" {
			t.Fatalf("Ping = %v, %v", v, err)
		}
	}
	net.wantMarkers(t, 2, 1, 3)
}

// losingNetwork drops, without an error, every other declaring frame a
// client sends, the first among them, as a network that blackholes frames
// rather than the stream can.
type losingNetwork struct {
	transport.Network
	declaring, dials atomic.Int64
}

type losingConn struct {
	transport.Conn
	net *losingNetwork
}

func (n *losingNetwork) Dial(addr string) (transport.Conn, error) {
	n.dials.Add(1)
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &losingConn{Conn: c, net: n}, nil
}

func (c *losingConn) Send(msg []byte) error {
	if len(msg) > 0 && msg[0] == markDeclare && c.net.declaring.Add(1)%2 == 1 {
		return nil
	}
	return c.Conn.Send(msg)
}

// TestBindingRecoversFromLostDeclaration: a lane whose declaring frame was
// lost on a connection that stayed up goes on to send its triple bare; the
// server refuses that call, unrun, as naming an undeclared handle, and the
// lane sends it again, declaring, on the same connection: the caller, of a
// completion-driven call or of a blocking one, sees nothing.
func TestBindingRecoversFromLostDeclaration(t *testing.T) {
	net := &losingNetwork{Network: transport.NewMemNetwork()}
	srv, err := NewMultiplexedChannel(net).ListenAndServe("mem://lossy")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.Marshal("d", &divideServer{})
	ch := NewMultiplexedChannel(net)
	ch.MuxLanes = 1
	t.Cleanup(ch.Close)
	ref, err := GetObject(ch, srv.URLFor("d"))
	if err != nil {
		t.Fatal(err)
	}
	lose := func(method string, args ...any) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		if _, err := ref.InvokeCtx(ctx, method, args...); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s whose frame was lost = %v, want DeadlineExceeded", method, err)
		}
	}
	lose("Divide", 10.0, 4.0)
	h := newHeard()
	if err := ref.InvokeAsyncCb(context.Background(), new(CallRecord), "Divide", []any{10.0, 4.0}, h); err != nil {
		t.Fatal(err)
	}
	if v, err := h.wait(t); err != nil || v != 2.5 {
		t.Fatalf("completion-driven Divide after the loss = %v, %v", v, err)
	}
	lose("Echo", []int32{1})
	if v, err := ref.Invoke("Echo", []int32{7}); err != nil || !reflect.DeepEqual(v, []int32{7}) {
		t.Fatalf("blocking Echo after the loss = %v, %v", v, err)
	}
	callN(t, ref, 3)
	if n := net.declaring.Load(); n != 4 {
		t.Errorf("%d declaring frames, want 4: two lost, two sent again", n)
	}
	if n := net.dials.Load(); n != 1 {
		t.Errorf("%d dials, want 1: the lane keeps its connection", n)
	}
}

// declareSequence joins frames into one fuzz input: each frame behind its
// length as a uvarint.
func declareSequence(frames ...[]byte) []byte {
	var b []byte
	for _, f := range frames {
		b = binary.AppendUvarint(b, uint64(len(f)))
		b = append(b, f...)
	}
	return b
}

// splitDeclareSequence is the inverse of declareSequence, for any input:
// a length past the end takes what is left, and at most 64 frames are read.
func splitDeclareSequence(data []byte) [][]byte {
	var frames [][]byte
	for len(data) > 0 && len(frames) < 64 {
		n, w := binary.Uvarint(data)
		if w <= 0 {
			return append(frames, data)
		}
		data = data[w:]
		n = min(n, uint64(len(data)))
		frames = append(frames, data[:n])
		data = data[n:]
	}
	return frames
}

// FuzzDeclareSequence sends the frames an input splits into, one at a time,
// over one connection to a live server, and holds the server to the
// handshake: it never panics; it answers every frame that decodes with a
// reply carrying that frame's sequence number, and drops the connection on
// the first that does not; its bind table is as long as the highest handle
// declared, never past maxBindHandles, and holds for each handle the triple
// last declared on it; and a frame is dispatched as the triple it declares
// or, bare, as the one its handle was last declared with, an undeclared
// handle being answered with an error.
func FuzzDeclareSequence(f *testing.F) {
	net := transport.NewMemNetwork()
	ch := NewMultiplexedChannel(net)
	srv, err := ch.ListenAndServe("mem://declare-srv")
	if err != nil {
		f.Fatal(err)
	}
	l, err := net.Listen("mem://declare")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { l.Close(); srv.Close(); ch.Close() })
	open := make(chan struct{})
	close(open)
	for _, uri := range []string{"a", "b"} {
		n := &nestedNames{uri: uri, hold: open}
		srv.Marshal(uri, n)
	}

	frame := func(h uint32, declare bool, req callRequest) []byte { return boundCallBytes(f, h, declare, &req) }
	past := time.Now().Add(-time.Hour).UnixNano()
	f.Add(declareSequence(
		frame(1, true, callRequest{URI: "a", Call: "Invoke1", Method: "M", Seq: 1, Args: []any{1}}),
		frame(1, false, callRequest{Seq: 2, Args: []any{2}}),
		frame(1, true, callRequest{URI: "b", Call: "InvokeBatch", Method: "N", Seq: 3}),
		frame(1, false, callRequest{Seq: 4, TokClient: 7, TokSeq: 1}),
		frame(2, false, callRequest{Seq: 5}),
		frame(0, true, callRequest{URI: "a", Call: "Invoke1", Method: "Z", Seq: 6}),
		frame(1, false, callRequest{Seq: 7})))
	f.Add(declareSequence(
		frame(3, true, callRequest{URI: "a", Call: "Who", Seq: 1}),
		frame(3, false, callRequest{Seq: 2}),
		frame(maxBindHandles, true, callRequest{URI: "b", Call: "Invoke1", Method: "Far", Seq: 3}),
		frame(maxBindHandles, false, callRequest{Seq: 4}),
		frame(maxBindHandles+1, true, callRequest{URI: "b", Call: "Invoke1", Method: "Out", Seq: 5})))
	f.Add(declareSequence(
		frame(1, true, callRequest{URI: "x", Call: "Invoke1", Method: "M", Seq: 1}),
		frame(1, false, callRequest{Seq: 2}),
		frame(2, true, callRequest{URI: "a", Call: "Invoke1", Method: "Late", Seq: 3, Deadline: past}),
		frame(2, false, callRequest{Seq: 4, Deadline: past}),
		frame(2, false, callRequest{Seq: 5, Deadline: time.Now().Add(time.Hour).UnixNano()})))
	f.Add(declareSequence(
		frame(1, true, callRequest{URI: "a", Call: "Invoke1", Method: "Fail", Seq: 1}),
		frame(1, false, callRequest{Seq: 2}),
		frame(1, false, callRequest{Seq: 3}),
		[]byte{markBoundCall}))
	for _, p := range parentFrames {
		if p.call {
			f.Add(declareSequence(frame(1, true, callRequest{URI: "a", Call: "Invoke1", Method: "M", Seq: 1}), mustHex(f, p.frame)))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		accepted := make(chan transport.Conn, 1)
		go func() {
			c, _ := l.Accept()
			accepted <- c
		}()
		cli, err := net.Dial("mem://declare")
		if err != nil {
			t.Fatal(err)
		}
		sc := &serverConn{s: srv, c: <-accepted}
		srv.wg.Add(1)
		served := make(chan struct{})
		go func() {
			srv.handleConn(sc)
			close(served)
		}()
		defer func() {
			cli.Close()
			<-served
		}()
		recv := func() ([]byte, error) {
			type got struct {
				raw []byte
				err error
			}
			r := make(chan got, 1)
			go func() {
				raw, err := cli.Recv()
				r <- got{raw, err}
			}()
			select {
			case g := <-r:
				return g.raw, g.err
			case <-time.After(10 * time.Second):
				t.Fatal("the server neither answered nor dropped the connection")
				return nil, nil
			}
		}

		declared := map[uint32]callRequest{} // the triple each handle was last declared with
		var high uint32
		d := wire.NewDecoder(nil)
		defer d.Release()
		for _, fr := range splitDeclareSequence(data) {
			// Read as the server reads it: an argument that does not decode
			// is its call's error, not the connection's.
			var req callRequest
			h, declaring, decodeErr := readBoundCall(d, fr, &req, new(wire.PendingList))
			if cli.Send(fr) != nil {
				t.Fatal("the connection was dropped after a frame that decoded")
			}
			raw, err := recv()
			if decodeErr != nil {
				if err == nil {
					t.Fatalf("the server answered the undecodable frame %x", fr)
				}
				return
			}
			if err != nil {
				t.Fatalf("no reply to %x: %v", fr, err)
			}
			resp, _, err := decodeReply(raw)
			if err != nil || resp.Seq != req.Seq {
				t.Fatalf("reply %x to %x: seq %d, %v; want seq %d", raw, fr, resp.Seq, err, req.Seq)
			}
			if declaring && h != 0 {
				declared[h] = callRequest{URI: req.URI, Call: req.Call, Method: req.Method}
				high = max(high, h)
			}
			if n := len(sc.binds); n != int(high) || n > maxBindHandles {
				t.Fatalf("bind table of %d entries, highest handle declared %d", n, high)
			}
			want, bound := declared[h]
			if h != 0 {
				var e *bindEntry
				if int(h) <= len(sc.binds) {
					e = sc.binds[h-1]
				}
				if bound != (e != nil) || bound && (e.uri != want.URI || e.call != want.Call || e.method != want.Method) {
					t.Fatalf("handle %d holds %+v, last declared as %+v", h, e, want)
				}
			}
			switch {
			case declaring:
				want = callRequest{URI: req.URI, Call: req.Call, Method: req.Method}
			case !bound:
				if !resp.IsErr || !resp.Unbound {
					t.Fatalf("bare frame on undeclared handle %d answered %+v", h, resp)
				}
				continue
			}
			checkDispatched(t, &want, &req, resp)
		}
	})
}

// checkDispatched holds the reply to req, a frame decoded as the triple in
// want, to what FuzzDeclareSequence's server answers for that triple.
func checkDispatched(t *testing.T, want, req *callRequest, resp *callResponse) {
	t.Helper()
	expired := "deadline expired before dispatch of "
	if strings.HasPrefix(resp.ErrMsg, expired) {
		if msg := fmt.Sprintf("%s%s.%s: %v", expired, want.URI, want.name(), context.DeadlineExceeded); !resp.IsErr || req.Deadline <= 0 || resp.ErrMsg != msg {
			t.Fatalf("deadline %d answered %q, want %q", req.Deadline, resp.ErrMsg, msg)
		}
		return
	}
	if req.Deadline > 0 && req.Deadline < time.Now().Add(-time.Minute).UnixNano() {
		t.Fatalf("a call past its deadline was dispatched: %+v", resp)
	}
	switch {
	case want.URI != "a" && want.URI != "b":
		if !resp.IsErr || resp.ErrCode != errs.Code(errs.ErrObjectDestroyed) || !strings.Contains(resp.ErrMsg, fmt.Sprintf("%q", want.URI)) {
			t.Fatalf("call on unpublished %q answered %+v", want.URI, resp)
		}
	case want.Method == "Fail":
		if !resp.IsErr || resp.ErrMsg != "failed" {
			t.Fatalf("Fail answered %+v", resp)
		}
	case want.Method != "":
		if v := want.URI + "|" + want.Call + "|" + want.Method; resp.IsErr || resp.Result != v {
			t.Fatalf("runtime call answered %+v, want %q", resp, v)
		}
	case want.Call == "Who" && len(req.Args) == 0:
		if v := want.URI + "|Who"; resp.IsErr || resp.Result != v {
			t.Fatalf("plain call answered %+v, want %q", resp, v)
		}
	}
}
