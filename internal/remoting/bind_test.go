package remoting

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/errs"
	"repro/internal/transport"
)

// sniffingNetwork wraps a Network and records the first byte of every
// message each direction sends, so tests can assert which envelope variant
// actually travelled.
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

// bindServer starts a mux server and client over a sniffing network.
// clientNoBind/serverNoBind set DisableBinding on the respective side.
func bindServer(t *testing.T, clientNoBind, serverNoBind bool) (*Channel, *Server, *sniffingNetwork) {
	t.Helper()
	net := newSniffingNetwork()
	srvCh := NewMultiplexedChannel(net)
	srvCh.DisableBinding = serverNoBind
	srv, err := srvCh.ListenAndServe("mem://bind")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.RegisterWellKnown("d", Singleton, func() any { return &divideServer{} })
	cliCh := NewMultiplexedChannel(net)
	cliCh.DisableBinding = clientNoBind
	// One lane: these tests count envelope markers per connection, and
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

// TestBindingUpgradesToCompact proves the handshake: the first call of a
// pair travels as a string envelope carrying the bind declaration, the
// server acks it, and later calls use the compact envelope both ways.
func TestBindingUpgradesToCompact(t *testing.T) {
	ch, srv, net := bindServer(t, false, false)
	ref, err := GetObject(ch, srv.URLFor("d"))
	if err != nil {
		t.Fatal(err)
	}
	// The first call declares; it cannot itself be compact.
	callN(t, ref, 1)
	if got := net.markers("toServer", markBoundCall); got != 0 {
		t.Fatalf("compact calls before ack = %d, want 0", got)
	}
	// The declaration's reply is already compact (it carries the ack).
	if got := net.markers("toClient", markBoundReply); got != 1 {
		t.Fatalf("compact replies after first call = %d, want 1", got)
	}
	callN(t, ref, 5)
	if got := net.markers("toServer", markBoundCall); got != 5 {
		t.Errorf("compact calls after ack = %d, want 5", got)
	}
	if got := net.markers("toClient", markBoundReply); got != 6 {
		t.Errorf("compact replies = %d, want 6", got)
	}
}

// TestBoundClientAgainstStringServer is half of the mixed-mode interop
// matrix: a binding client against a server with binding disabled keeps
// sending string envelopes forever (the declaration is never acked) and
// every call still works.
func TestBoundClientAgainstStringServer(t *testing.T) {
	ch, srv, net := bindServer(t, false, true)
	ref, err := GetObject(ch, srv.URLFor("d"))
	if err != nil {
		t.Fatal(err)
	}
	callN(t, ref, 10)
	if got := net.markers("toServer", markBoundCall); got != 0 {
		t.Errorf("compact calls against non-binding server = %d, want 0", got)
	}
	if got := net.markers("toClient", markBoundReply); got != 0 {
		t.Errorf("compact replies from non-binding server = %d, want 0", got)
	}
}

// TestStringClientAgainstBoundServer is the other half: a client with
// binding disabled never declares, so a binding server keeps answering in
// string envelopes.
func TestStringClientAgainstBoundServer(t *testing.T) {
	ch, srv, net := bindServer(t, true, false)
	ref, err := GetObject(ch, srv.URLFor("d"))
	if err != nil {
		t.Fatal(err)
	}
	callN(t, ref, 10)
	if got := net.markers("toServer", markBoundCall); got != 0 {
		t.Errorf("compact calls from non-binding client = %d, want 0", got)
	}
	if got := net.markers("toClient", markBoundReply); got != 0 {
		t.Errorf("compact replies to non-binding client = %d, want 0", got)
	}
}

// TestBindingConcurrentCallers hammers one bound pair from many goroutines
// while the handshake is still in flight, so string and compact envelopes
// interleave on the pipe and responses complete out of order. Every call
// must still match its own response.
func TestBindingConcurrentCallers(t *testing.T) {
	ch, srv, _ := bindServer(t, false, false)
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
// a peer restart kills the pipe, the retried call falls back to a string
// envelope on the fresh connection, re-declares, and upgrades again.
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
	callN(t, ref, 3) // declare + 2 compact
	before := net.markers("toServer", markBoundCall)
	if before == 0 {
		t.Fatal("binding never upgraded before restart")
	}

	srv.Close() // peer "restarts": the pipe is dead, handles die with it
	srv2, err := ch.ListenAndServe("mem://rebind")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	srv2.RegisterWellKnown("d", Singleton, func() any { return &divideServer{} })

	callN(t, ref, 3) // transparent redial: declare again + compact again
	after := net.markers("toServer", markBoundCall)
	if after <= before {
		t.Errorf("compact calls after restart = %d, want > %d (binding must rebuild)", after, before)
	}
}

// TestUnregisterInvalidatesBoundEntry: the bound path caches the
// registration, but Unregister must still take effect immediately, and a
// republished object must be picked up.
func TestUnregisterInvalidatesBoundEntry(t *testing.T) {
	ch, srv, _ := bindServer(t, false, false)
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
	ch, srv, _ := bindServer(t, false, false)
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

// TestUnboundHandleGetsErrorReply: a compact call for a handle the server
// never saw declared must produce an error reply for that seq, not kill
// the connection.
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
	req := &callRequest{Seq: 7, Args: []any{}}
	raw, enc, err := encodeBoundCall(99, req)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(raw); err != nil {
		t.Fatal(err)
	}
	enc.Release()
	reply, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	// The client never declared, so the reply is a string envelope.
	var resp callResponse
	if _, err := decodeInto(reply, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Seq != 7 || !resp.IsErr {
		t.Fatalf("resp = %+v, want IsErr for seq 7", resp)
	}
	// The connection survives: a proper string call still works.
	req2 := &callRequest{URI: "d", Method: "Noop", Seq: 8, Args: []any{}}
	raw2, enc2, err := ch.encodeRequest(req2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(raw2); err != nil {
		t.Fatal(err)
	}
	enc2.Release()
	reply2, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	var resp2 callResponse
	if _, err := decodeInto(reply2, &resp2); err != nil {
		t.Fatal(err)
	}
	if resp2.Seq != 8 || resp2.IsErr {
		t.Fatalf("resp2 = %+v, want ok for seq 8", resp2)
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

// TestBindingWithDeadline: the compact envelope carries the deadline, so a
// bound call past its deadline must still be refused server-side.
func TestBindingWithDeadline(t *testing.T) {
	ch, srv, _ := bindServer(t, false, false)
	g := newGateService()
	srv.RegisterWellKnown("g", Singleton, func() any { return g })
	ref, err := GetObject(ch, srv.URLFor("g"))
	if err != nil {
		t.Fatal(err)
	}
	// Bind the pair first so the deadline call below travels compact.
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
	// the compact envelope's deadline field.
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := ref.InvokeCtx(expired, "Ping"); err == nil {
		t.Fatal("expired deadline through compact envelope succeeded, want error")
	}
}
