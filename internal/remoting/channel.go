package remoting

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/errs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Kind selects a channel implementation, mirroring the channel classes the
// paper benchmarks against each other in Fig. 8b.
type Kind int

const (
	// TCP is the modern binary TCP channel (Mono 1.1.7 behaviour):
	// compact binary formatter, connection pooling, single-frame bodies.
	TCP Kind = iota
	// LegacyTCP is the Mono 1.0.5 behaviour: no connection pooling (a
	// dial per call) and bodies flushed in small 1 KiB chunks, each a
	// separate wire message — the mechanism behind its bandwidth
	// collapse in Fig. 8b.
	LegacyTCP
	// HTTP is the SOAP/HTTP channel: verbose textual encoding wrapped in
	// HTTP/1.0-style requests without keep-alive.
	HTTP
	// Multiplexed is the pipelined TCP channel this reproduction adds
	// beyond the paper's 2005 stacks: one long-lived connection per peer
	// address carries many concurrent request/response exchanges, matched
	// by sequence number, so high-fan-out callers pay neither a dial nor a
	// one-call-per-connection queue. It removes exactly the channel
	// overheads the paper blames for the scaling gap (Fig. 8b).
	Multiplexed
)

// String returns the .NET-style scheme name.
func (k Kind) String() string {
	switch k {
	case TCP:
		return "tcp"
	case LegacyTCP:
		return "tcp-legacy"
	case HTTP:
		return "http"
	case Multiplexed:
		return "tcp-mux"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// legacyChunk is the flush granularity of the legacy channel.
const legacyChunk = 1024

// Channel is a configured remoting channel bound to a transport network. A
// single Channel value serves both roles: clients call GetObject/Invoke
// through it and servers call ListenAndServe on it, mirroring
// ChannelServices.RegisterChannel making one channel object serve both
// directions.
type Channel struct {
	kind   Kind
	net    transport.Network
	codec  wire.Codec
	pooled bool

	// Cost injects endpoint software costs; see CostModel.
	Cost CostModel

	// MaxInFlight bounds concurrent exchanges per multiplexed lane;
	// callers beyond the bound block until a slot frees. Zero selects
	// DefaultMaxInFlight. Only the Multiplexed kind uses it. The bound is
	// per lane: a channel with N lanes admits up to N×MaxInFlight
	// concurrent exchanges per peer.
	MaxInFlight int

	// MuxLanes sets how many multiplexed connections (lanes) the channel
	// opens per peer address, each with its own writer goroutine and
	// in-flight table; callers are striped across lanes by sequence
	// number, so unrelated calls never share a lock or a TCP stream. Zero
	// selects DefaultMuxLanes (min(GOMAXPROCS, 4)); 1 restores the
	// single-connection behaviour. Only the Multiplexed kind uses it.
	MuxLanes int

	// DisableBinding turns off bound call handles (see envelope.go),
	// forcing the string envelope on every call. It is the escape hatch
	// mirroring wire.BinFmt.DisableGenerated: set it on a client to send
	// only string envelopes, on a server to never acknowledge bind
	// declarations. Either side alone keeps the wire fully interoperable.
	DisableBinding bool

	// Retry, when enabled (MaxAttempts > 1), applies the unified
	// retry/backoff loop to ObjRef.InvokeCtx calls and arms the per-peer
	// circuit breakers (retry.go, breaker.go). Set it before the first
	// call, like the other configuration fields.
	Retry RetryPolicy

	seq  atomic.Uint64
	pool connPool

	// tokClient/tokSeq back NewCallToken (token.go).
	tokClient atomic.Uint64
	tokSeq    atomic.Uint64

	breakerOnce sync.Once
	breakerSet  *breakerSet

	// closeMu guards closeCh, the broadcast that wakes in-flight retry
	// sleeps when Close tears the channel down mid-backoff.
	closeMu sync.Mutex
	closeCh chan struct{}

	// dialMu guards dialPeers, the per-peer dial backoff shared across a
	// peer's pooled redials and every multiplexed lane (so a dead peer is
	// probed by one capped, jittered schedule instead of a redial storm).
	dialMu    sync.Mutex
	dialPeers map[string]*dialBackoff

	muxMu    sync.Mutex
	muxPeers map[muxKey]*muxConn
}

// NewTCPChannel returns the modern binary channel over net.
func NewTCPChannel(net transport.Network) *Channel {
	return &Channel{kind: TCP, net: net, codec: wire.BinFmt{}, pooled: true}
}

// NewLegacyTCPChannel returns the Mono 1.0.5-style channel over net.
func NewLegacyTCPChannel(net transport.Network) *Channel {
	return &Channel{kind: LegacyTCP, net: net, codec: wire.BinFmt{}, pooled: false}
}

// NewHTTPChannel returns the SOAP/HTTP channel over net.
func NewHTTPChannel(net transport.Network) *Channel {
	return &Channel{kind: HTTP, net: net, codec: wire.SoapFmt{}, pooled: false}
}

// NewMultiplexedChannel returns the pipelined channel over net: one
// long-lived connection per peer multiplexes many concurrent calls.
func NewMultiplexedChannel(net transport.Network) *Channel {
	return &Channel{kind: Multiplexed, net: net, codec: wire.BinFmt{}, pooled: false}
}

// Kind reports the channel implementation.
func (ch *Channel) Kind() Kind { return ch.kind }

// Codec reports the channel's wire codec.
func (ch *Channel) Codec() wire.Codec { return ch.codec }

// Network returns the transport the channel is bound to.
func (ch *Channel) Network() transport.Network { return ch.net }

// Scheme returns the URL scheme for BuildURL ("tcp" or "http"; the legacy
// channel shares the "tcp" scheme, and memory transports use "mem"
// addresses transparently).
func (ch *Channel) Scheme() string {
	if ch.kind == HTTP {
		return "http"
	}
	return "tcp"
}

// nextSeq allocates a call sequence number.
func (ch *Channel) nextSeq() uint64 { return ch.seq.Add(1) }

// breakers lazily arms the per-peer circuit breakers from the retry
// policy; nil when the policy is disabled or breaker-disabled.
func (ch *Channel) breakers() *breakerSet {
	ch.breakerOnce.Do(func() {
		if ch.Retry.Enabled() {
			ch.breakerSet = newBreakerSet(ch.Retry)
		}
	})
	return ch.breakerSet
}

// closeSignal returns the broadcast channel Close fires, waking retry
// sleeps. A channel remains usable after Close (a later call dials
// afresh), so each Close consumes the current broadcast and the next
// caller lazily installs a new one.
func (ch *Channel) closeSignal() <-chan struct{} {
	ch.closeMu.Lock()
	defer ch.closeMu.Unlock()
	if ch.closeCh == nil {
		ch.closeCh = make(chan struct{})
	}
	return ch.closeCh
}

// laneCount resolves the effective mux lane count (see MuxLanes).
func (ch *Channel) laneCount() int {
	if ch.kind != Multiplexed {
		return 1
	}
	n := ch.MuxLanes
	if n == 0 {
		n = DefaultMuxLanes()
	}
	if n < 1 {
		n = 1
	}
	if n > maxMuxLanes {
		n = maxMuxLanes
	}
	return n
}

// binaryCodec reports whether the channel serialises with the binary
// formatter, whose pooled Encoder fast path the envelope hot paths use.
func (ch *Channel) binaryCodec() (wire.BinFmt, bool) {
	bf, ok := ch.codec.(wire.BinFmt)
	return bf, ok && ch.kind != HTTP
}

// encodeRequest produces the wire bytes for a request, including channel
// framing (HTTP text or legacy chunking markers are applied at send time).
// On binary channels the bytes live in a pooled encoder, returned as enc:
// the caller (or whoever it hands the frame to) must Release it after the
// bytes' last use. enc is nil on textual channels.
func (ch *Channel) encodeRequest(req *callRequest) (raw []byte, enc *wire.Encoder, err error) {
	if bf, ok := ch.binaryCodec(); ok {
		e := wire.NewEncoder()
		if bf.DisableGenerated {
			e.SetGenerated(false)
		}
		// The pointer keeps the envelope off the heap twice over: no
		// interface boxing copy, and the generated *callRequest codec.
		if err := e.Encode(req); err != nil {
			e.Release()
			return nil, nil, fmt.Errorf("remoting: encode request %s.%s: %w", req.URI, req.Method, err)
		}
		return e.Bytes(), e, nil
	}
	body, err := ch.codec.Marshal(*req)
	if err != nil {
		return nil, nil, fmt.Errorf("remoting: encode request %s.%s: %w", req.URI, req.Method, err)
	}
	if ch.kind == HTTP {
		return buildHTTPMessage("POST /"+req.URI+" HTTP/1.0", body), nil, nil
	}
	return body, nil, nil
}

// unmarshal decodes one envelope. Binary channels decode in borrow mode:
// []byte payloads of wire.BorrowMin bytes or more alias raw instead of
// being copied out of it, and borrowed reports whether any does, which
// decides raw's fate (see recycleFrame).
func (ch *Channel) unmarshal(raw []byte) (v any, borrowed bool, err error) {
	if bf, ok := ch.binaryCodec(); ok {
		return bf.UnmarshalShared(raw)
	}
	if ch.kind == HTTP {
		if raw, err = parseHTTPMessage(raw); err != nil {
			return nil, false, err
		}
	}
	v, err = ch.codec.Unmarshal(raw)
	return v, false, err
}

// recycleFrame applies the one ownership rule for receive frames, on the
// server and the client alike: a frame that decoded values alias is never
// returned to the pool — the GC owns it, so whoever still reaches an
// argument or a result (a method that keeps its []byte parameter, a caller
// holding a result, a dedup record) keeps valid memory — and a frame
// nothing aliases is recycled at once.
func recycleFrame(raw []byte, borrowed bool) {
	if !borrowed {
		transport.PutFrame(raw)
	}
}

func (ch *Channel) decodeRequest(raw []byte) (req *callRequest, borrowed bool, err error) {
	v, borrowed, err := ch.unmarshal(raw)
	if err != nil {
		return nil, borrowed, fmt.Errorf("remoting: decode request: %w", err)
	}
	// The generated codec decodes the pointer-encoded envelope to
	// *callRequest; value-encoded envelopes from textual channels (or
	// older peers) arrive as callRequest.
	switch req := v.(type) {
	case *callRequest:
		return req, borrowed, nil
	case callRequest:
		return &req, borrowed, nil
	}
	return nil, borrowed, fmt.Errorf("remoting: decoded %T, want callRequest", v)
}

// encodeResponse mirrors encodeRequest, pooled encoder included.
func (ch *Channel) encodeResponse(resp *callResponse) (raw []byte, enc *wire.Encoder, err error) {
	if bf, ok := ch.binaryCodec(); ok {
		e := wire.NewEncoder()
		if bf.DisableGenerated {
			e.SetGenerated(false)
		}
		if err := e.Encode(resp); err != nil {
			e.Release()
			return nil, nil, fmt.Errorf("remoting: encode response: %w", err)
		}
		return e.Bytes(), e, nil
	}
	body, err := ch.codec.Marshal(*resp)
	if err != nil {
		return nil, nil, fmt.Errorf("remoting: encode response: %w", err)
	}
	if ch.kind == HTTP {
		return buildHTTPMessage("HTTP/1.0 200 OK", body), nil, nil
	}
	return body, nil, nil
}

func (ch *Channel) decodeResponse(raw []byte) (resp *callResponse, borrowed bool, err error) {
	v, borrowed, err := ch.unmarshal(raw)
	if err != nil {
		return nil, borrowed, fmt.Errorf("remoting: decode response: %w", err)
	}
	switch resp := v.(type) {
	case *callResponse:
		return resp, borrowed, nil
	case callResponse:
		return &resp, borrowed, nil
	}
	return nil, borrowed, fmt.Errorf("remoting: decoded %T, want callResponse", v)
}

// sendMsg transmits one encoded message, applying the legacy channel's
// chunked flushing when configured, and charges the endpoint cost model.
func (ch *Channel) sendMsg(c transport.Conn, msg []byte) error {
	ch.Cost.Charge(len(msg))
	if ch.kind != LegacyTCP {
		return c.Send(msg)
	}
	// Legacy: flush in legacyChunk-sized wire messages, each prefixed
	// with a continuation flag. Every chunk pays the per-message costs
	// of the transport and network, reproducing Mono 1.0.5's unbuffered
	// small writes.
	for off := 0; off < len(msg) || off == 0; off += legacyChunk {
		end := off + legacyChunk
		more := byte(1)
		if end >= len(msg) {
			end = len(msg)
			more = 0
		}
		frame := make([]byte, 1+end-off)
		frame[0] = more
		copy(frame[1:], msg[off:end])
		if err := c.Send(frame); err != nil {
			return err
		}
		if end == len(msg) {
			break
		}
	}
	return nil
}

// sendMsgBatch transmits several encoded messages in as few wire writes as
// the transport supports, charging the endpoint cost model once per
// message (batching amortizes syscalls, not modelled software costs). It
// must not be used on the legacy channel, whose chunked framing needs
// sendMsg's per-message treatment.
func (ch *Channel) sendMsgBatch(c transport.Conn, msgs [][]byte) error {
	for _, m := range msgs {
		ch.Cost.Charge(len(m))
	}
	return transport.SendBatch(c, msgs)
}

// recvMsg receives one message, reassembling legacy chunks, and charges the
// endpoint cost model. The returned buffer is pool-backed when the
// transport supports it; recycleFrame settles it after the decode.
func (ch *Channel) recvMsg(c transport.Conn) ([]byte, error) {
	if ch.kind != LegacyTCP {
		msg, err := transport.RecvFrame(c)
		if err != nil {
			return nil, err
		}
		ch.Cost.Charge(len(msg))
		return msg, nil
	}
	var buf bytes.Buffer
	for {
		frame, err := transport.RecvFrame(c)
		if err != nil {
			return nil, err
		}
		if len(frame) < 1 {
			return nil, fmt.Errorf("remoting: empty legacy chunk")
		}
		more := frame[0]
		buf.Write(frame[1:])
		transport.PutFrame(frame)
		if more == 0 {
			break
		}
	}
	msg := buf.Bytes()
	ch.Cost.Charge(len(msg))
	return msg, nil
}

// roundTrip performs one request/response exchange against netaddr. When
// ctx carries a deadline or cancellation, the in-flight exchange is aborted
// on ctx expiry (for one-call-per-connection kinds by closing the
// connection; the multiplexed kind abandons just this call); the call then
// reports ctx.Err().
//
// A connection that was reused — taken from the idle pool, or the shared
// long-lived multiplexed pipe — may have gone stale while idle (peer
// restarted, transport dropped). When such a call fails at the connection
// level before anything was received, it is retried exactly once on a
// freshly dialled connection instead of surfacing a spurious ErrNodeDown.
// Failures on fresh connections and context expiries are never retried.
//
// The retry condition is "no response received", the same heuristic HTTP
// keep-alive clients apply to reused connections: over real TCP a stale
// connection usually accepts the write and only the read fails, so a
// send-phase-only retry would miss the common case. The caveat is that a
// request the peer received and executed just before dying is executed
// again by the retry — at-most-once is traded for liveness across peer
// restarts, exactly once, and only on reused connections.
func (ch *Channel) roundTrip(ctx context.Context, netaddr string, req *callRequest) (*callResponse, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("remoting: call %s.%s: %w", req.URI, req.Method, err)
	}
	bs := ch.breakers()
	if bs == nil || breakerBypassed(ctx) {
		// A bypassed call records no evidence either: its outcome must not
		// consume a half-open trial slot or re-trip a breaker it never
		// consulted.
		return ch.roundTripOnce(ctx, netaddr, req)
	}
	trial, berr := bs.allow(netaddr)
	if berr != nil {
		return nil, fmt.Errorf("remoting: call %s.%s: %w", req.URI, req.Method, berr)
	}
	resp, err := ch.roundTripOnce(ctx, netaddr, req)
	// Only transport-level evidence moves the breaker: connection failures
	// trip it, anything the peer actually answered (including app errors)
	// counts as success. Context expiry is the caller's deadline, not the
	// peer's fault, and an orderly Close is not a failure either.
	connFail := err != nil && ctx.Err() == nil &&
		isConnFailure(err) && !errors.Is(err, errChannelClosed)
	if connFail || err == nil || !isConnFailure(err) {
		bs.record(netaddr, trial, connFail)
	} else if trial {
		// The trial's outcome was ambiguous (ctx expiry / orderly close):
		// release the half-open slot without deciding.
		bs.record(netaddr, true, true)
	}
	return resp, err
}

// roundTripOnce is one breaker-admitted round trip.
func (ch *Channel) roundTripOnce(ctx context.Context, netaddr string, req *callRequest) (*callResponse, error) {
	if ch.kind == Multiplexed {
		// The mux path encodes per connection: the envelope variant
		// (string or compact) depends on that connection's bind table.
		return ch.muxRoundTrip(ctx, netaddr, req)
	}
	raw, enc, err := ch.encodeRequest(req)
	if err != nil {
		return nil, err
	}
	if enc != nil {
		// exchangeCtx always joins its exchange goroutine before
		// returning, so nothing references raw past this frame.
		defer enc.Release()
	}
	c, fromPool, err := ch.getConn(netaddr)
	if err != nil {
		return nil, err
	}
	resp, err := ch.exchangeCtx(ctx, netaddr, c, raw, req)
	if err == nil || !fromPool || ctx.Err() != nil || !isConnFailure(err) {
		return resp, err
	}
	// Stale pooled connection: nothing was received for this call, so a
	// single retry on a fresh dial is safe and turns a peer restart into
	// a reconnect instead of an ErrNodeDown.
	c2, err2 := ch.dial(netaddr)
	if err2 != nil {
		return nil, err2
	}
	return ch.exchangeCtx(ctx, netaddr, c2, raw, req)
}

// isConnFailure reports whether err is a connection-level failure (dial,
// send or receive) rather than a decode error or context expiry.
func isConnFailure(err error) bool {
	return errors.Is(err, errs.ErrNodeDown)
}

// exchangeCtx runs one exchange on an already-dialled connection, aborting
// it when ctx ends, and settles the connection's afterlife (pool or close).
func (ch *Channel) exchangeCtx(ctx context.Context, netaddr string, c transport.Conn, raw []byte, req *callRequest) (*callResponse, error) {
	if ctx.Done() == nil {
		resp, err := ch.exchange(netaddr, c, raw, req)
		ch.finish(netaddr, c, err == nil)
		return resp, err
	}
	type outcome struct {
		resp *callResponse
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		resp, err := ch.exchange(netaddr, c, raw, req)
		done <- outcome{resp, err}
	}()
	select {
	case out := <-done:
		ch.finish(netaddr, c, out.err == nil)
		return out.resp, out.err
	case <-ctx.Done():
		// Abort the exchange: closing the connection unblocks the
		// goroutine. Pooling is decided only here, after the goroutine
		// finished, so an aborted connection can never end up pooled.
		c.Close()
		<-done
		return nil, fmt.Errorf("remoting: call %s.%s: %w", req.URI, req.Method, ctx.Err())
	}
}

// finish returns a connection to the pool after a fully successful trip, or
// closes it.
func (ch *Channel) finish(netaddr string, c transport.Conn, ok bool) {
	if ok && ch.pooled {
		ch.pool.put(netaddr, c)
	} else {
		c.Close()
	}
}

// exchange runs the blocking send/receive/decode on an already-dialled
// connection. The caller owns the connection's afterlife (pool or close).
func (ch *Channel) exchange(netaddr string, c transport.Conn, raw []byte, req *callRequest) (*callResponse, error) {
	if err := ch.sendMsg(c, raw); err != nil {
		return nil, fmt.Errorf("remoting: send to %s: %v: %w", netaddr, err, errs.ErrNodeDown)
	}
	rawResp, err := ch.recvMsg(c)
	if err != nil {
		return nil, fmt.Errorf("remoting: receive from %s: %v: %w", netaddr, err, errs.ErrNodeDown)
	}
	resp, borrowed, err := ch.decodeResponse(rawResp)
	recycleFrame(rawResp, borrowed)
	if err != nil {
		return nil, err
	}
	if resp.Seq != req.Seq {
		return nil, fmt.Errorf("remoting: response seq %d does not match request %d", resp.Seq, req.Seq)
	}
	return resp, nil
}

// getConn returns a pooled or freshly dialled connection, reporting whether
// it came from the idle pool (and may therefore be stale).
func (ch *Channel) getConn(netaddr string) (c transport.Conn, fromPool bool, err error) {
	if ch.pooled {
		if c := ch.pool.get(netaddr); c != nil {
			return c, true, nil
		}
	}
	c, err = ch.dial(netaddr)
	return c, false, err
}

// dial opens a fresh connection, charging the connect cost. Dials to a
// peer that recently refused one are gated by the peer's shared backoff
// entry (see dialBackoff), so a dead peer is probed on one capped,
// jittered schedule no matter how many callers and mux lanes want it.
func (ch *Channel) dial(netaddr string) (transport.Conn, error) {
	db := ch.dialBackoffFor(netaddr)
	if err := db.gate(); err != nil {
		return nil, err
	}
	ch.Cost.ChargeConnect()
	c, err := ch.net.Dial(netaddr)
	if err != nil {
		err = fmt.Errorf("remoting: dial %s: %v: %w", netaddr, err, errs.ErrNodeDown)
		db.failed(err)
		return nil, err
	}
	db.succeeded()
	return c, nil
}

// dialBackoff base delay and cap: the first refused dial blocks redials for
// ~dialBackoffBase, doubling per consecutive failure up to dialBackoffCap,
// each window jittered to 50–100% so peers probing the same dead node do
// not synchronize.
const (
	dialBackoffBase = 10 * time.Millisecond
	dialBackoffCap  = 500 * time.Millisecond
)

// dialBackoff is the per-peer redial schedule shared by the pooled path
// and every multiplexed lane of one Channel. While a window is open,
// gate() fast-fails with the last dial error instead of hitting the
// transport — the fix for the redial storm where a dead peer's every lane
// (and every queued caller) dialled it in lockstep.
type dialBackoff struct {
	mu      sync.Mutex
	fails   int
	until   time.Time
	lastErr error
}

// dialBackoffFor returns the peer's shared backoff entry, creating it on
// first use.
func (ch *Channel) dialBackoffFor(netaddr string) *dialBackoff {
	ch.dialMu.Lock()
	defer ch.dialMu.Unlock()
	if ch.dialPeers == nil {
		ch.dialPeers = make(map[string]*dialBackoff)
	}
	db := ch.dialPeers[netaddr]
	if db == nil {
		db = &dialBackoff{}
		ch.dialPeers[netaddr] = db
	}
	return db
}

// gate fast-fails with the last dial error while the backoff window is
// open; otherwise it admits the dial (including the probe that ends a
// window).
func (db *dialBackoff) gate() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.fails > 0 && time.Now().Before(db.until) {
		return db.lastErr
	}
	return nil
}

// failed records a refused dial and opens (or extends) the backoff window.
func (db *dialBackoff) failed(err error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.fails++
	shift := db.fails - 1
	if shift > 8 {
		shift = 8
	}
	d := dialBackoffBase << shift
	if d > dialBackoffCap {
		d = dialBackoffCap
	}
	d = time.Duration(float64(d) * (0.5 + 0.5*rand.Float64()))
	db.until = time.Now().Add(d)
	db.lastErr = err
}

// succeeded resets the schedule after a successful dial.
func (db *dialBackoff) succeeded() {
	db.mu.Lock()
	db.fails = 0
	db.until = time.Time{}
	db.lastErr = nil
	db.mu.Unlock()
}

// Close releases the channel's client-side connections: idle pooled
// connections are closed and multiplexed peer connections are shut down
// (failing any in-flight calls with ErrNodeDown). The channel itself stays
// usable — a later call dials afresh — so teardown order between a node's
// server role and its client role does not matter. Cluster and node
// teardown call it so long-running processes do not leak sockets.
func (ch *Channel) Close() {
	// Wake any in-flight retry backoff sleeps first (sleepRetry selects on
	// this broadcast), so callers observe the teardown promptly instead of
	// finishing their backoff against a closed channel.
	ch.closeMu.Lock()
	if ch.closeCh != nil {
		close(ch.closeCh)
		ch.closeCh = nil
	}
	ch.closeMu.Unlock()
	ch.dialMu.Lock()
	ch.dialPeers = nil
	ch.dialMu.Unlock()
	ch.pool.drain()
	ch.muxMu.Lock()
	peers := make([]*muxConn, 0, len(ch.muxPeers))
	for _, mc := range ch.muxPeers {
		peers = append(peers, mc)
	}
	ch.muxPeers = nil
	ch.muxMu.Unlock()
	for _, mc := range peers {
		mc.shutdown()
	}
}

// connPool keeps idle client connections per address. At most maxIdle
// connections are retained per target; surplus connections are closed.
type connPool struct {
	mu   sync.Mutex
	idle map[string][]transport.Conn
}

const maxIdle = 16

func (p *connPool) get(addr string) transport.Conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	conns := p.idle[addr]
	if len(conns) == 0 {
		return nil
	}
	c := conns[len(conns)-1]
	p.idle[addr] = conns[:len(conns)-1]
	return c
}

// drain closes and forgets every idle connection.
func (p *connPool) drain() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, conns := range idle {
		for _, c := range conns {
			c.Close()
		}
	}
}

func (p *connPool) put(addr string, c transport.Conn) {
	p.mu.Lock()
	if p.idle == nil {
		p.idle = make(map[string][]transport.Conn)
	}
	if len(p.idle[addr]) >= maxIdle {
		p.mu.Unlock()
		c.Close()
		return
	}
	p.idle[addr] = append(p.idle[addr], c)
	p.mu.Unlock()
}

// buildHTTPMessage wraps a body in minimal HTTP-style text framing. The
// whole message still travels as one transport frame; the point is the
// byte-count and parse cost of the textual envelope, as with the real SOAP
// channel.
func buildHTTPMessage(startLine string, body []byte) []byte {
	var b bytes.Buffer
	b.WriteString(startLine)
	b.WriteString("\r\nContent-Type: text/xml; charset=utf-8\r\nConnection: close\r\nSOAPAction: \"#invoke\"\r\nContent-Length: ")
	b.WriteString(strconv.Itoa(len(body)))
	b.WriteString("\r\n\r\n")
	b.Write(body)
	return b.Bytes()
}

// parseHTTPMessage strips the HTTP-style framing and returns the body.
func parseHTTPMessage(raw []byte) ([]byte, error) {
	i := bytes.Index(raw, []byte("\r\n\r\n"))
	if i < 0 {
		return nil, fmt.Errorf("remoting: malformed HTTP message: no header terminator")
	}
	head := raw[:i]
	body := raw[i+4:]
	// Validate Content-Length when present.
	for _, line := range bytes.Split(head, []byte("\r\n")) {
		if k, v, ok := bytes.Cut(line, []byte(":")); ok &&
			bytes.EqualFold(bytes.TrimSpace(k), []byte("Content-Length")) {
			n, err := strconv.Atoi(string(bytes.TrimSpace(v)))
			if err != nil {
				return nil, fmt.Errorf("remoting: bad Content-Length %q", v)
			}
			if n != len(body) {
				return nil, fmt.Errorf("remoting: Content-Length %d does not match body %d", n, len(body))
			}
		}
	}
	return body, nil
}
