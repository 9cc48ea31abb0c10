// Package netsim models the paper's evaluation network — a 100 Mbit
// switched Ethernet connecting dual-processor Linux nodes — as a shaping
// layer over transport connections.
//
// The model is the classic latency/bandwidth (LogP-style) cost:
//
//	delivery(msg) = PerMessage + len(msg)/Bandwidth + Latency
//
// where the sender is occupied for PerMessage + len/Bandwidth (transmission)
// and the message arrives Latency later (propagation). Transmissions on one
// link (txLink) serialise, modelling a NIC/switch port; full duplex links
// use one per direction. Shaped connections carry an 8-byte delivery deadline
// header so the receive side enforces propagation delay without a shared
// scheduler — valid because both endpoints live on the same host clock in
// the reproduction harness.
//
// With Params{} (all zeros) shaping is a pass-through plus counters, which
// is what unit tests use.
package netsim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/transport"
)

// Params describes one direction of a link.
type Params struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Bandwidth is the link rate in bytes per second; 0 means infinite.
	Bandwidth float64
	// PerMessage is a fixed cost charged per message (framing, kernel
	// crossings, switch store-and-forward).
	PerMessage time.Duration
	// FrameOverhead is added to every message's size before the
	// bandwidth term (Ethernet/IP/TCP headers). The paper's 100 Mbit
	// Ethernet carries ~58 bytes of header per segment.
	FrameOverhead int
	// Loss is the per-message probability (0..1) that a frame is "lost".
	// The transports in this harness are reliable streams, so loss is
	// modelled the way TCP surfaces it — as a retransmission: the message
	// still arrives, delayed by LossDelay. That keeps RPC semantics
	// intact while putting honest retransmit spikes into the latency
	// tail, which is what open-loop percentile measurements are for.
	Loss float64
	// LossDelay is the extra delivery delay charged to a lost message;
	// 0 with Loss > 0 defaults to defaultLossDelay (a coarse RTO).
	LossDelay time.Duration
}

// defaultLossDelay approximates a minimum TCP retransmission timeout on a
// LAN: the 2005-era Linux RTO floor of 200 ms.
const defaultLossDelay = 200 * time.Millisecond

// Ethernet100 returns parameters approximating the paper's testbed link:
// 100 Mbit/s, ~30 µs one-way wire+switch latency, 58 bytes of protocol
// header per message.
func Ethernet100() Params {
	return Params{
		Latency:       30 * time.Microsecond,
		Bandwidth:     100e6 / 8,
		PerMessage:    5 * time.Microsecond,
		FrameOverhead: 58,
	}
}

// Zero reports whether the parameters introduce no delay.
func (p Params) Zero() bool {
	return p.Latency == 0 && p.Bandwidth == 0 && p.PerMessage == 0 && p.Loss == 0
}

// lossDelay returns the configured retransmit delay, defaulted.
func (p Params) lossDelay() time.Duration {
	if p.LossDelay > 0 {
		return p.LossDelay
	}
	return defaultLossDelay
}

// TxTime returns the sender-occupancy time for a message of n bytes.
func (p Params) TxTime(n int) time.Duration {
	d := p.PerMessage
	if p.Bandwidth > 0 {
		bytes := float64(n + p.FrameOverhead)
		d += time.Duration(bytes / p.Bandwidth * float64(time.Second))
	}
	return d
}

// DeliveryTime returns the total one-way delay for a message of n bytes on
// an idle link. This is the analytic counterpart used by the bench package's
// cost model.
func (p Params) DeliveryTime(n int) time.Duration {
	return p.TxTime(n) + p.Latency
}

// Clock abstracts time so shaping can be disabled in tests. The package
// sleeps with time.Sleep in production.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// realClock is the wall clock.
type realClock struct{}

// Now implements Clock.
func (realClock) Now() time.Time { return time.Now() }

// Sleep implements Clock with PreciseSleep: link latencies and
// transmission times are far below the kernel timer granularity on some
// hosts.
func (realClock) Sleep(d time.Duration) { PreciseSleep(d) }

// PreciseSleep sleeps for d with microsecond accuracy. Link delays and the
// calibrated endpoint costs charged over a network are tens to hundreds of
// microseconds, far below the kernel timer granularity (≈1 ms on some
// hosts), so plain time.Sleep would erase the differences between the
// modelled links and runtimes. PreciseSleep lets the coarse timer cover all
// but the last millisecond and spins the remainder, yielding to the
// scheduler between probes.
func PreciseSleep(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	if coarse := d - time.Millisecond; coarse > 0 {
		time.Sleep(coarse)
	}
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// txLink serialises transmissions in one direction. Multiple connections
// may share a txLink to model several sockets contending for one NIC.
type txLink struct {
	params Params
	clock  Clock

	mu       sync.Mutex
	nextFree time.Time
}

// newTxLink returns a link with the given one-direction parameters.
func newTxLink(p Params, clk Clock) *txLink {
	if clk == nil {
		clk = realClock{}
	}
	return &txLink{params: p, clock: clk}
}

// acquire reserves a transmission slot for n bytes. It returns the time at
// which the message is delivered at the far end; the caller must sleep until
// the end of its transmission (returned as txEnd).
func (l *txLink) acquire(n int) (txEnd, deliverAt time.Time) {
	now := l.clock.Now()
	l.mu.Lock()
	start := now
	if l.nextFree.After(start) {
		start = l.nextFree
	}
	txEnd = start.Add(l.params.TxTime(n))
	l.nextFree = txEnd
	l.mu.Unlock()
	return txEnd, txEnd.Add(l.params.Latency)
}

// shape wraps a connection with link shaping. Both endpoints of a
// conversation must be shaped (the wrapper adds a delivery-deadline header
// understood by the peer's wrapper). A nil link allocates a private one; a
// nil clock uses the wall clock. Every message sent counts into reg's
// msgs_sent and its payload bytes into bytes_sent; a nil reg discards the
// counts.
func shape(c transport.Conn, p Params, clk Clock, link *txLink, reg *metrics.Registry) transport.Conn {
	if clk == nil {
		clk = realClock{}
	}
	if link == nil {
		link = newTxLink(p, clk)
	}
	sc := &shapedConn{inner: c, params: p, clock: clk, link: link}
	if reg != nil {
		sc.msgs, sc.bytes = reg.Counter("msgs_sent"), reg.Counter("bytes_sent")
	}
	return sc
}

type shapedConn struct {
	inner  transport.Conn
	params Params
	clock  Clock
	link   *txLink

	// msgs and bytes count what Send sends; nil when nothing counts.
	msgs, bytes *metrics.Counter

	// dialed is the listener address this connection was dialed to, and
	// net the owning shaped network — set only on Dial-side connections,
	// where together they let Isolate blackhole the conversation (both
	// directions ride this one conn). Accept-side and hand-shaped conns
	// leave them zero and are unaffected.
	dialed string
	net    *ShapedNetwork

	// rng drives loss sampling; lazily seeded per connection, guarded by
	// rngMu (Send may be called from concurrent writers).
	rngMu sync.Mutex
	rng   *rand.Rand
}

// lose samples whether this message is lost (and so pays the retransmit
// delay).
func (s *shapedConn) lose() bool {
	if s.params.Loss <= 0 {
		return false
	}
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return s.rng.Float64() < s.params.Loss
}

func (s *shapedConn) Send(msg []byte) error {
	if s.net != nil && s.net.isolated(s.dialed) {
		// Partitioned: the frame vanishes without error, like a dropped
		// packet — the RPC above waits out its deadline.
		return nil
	}
	if s.msgs != nil {
		s.msgs.Add(1)
		s.bytes.Add(int64(len(msg)))
	}
	buf := make([]byte, 8+len(msg))
	copy(buf[8:], msg)
	if s.params.Zero() {
		// Pass-through mode: zero deadline.
		return s.inner.Send(buf)
	}
	txEnd, deliverAt := s.link.acquire(len(msg))
	if s.lose() {
		// A lost frame is retransmitted: it arrives late, not never.
		deliverAt = deliverAt.Add(s.params.lossDelay())
	}
	binary.BigEndian.PutUint64(buf, uint64(deliverAt.UnixNano()))
	// The sender is occupied for the transmission time, modelling the
	// blocking send of a saturated NIC.
	s.clock.Sleep(txEnd.Sub(s.clock.Now()))
	return s.inner.Send(buf)
}

func (s *shapedConn) Recv() ([]byte, error) {
	for {
		msg, err := s.inner.Recv()
		if err != nil {
			return nil, err
		}
		if len(msg) < 8 {
			return nil, fmt.Errorf("netsim: short shaped frame of %d bytes", len(msg))
		}
		if s.net != nil && s.net.isolated(s.dialed) {
			// The reply direction of a partitioned conversation: frames in
			// flight (or sent by a peer that has not noticed) are dropped.
			continue
		}
		deadline := int64(binary.BigEndian.Uint64(msg))
		if deadline > 0 {
			deliverAt := time.Unix(0, deadline)
			s.clock.Sleep(deliverAt.Sub(s.clock.Now()))
		}
		return msg[8:], nil
	}
}

func (s *shapedConn) Close() error       { return s.inner.Close() }
func (s *shapedConn) LocalAddr() string  { return s.inner.LocalAddr() }
func (s *shapedConn) RemoteAddr() string { return s.inner.RemoteAddr() }

// ShapedNetwork decorates every connection of an inner network with
// shaping. Each connection direction gets its own Link unless SharedNIC is
// set, in which case all connections originating from this network value
// share one outbound link (modelling one NIC per node). Metrics counts the
// traffic of every connection in both directions, msgs_sent and
// bytes_sent (see Shape); nil discards the counts.
type ShapedNetwork struct {
	Inner   transport.Network
	Params  Params
	Clock   Clock
	Metrics *metrics.Registry

	// SharedNIC serialises all outbound transmissions across
	// connections, as a single network adapter would.
	SharedNIC bool

	once sync.Once
	nic  *txLink

	// isoMu guards the set of isolated listener addresses (Isolate/Heal).
	isoMu sync.Mutex
	iso   map[string]bool
}

// NewShapedNetwork shapes inner with p on every connection in both
// directions, counting into a registry of its own.
func NewShapedNetwork(inner transport.Network, p Params) *ShapedNetwork {
	return &ShapedNetwork{Inner: inner, Params: p, Metrics: new(metrics.Registry)}
}

func (n *ShapedNetwork) clock() Clock {
	if n.Clock != nil {
		return n.Clock
	}
	return realClock{}
}

func (n *ShapedNetwork) outboundLink() *txLink {
	if !n.SharedNIC {
		return nil
	}
	n.once.Do(func() { n.nic = newTxLink(n.Params, n.clock()) })
	return n.nic
}

// Listen implements transport.Network.
func (n *ShapedNetwork) Listen(addr string) (transport.Listener, error) {
	l, err := n.Inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &shapedListener{inner: l, net: n}, nil
}

// Dial implements transport.Network.
func (n *ShapedNetwork) Dial(addr string) (transport.Conn, error) {
	c, err := n.Inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	sc := shape(c, n.Params, n.clock(), n.outboundLink(), n.Metrics).(*shapedConn)
	sc.dialed, sc.net = addr, n
	return sc, nil
}

// Isolate partitions the listener at addr off the network: every shaped
// connection dialed to it blackholes both directions (frames vanish
// without error, so calls across the partition hang until their
// deadlines) until Heal. Isolation is keyed by the dialed listener
// address, which in the in-process harness identifies the node.
func (n *ShapedNetwork) Isolate(addr string) {
	n.isoMu.Lock()
	if n.iso == nil {
		n.iso = make(map[string]bool)
	}
	n.iso[addr] = true
	n.isoMu.Unlock()
}

// Heal reconnects a listener isolated by Isolate.
func (n *ShapedNetwork) Heal(addr string) {
	n.isoMu.Lock()
	delete(n.iso, addr)
	n.isoMu.Unlock()
}

func (n *ShapedNetwork) isolated(addr string) bool {
	n.isoMu.Lock()
	defer n.isoMu.Unlock()
	return n.iso[addr]
}

type shapedListener struct {
	inner transport.Listener
	net   *ShapedNetwork
}

func (l *shapedListener) Accept() (transport.Conn, error) {
	c, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	return shape(c, l.net.Params, l.net.clock(), nil, l.net.Metrics), nil
}

func (l *shapedListener) Close() error { return l.inner.Close() }
func (l *shapedListener) Addr() string { return l.inner.Addr() }
