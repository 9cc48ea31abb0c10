// Package transport provides reliable, ordered message connections used by
// all three RPC stacks (remoting, rmi, mpi). Interchangeable networks are
// provided: real TCP and Unix domain sockets with 4-byte length framing, and
// an in-process memory network used by tests, by the single-process cluster
// harness and by co-located nodes sharing one address space.
// The netsim package wraps either network with latency/bandwidth shaping to
// model the paper's 100 Mbit Ethernet testbed.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// maxFrame is the largest message accepted on the wire (64 MiB). The paper's
// ping-pong sweep tops out at 1 MB payloads; the guard exists so a corrupt
// length prefix cannot trigger an arbitrary allocation.
const maxFrame = 64 << 20

// ErrClosed is returned by operations on a closed connection or listener.
var ErrClosed = errors.New("transport: connection closed")

// Conn is a reliable, ordered, message-oriented connection. Send and Recv
// are independently safe for concurrent use by multiple goroutines;
// concurrent Sends are serialised internally.
type Conn interface {
	// Send transmits one message.
	Send(msg []byte) error
	// Recv blocks until the next message arrives or the connection
	// closes, in which case it returns ErrClosed (or the underlying
	// error).
	Recv() ([]byte, error)
	// Close releases the connection. Pending and future calls fail.
	Close() error
	// LocalAddr and RemoteAddr identify the endpoints for diagnostics.
	LocalAddr() string
	RemoteAddr() string
}

// Listener accepts inbound connections.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	// Addr is the address peers dial, for example "127.0.0.1:41730" or
	// "mem://node0".
	Addr() string
}

// Network creates listeners and dials peers. Implementations: TCPNetwork,
// MemNetwork and netsim.ShapedNetwork.
type Network interface {
	Listen(addr string) (Listener, error)
	Dial(addr string) (Conn, error)
}

// ---------------------------------------------------------------- TCP

// TCPNetwork is the production network: length-framed messages over TCP.
// The zero value is ready to use.
type TCPNetwork struct{}

// Listen implements Network. Use ":0" or "127.0.0.1:0" to pick a free port;
// the chosen address is available from Listener.Addr.
func (TCPNetwork) Listen(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &tcpListener{l: l}, nil
}

// Dial implements Network.
func (TCPNetwork) Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	if tc, ok := c.(*net.TCPConn); ok {
		// The remoting channel disables Nagle, as Mono 1.1.7's did.
		tc.SetNoDelay(true)
	}
	return newStreamConn(c), nil
}

type tcpListener struct {
	l net.Listener
}

func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		return nil, err
	}
	return newStreamConn(c), nil
}

func (t *tcpListener) Close() error { return t.l.Close() }
func (t *tcpListener) Addr() string { return t.l.Addr().String() }

// ---------------------------------------------------------------- frames

// smallMax is the one size line of this package: a message up to it is
// small enough to copy (into the connection's reusable write buffer, where
// one Write carries prefix and body) and its receive frame small enough to
// pool; anything larger is sent vectored and never copied, and its buffers
// are left to the GC, so a one-off large message pins no memory.
const smallMax = 64 << 10

// Receive frames: who owns one, and who may hand it to whom.
//
// RecvFrame gives its caller a frame, and the caller owns it. The one rule
// for what happens next: a frame that decoded values alias (wire borrow
// mode) is forgotten, the GC owns it together with the values, and nobody
// receives into it again; a frame nothing aliases goes back, at once, to
// where it came from. For a stream connection (TCP, Unix) that is the
// connection: ReleaseFrame(c, b) makes b the buffer c's next receive fills,
// so a read loop that receives, decodes and releases runs on one buffer of
// its own, whatever other connections do, and shares no pool with them; a
// frame released while the connection already holds one as large goes to
// the pool (PutFrame). A
// connection that cannot take a frame back (mem://, whose frames come from
// the sender, and every wrapper: cost, netsim, fault) has ReleaseFrame fall
// through to PutFrame and the process-wide pool, which is also where a
// stream connection with no buffer in hand looks first (GetFrame). Frames
// above smallMax are kept by neither.
//
// framePool is that pool. Buffers are stored behind pointers to keep
// sync.Pool from re-boxing the slice header; the boxes GetFrame empties wait
// in boxPool for the next PutFrame, so a recycled frame costs no allocation
// in the steady state.
var framePool, boxPool sync.Pool

// GetFrame returns a buffer of length n, reusing pooled capacity when
// possible. Pair with PutFrame once the frame's bytes are no longer
// referenced. It looks at one pooled buffer and drops a too-small one, whose
// box goes to boxPool: put back, it would sit in front of every larger
// frame on its processor, and each of those would cost a frame and a box
// until the next collection. A frame above smallMax is allocated without
// looking: the pool never holds one.
func GetFrame(n int) []byte {
	if n > smallMax {
		return make([]byte, n)
	}
	if p, _ := framePool.Get().(*[]byte); p != nil {
		b := *p
		*p = nil
		boxPool.Put(p)
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

// PutFrame hands the pool a message buffer nothing references any more.
// Callers may pass any buffer they own, including ones Recv allocated;
// buffers above smallMax are dropped.
func PutFrame(b []byte) {
	if cap(b) == 0 || cap(b) > smallMax {
		return
	}
	p, _ := boxPool.Get().(*[]byte)
	if p == nil {
		p = new([]byte)
	}
	*p = b[:0]
	framePool.Put(p)
}

// RecvFrame receives one message into a frame the caller owns: on a stream
// connection the buffer the connection was last handed back, when the
// message fits it. See ReleaseFrame for what to do with it.
func RecvFrame(c Conn) ([]byte, error) {
	if fo, ok := c.(frameOwner); ok {
		return fo.recvFrame()
	}
	return c.Recv()
}

// ReleaseFrame hands a frame that RecvFrame(c) returned, and that nothing
// references any more, back to c, or to the pool when c cannot take it.
func ReleaseFrame(c Conn, b []byte) {
	if fo, ok := c.(frameOwner); ok {
		fo.keepFrame(b)
		return
	}
	PutFrame(b)
}

// frameOwner is implemented by connections that receive into a buffer of
// their own and take it back.
type frameOwner interface {
	recvFrame() ([]byte, error)
	keepFrame(b []byte)
}

// BatchSender is implemented by connections that can transmit several
// messages in one wire write. The messages are framed exactly as if Send
// had been called once per message — batching changes the syscall count,
// never the on-the-wire bytes — so receivers cannot tell the difference.
type BatchSender interface {
	SendBatch(msgs [][]byte) error
}

// SendBatch transmits msgs in order, coalescing them into as few wire
// writes as the connection supports (one writev/Write for TCP stream
// connections). Connections without batch support degrade to one Send per
// message, so callers can batch unconditionally.
func SendBatch(c Conn, msgs [][]byte) error {
	if len(msgs) == 1 {
		return c.Send(msgs[0])
	}
	if bs, ok := c.(BatchSender); ok {
		return bs.SendBatch(msgs)
	}
	for _, m := range msgs {
		if err := c.Send(m); err != nil {
			return err
		}
	}
	return nil
}

// streamConn frames messages over any net.Conn. Receives go through a
// buffered reader: a frame costs one syscall instead of two (prefix, then
// body), and when the peer batch-writes several frames (SendBatch), one
// read syscall fills the buffer with all of them — the receive-side half
// of write coalescing.
type streamConn struct {
	c      net.Conn
	sendMu sync.Mutex
	// Send-side scratch, all under sendMu and reused between writes: wbuf
	// assembles a small write (never grows past smallMax); prefixes and vec
	// hold a vectored write's length prefixes and buffer list, and out is
	// the view of vec that net.Buffers.WriteTo consumes.
	wbuf     []byte
	prefixes []byte
	vec, out net.Buffers
	recvMu   sync.Mutex
	br       *bufio.Reader
	rLenBuf  [4]byte
	// spare is the receive frame the connection was last handed back
	// (ReleaseFrame). Its own lock, not recvMu: a release must not wait for
	// a receive blocked on the socket.
	spareMu sync.Mutex
	spare   []byte
}

// readBufSize sizes the receive buffer: big enough to swallow a full
// batch of small pipelined frames in one read, small enough that the
// pooled channel's dial churn can afford one per connection. Reads larger
// than the buffer bypass it (bufio reads straight into the target).
const readBufSize = 16 << 10

func newStreamConn(c net.Conn) *streamConn {
	return &streamConn{c: c, br: bufio.NewReaderSize(c, readBufSize)}
}

// Send is the one-message case of SendBatch.
func (s *streamConn) Send(msg []byte) error {
	return s.SendBatch([][]byte{msg})
}

// SendBatch implements BatchSender: every message is preceded by its 4-byte
// length and the whole batch leaves in one wire write. Prefix and body must
// not go out in separate writes: with Nagle disabled the prefix would get a
// packet of its own, doubling the packet count exactly on the small
// pipelined messages where it hurts. So a write of up to smallMax bytes is
// copied into the reusable write buffer and leaves in one Write; a larger
// one leaves in one writev of [prefix, body, ...], its bodies never copied.
// Steady state allocates nothing either way.
func (s *streamConn) SendBatch(msgs [][]byte) error {
	total := 0
	for _, m := range msgs {
		if len(m) > maxFrame {
			return fmt.Errorf("transport: message of %d bytes exceeds the %d-byte frame limit", len(m), maxFrame)
		}
		total += 4 + len(m)
	}
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	if total <= smallMax {
		if cap(s.wbuf) < total {
			s.wbuf = make([]byte, 0, total)
		}
		buf := s.wbuf[:0]
		for _, m := range msgs {
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(m)))
			buf = append(buf, m...)
		}
		_, err := s.c.Write(buf)
		return err
	}
	s.prefixes, s.vec = s.prefixes[:0], s.vec[:0]
	for _, m := range msgs {
		s.prefixes = binary.BigEndian.AppendUint32(s.prefixes, uint32(len(m)))
	}
	for i, m := range msgs {
		s.vec = append(s.vec, s.prefixes[4*i:4*i+4], m)
	}
	s.out = s.vec
	_, err := s.out.WriteTo(s.c)
	clear(s.vec) // keep no reference to the caller's messages
	return err
}

func (s *streamConn) Recv() ([]byte, error) { return s.recv(false) }

// recvFrame implements frameOwner: the message lands in the connection's
// spare frame, so a read loop that releases what it received allocates
// nothing.
func (s *streamConn) recvFrame() ([]byte, error) { return s.recv(true) }

// keepFrame implements frameOwner. The larger of two frames is kept, so a
// connection whose messages come in several sizes settles on one buffer
// that fits them all, and the other goes to the pool: a read loop whose
// calls hold their frames until they are answered has several out at once,
// and gets them back from there.
func (s *streamConn) keepFrame(b []byte) {
	if cap(b) > smallMax {
		return
	}
	s.spareMu.Lock()
	if cap(b) > cap(s.spare) {
		b, s.spare = s.spare, b[:0]
	}
	s.spareMu.Unlock()
	PutFrame(b)
}

// ownedFrame is the spare frame when n bytes fit it, a pooled or fresh one
// otherwise (the first receive, the one after a borrowed frame, a message
// that outgrew the spare).
func (s *streamConn) ownedFrame(n int) []byte {
	s.spareMu.Lock()
	b := s.spare
	if b != nil && cap(b) >= n {
		s.spare = nil
	} else {
		b = nil
	}
	s.spareMu.Unlock()
	if b != nil {
		return b[:n]
	}
	return GetFrame(n)
}

func (s *streamConn) recv(owned bool) ([]byte, error) {
	s.recvMu.Lock()
	defer s.recvMu.Unlock()
	if _, err := io.ReadFull(s.br, s.rLenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(s.rLenBuf[:])
	if n > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds the %d-byte frame limit", n, maxFrame)
	}
	var buf []byte
	if owned {
		buf = s.ownedFrame(int(n))
	} else {
		buf = make([]byte, n)
	}
	if _, err := io.ReadFull(s.br, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func (s *streamConn) Close() error       { return s.c.Close() }
func (s *streamConn) LocalAddr() string  { return s.c.LocalAddr().String() }
func (s *streamConn) RemoteAddr() string { return s.c.RemoteAddr().String() }

// ---------------------------------------------------------------- memory

// MemNetwork is the in-process network: frames are handed directly between
// sender and receiver over a channel — no length framing, no syscalls, no
// stream to desynchronise. Addresses are names, by convention in one of the
// two self-describing in-memory forms "mem://name" and "inproc://name". An
// explicit instance lets tests, netsim and the single-process cluster
// harness build isolated or shaped universes (the paper's cluster collapsed
// onto one machine); the process-global instance behind Auto lets
// co-located runtimes find each other by address with no shared object to
// plumb.
type MemNetwork struct {
	mu        sync.Mutex
	listeners map[string]*memListener
	seq       int
}

// NewMemNetwork returns an empty memory network.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{listeners: make(map[string]*memListener)}
}

// Listen implements Network. A bare scheme ("mem://", "inproc://"; an empty
// addr means "mem://") allocates a fresh unique address of that form.
func (m *MemNetwork) Listen(addr string) (Listener, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if addr == "" {
		addr = "mem://"
	}
	if addr == "mem://" || addr == "inproc://" {
		m.seq++
		addr = fmt.Sprintf("%sauto%d", addr, m.seq)
	}
	if _, exists := m.listeners[addr]; exists {
		return nil, fmt.Errorf("transport: address %s already in use", addr)
	}
	l := &memListener{
		addr:    addr,
		backlog: make(chan Conn, 16),
		done:    make(chan struct{}),
		net:     m,
	}
	m.listeners[addr] = l
	return l, nil
}

// Dial implements Network.
func (m *MemNetwork) Dial(addr string) (Conn, error) {
	m.mu.Lock()
	l, ok := m.listeners[addr]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: no listener at %s", addr)
	}
	client, server := NewPipe(addr+"/client", addr)
	select {
	case l.backlog <- server:
		return client, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (m *MemNetwork) remove(addr string) {
	m.mu.Lock()
	delete(m.listeners, addr)
	m.mu.Unlock()
}

type memListener struct {
	addr    string
	backlog chan Conn
	done    chan struct{}
	once    sync.Once
	net     *MemNetwork
}

func (l *memListener) Accept() (Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.remove(l.addr)
	})
	return nil
}

func (l *memListener) Addr() string { return l.addr }

// NewPipe returns two connected in-memory connections. Messages sent on one
// side are received on the other in order. Useful directly in tests.
func NewPipe(addrA, addrB string) (Conn, Conn) {
	ab := make(chan []byte, 64)
	ba := make(chan []byte, 64)
	done := make(chan struct{})
	var once sync.Once
	closeFn := func() { once.Do(func() { close(done) }) }
	a := &memConn{send: ab, recv: ba, done: done, close: closeFn, local: addrA, remote: addrB}
	b := &memConn{send: ba, recv: ab, done: done, close: closeFn, local: addrB, remote: addrA}
	return a, b
}

// memConn hands pooled frames directly to the peer. One copy remains, into
// a GetFrame buffer, because senders reuse their encoder buffers the moment
// Send returns (the caller keeps ownership of msg, matching Conn's
// contract); Recv surrenders that buffer to the receiver, which settles it
// after decoding by the frame rule (ReleaseFrame, which for this connection
// is PutFrame: the next frame comes from the sender's side, so there is
// nothing to keep it for), and the steady state allocates nothing.
type memConn struct {
	send   chan []byte
	recv   chan []byte
	done   chan struct{}
	close  func()
	local  string
	remote string
}

func (c *memConn) Send(msg []byte) error {
	if len(msg) > maxFrame {
		return fmt.Errorf("transport: message of %d bytes exceeds the %d-byte frame limit", len(msg), maxFrame)
	}
	// Checked before the send: with buffer room free, the select below has
	// both cases ready after a close and could still enqueue.
	select {
	case <-c.done:
		return ErrClosed
	default:
	}
	cp := GetFrame(len(msg))
	copy(cp, msg)
	select {
	case c.send <- cp:
		return nil
	case <-c.done:
		PutFrame(cp)
		return ErrClosed
	}
}

func (c *memConn) Recv() ([]byte, error) {
	select {
	case msg := <-c.recv:
		return msg, nil
	case <-c.done:
		// Drain messages that raced with close so orderly shutdown
		// does not drop replies.
		select {
		case msg := <-c.recv:
			return msg, nil
		default:
		}
		return nil, ErrClosed
	}
}

func (c *memConn) Close() error {
	c.close()
	return nil
}

func (c *memConn) LocalAddr() string  { return c.local }
func (c *memConn) RemoteAddr() string { return c.remote }
