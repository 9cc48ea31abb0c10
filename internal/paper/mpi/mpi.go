// Package mpi is a message-passing layer in the style of MPI 1.x, the
// low-level baseline of the paper's Fig. 8a (MPICH 1.2.6 in the original
// testbed). It provides ranked communicators with blocking and non-blocking
// tagged point-to-point messages, the core collectives, and MPI_Pack-style
// buffers — enough to express the CSP-style programs §2 contrasts with
// object-oriented remoting (explicit packing/unpacking included).
//
// A World is a set of ranks in one process connected through any
// transport.Network (shaped memory pipes in the benchmarks, TCP for real
// distribution). Message payloads are raw bytes: unlike the RPC stacks,
// nothing is serialised for the caller, which is exactly why the MPI curve
// sits above the others in Fig. 8a.
package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/paper/cost"
	"repro/internal/transport"
)

// AnySource matches messages from any rank in Recv.
const AnySource = -1

// AnyTag matches any application tag (>= 0) in Recv. Internal collective
// tags are negative and are never matched by AnyTag.
const AnyTag = math.MinInt

// ErrClosed is returned when the world has been shut down.
var ErrClosed = errors.New("mpi: world closed")

// Status describes a received message, like MPI_Status.
type Status struct {
	Source int
	Tag    int
	Count  int
}

// Op is a reduction operator.
type Op int

// Reduction operators.
const (
	Sum Op = iota
	Prod
	Max
	Min
)

func (o Op) apply(a, b float64) float64 {
	switch o {
	case Prod:
		return a * b
	case Max:
		return math.Max(a, b)
	case Min:
		return math.Min(a, b)
	default:
		return a + b
	}
}

// World is a communicator group: size ranks with full connectivity.
type World struct {
	size  int
	net   transport.Network
	cost  cost.Model
	comms []*Comm

	mu        sync.Mutex
	listeners []transport.Listener
	closed    bool
	wg        sync.WaitGroup
}

// NewWorld creates a world of size ranks over net. The cost model is
// charged per message at both endpoints (MPICH's software overhead in the
// calibrated experiments; zero in tests).
func NewWorld(size int, net transport.Network, c cost.Model) (*World, error) {
	if size < 1 {
		return nil, fmt.Errorf("mpi: world size %d < 1", size)
	}
	w := &World{size: size, net: net, cost: c}
	for rank := 0; rank < size; rank++ {
		comm := &Comm{world: w, rank: rank}
		comm.box.cond = sync.NewCond(&comm.box.mu)
		w.comms = append(w.comms, comm)
	}
	for rank := 0; rank < size; rank++ {
		l, err := net.Listen("")
		if err != nil {
			w.Close()
			return nil, fmt.Errorf("mpi: listen for rank %d: %w", rank, err)
		}
		w.listeners = append(w.listeners, l)
		w.comms[rank].addr = l.Addr()
		w.wg.Add(1)
		go w.acceptLoop(rank, l)
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Comm returns rank's communicator.
func (w *World) Comm(rank int) *Comm { return w.comms[rank] }

// Close tears the world down. Blocked Recvs return ErrClosed.
func (w *World) Close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	ls := w.listeners
	w.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	for _, c := range w.comms {
		c.box.mu.Lock()
		c.box.closed = true
		c.box.cond.Broadcast()
		c.box.mu.Unlock()
		c.conns.Range(func(_, v any) bool {
			v.(*sendConn).conn.Close()
			return true
		})
	}
	w.wg.Wait()
}

func (w *World) acceptLoop(rank int, l transport.Listener) {
	defer w.wg.Done()
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		w.wg.Add(1)
		go w.readLoop(rank, c)
	}
}

// readLoop pushes inbound messages into the rank's mailbox.
func (w *World) readLoop(rank int, c transport.Conn) {
	defer w.wg.Done()
	defer c.Close()
	box := &w.comms[rank].box
	for {
		raw, err := c.Recv()
		if err != nil {
			return
		}
		if len(raw) < 16 {
			continue
		}
		w.cost.Charge(len(raw) - 16)
		src := int(int64(binary.BigEndian.Uint64(raw)))
		tag := int(int64(binary.BigEndian.Uint64(raw[8:])))
		box.push(message{src: src, tag: tag, data: raw[16:]})
	}
}

// message is one queued inbound message.
type message struct {
	src  int
	tag  int
	data []byte
}

// mailbox implements MPI's unexpected-message queue with tag matching.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	msgs   []message
	closed bool
}

func (b *mailbox) push(m message) {
	b.mu.Lock()
	b.msgs = append(b.msgs, m)
	b.cond.Broadcast()
	b.mu.Unlock()
}

// take removes and returns the first message matching (src, tag), blocking
// until one arrives. Like MPICH's progress engine, it busy-polls briefly
// before parking on the condition variable: real MPI owes part of its low
// latency to poll-mode completion, and the spin keeps the reproduction from
// paying a scheduler wake-up on every receive.
func (b *mailbox) take(src, tag int) (message, error) {
	const pollFor = 200 * time.Microsecond
	pollDeadline := time.Now().Add(pollFor)
	for {
		b.mu.Lock()
		for i, m := range b.msgs {
			if matches(m, src, tag) {
				b.msgs = append(b.msgs[:i], b.msgs[i+1:]...)
				b.mu.Unlock()
				return m, nil
			}
		}
		if b.closed {
			b.mu.Unlock()
			return message{}, ErrClosed
		}
		if time.Now().Before(pollDeadline) {
			b.mu.Unlock()
			runtime.Gosched()
			continue
		}
		b.cond.Wait()
		b.mu.Unlock()
	}
}

// poll is the non-blocking probe used by Iprobe.
func (b *mailbox) poll(src, tag int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, m := range b.msgs {
		if matches(m, src, tag) {
			return true
		}
	}
	return false
}

func matches(m message, src, tag int) bool {
	if src != AnySource && m.src != src {
		return false
	}
	switch tag {
	case AnyTag:
		return m.tag >= 0 // AnyTag never matches internal (negative) tags
	default:
		return m.tag == tag
	}
}

// sendConn serialises sends from one rank to one destination so message
// order is preserved per (src, dest) pair, as MPI guarantees.
type sendConn struct {
	mu   sync.Mutex
	conn transport.Conn
}

// Comm is one rank's handle on the world.
type Comm struct {
	world *World
	rank  int
	addr  string

	box   mailbox
	conns sync.Map // dest rank -> *sendConn

	// collSeq numbers collective operations; all ranks must invoke
	// collectives in the same order (the standard MPI requirement).
	collMu  sync.Mutex
	collSeq int
}

// Rank returns this communicator's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// Send transmits data to dest with an application tag (tag >= 0). It blocks
// until the message is handed to the transport (MPI_Send's local
// completion).
func (c *Comm) Send(dest, tag int, data []byte) error {
	if tag < 0 {
		return fmt.Errorf("mpi: application tags must be >= 0, got %d", tag)
	}
	return c.send(dest, tag, data)
}

func (c *Comm) send(dest, tag int, data []byte) error {
	if dest < 0 || dest >= c.world.size {
		return fmt.Errorf("mpi: rank %d out of range [0,%d)", dest, c.world.size)
	}
	if dest == c.rank {
		// Self-sends bypass the network, as in shared-memory MPI.
		cp := make([]byte, len(data))
		copy(cp, data)
		c.box.push(message{src: c.rank, tag: tag, data: cp})
		return nil
	}
	sc, err := c.connTo(dest)
	if err != nil {
		return err
	}
	buf := make([]byte, 16+len(data))
	binary.BigEndian.PutUint64(buf, uint64(int64(c.rank)))
	binary.BigEndian.PutUint64(buf[8:], uint64(int64(tag)))
	copy(buf[16:], data)
	c.world.cost.Charge(len(data))
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.conn.Send(buf)
}

func (c *Comm) connTo(dest int) (*sendConn, error) {
	if v, ok := c.conns.Load(dest); ok {
		return v.(*sendConn), nil
	}
	conn, err := c.world.net.Dial(c.world.comms[dest].addr)
	if err != nil {
		return nil, fmt.Errorf("mpi: rank %d dial rank %d: %w", c.rank, dest, err)
	}
	actual, loaded := c.conns.LoadOrStore(dest, &sendConn{conn: conn})
	if loaded {
		conn.Close()
	}
	return actual.(*sendConn), nil
}

// Recv blocks until a message matching src (or AnySource) and tag (or
// AnyTag) arrives.
func (c *Comm) Recv(src, tag int) ([]byte, Status, error) {
	m, err := c.box.take(src, tag)
	if err != nil {
		return nil, Status{}, err
	}
	return m.data, Status{Source: m.src, Tag: m.tag, Count: len(m.data)}, nil
}

// Iprobe reports without blocking whether a matching message is queued.
func (c *Comm) Iprobe(src, tag int) bool { return c.box.poll(src, tag) }

// Request is the handle of a non-blocking operation.
type Request struct {
	done chan struct{}
	data []byte
	st   Status
	err  error
}

// Wait blocks until the operation completes.
func (r *Request) Wait() ([]byte, Status, error) {
	<-r.done
	return r.data, r.st, r.err
}

// Test reports completion without blocking.
func (r *Request) Test() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// Isend starts a non-blocking send.
func (c *Comm) Isend(dest, tag int, data []byte) *Request {
	r := &Request{done: make(chan struct{})}
	go func() {
		defer close(r.done)
		r.err = c.Send(dest, tag, data)
	}()
	return r
}

// Irecv starts a non-blocking receive.
func (c *Comm) Irecv(src, tag int) *Request {
	r := &Request{done: make(chan struct{})}
	go func() {
		defer close(r.done)
		r.data, r.st, r.err = c.Recv(src, tag)
	}()
	return r
}

// WaitAll waits for every request and returns the first error.
func WaitAll(reqs ...*Request) error {
	var first error
	for _, r := range reqs {
		if _, _, err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// nextCollTag allocates the (negative) internal tag for the next collective.
func (c *Comm) nextCollTag() int {
	c.collMu.Lock()
	defer c.collMu.Unlock()
	c.collSeq++
	return -c.collSeq
}

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() error {
	tag := c.nextCollTag()
	const root = 0
	if c.rank == root {
		for i := 1; i < c.Size(); i++ {
			if _, _, err := c.Recv(AnySource, tag); err != nil {
				return err
			}
		}
		for i := 1; i < c.Size(); i++ {
			if err := c.send(i, tag, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.send(root, tag, nil); err != nil {
		return err
	}
	_, _, err := c.Recv(root, tag)
	return err
}

// Bcast distributes root's buffer to every rank and returns the local copy.
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	tag := c.nextCollTag()
	if c.rank == root {
		for i := 0; i < c.Size(); i++ {
			if i == root {
				continue
			}
			if err := c.send(i, tag, data); err != nil {
				return nil, err
			}
		}
		return data, nil
	}
	m, err := c.box.take(root, tag)
	if err != nil {
		return nil, err
	}
	return m.data, nil
}

// Reduce combines value across ranks with op; the result is valid at root.
func (c *Comm) Reduce(root int, value float64, op Op) (float64, error) {
	tag := c.nextCollTag()
	if c.rank != root {
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], math.Float64bits(value))
		return 0, c.send(root, tag, buf[:])
	}
	acc := value
	for i := 0; i < c.Size()-1; i++ {
		m, err := c.box.take(AnySource, tag)
		if err != nil {
			return 0, err
		}
		if len(m.data) != 8 {
			return 0, fmt.Errorf("mpi: reduce payload %d bytes", len(m.data))
		}
		acc = op.apply(acc, math.Float64frombits(binary.BigEndian.Uint64(m.data)))
	}
	return acc, nil
}

// Allreduce combines value across ranks and returns the result everywhere.
func (c *Comm) Allreduce(value float64, op Op) (float64, error) {
	const root = 0
	acc, err := c.Reduce(root, value, op)
	if err != nil {
		return 0, err
	}
	var payload []byte
	if c.rank == root {
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], math.Float64bits(acc))
		payload = buf[:]
	}
	out, err := c.Bcast(root, payload)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.BigEndian.Uint64(out)), nil
}

// Gather collects every rank's buffer at root; the result slice is indexed
// by rank and is nil on non-roots.
func (c *Comm) Gather(root int, data []byte) ([][]byte, error) {
	tag := c.nextCollTag()
	if c.rank != root {
		return nil, c.send(root, tag, data)
	}
	out := make([][]byte, c.Size())
	out[root] = data
	for i := 0; i < c.Size()-1; i++ {
		m, err := c.box.take(AnySource, tag)
		if err != nil {
			return nil, err
		}
		out[m.src] = m.data
	}
	return out, nil
}

// Scatter distributes parts[i] from root to rank i and returns the local
// part. parts is ignored on non-roots.
func (c *Comm) Scatter(root int, parts [][]byte) ([]byte, error) {
	// Validate before consuming a collective tag so a failed call on the
	// root does not desynchronise the tag sequence across ranks.
	if c.rank == root && len(parts) != c.Size() {
		return nil, fmt.Errorf("mpi: scatter needs %d parts, got %d", c.Size(), len(parts))
	}
	tag := c.nextCollTag()
	if c.rank == root {
		for i, p := range parts {
			if i == root {
				continue
			}
			if err := c.send(i, tag, p); err != nil {
				return nil, err
			}
		}
		return parts[root], nil
	}
	m, err := c.box.take(root, tag)
	if err != nil {
		return nil, err
	}
	return m.data, nil
}
