package remoting

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/errs"
	"repro/internal/keep"
	"repro/internal/transport"
	"repro/internal/wire"
)

// DefaultMaxInFlight bounds concurrent exchanges per multiplexed lane when
// Channel.MaxInFlight is zero. Calls beyond it wait in the lane's admission
// queue, in order, until a slot frees: a blocking caller parked on its call,
// a completion-driven one costing no goroutine.
const DefaultMaxInFlight = 1024

// maxMuxLanes caps Channel.MuxLanes; past a few lanes per peer the wire is
// the bottleneck, not the locks, and each lane costs a connection plus two
// goroutines.
const maxMuxLanes = 64

// defaultMuxLanes is the lane count used when Channel.MuxLanes is zero:
// one lane per processor up to four. A single-core process gets exactly
// the old single-connection behaviour; a many-core one spreads the objects
// of a peer across connections, so calls to unrelated objects never share a
// writer, a TCP stream, or an in-flight table.
func defaultMuxLanes() int {
	return min(runtime.GOMAXPROCS(0), 4)
}

// inflightShards stripes each lane's in-flight table. Power of two so the
// shard index is a mask of the sequence number; 16 shards keep the
// collision probability negligible for hundreds of concurrent callers at
// the cost of 16 small maps per lane.
const inflightShards = 16

// inflightShard is one stripe of a lane's seq → waiter table. closed flips
// under mu when the lane fails, so a register racing the failure either
// lands in the map (and is drained with an error) or observes closed —
// never a silently dropped caller.
type inflightShard struct {
	mu     sync.Mutex
	m      map[uint64]*CallRecord
	closed bool
}

// muxConn is one long-lived multiplexed lane to a peer address. Many
// request/response exchanges are in flight concurrently: a single writer
// goroutine drains outQ onto the wire, and a single reader goroutine
// matches each arriving response to its caller through the seq-keyed
// in-flight shards. Responses may complete in any order.
//
// A channel holds laneCount() lanes per peer, with the peer's objects
// striped across them (laneForURI): every call to one object rides one lane,
// whatever kind of call it is. Each lane is its own connection, writer,
// reader and in-flight table, so calls on different lanes contend on
// nothing.
//
// Context cancellation abandons a call — the entry is removed from its
// in-flight shard and the late response is dropped by the reader — but the
// lane itself stays up, so one impatient caller cannot kill the exchanges
// of every other caller sharing the pipe.
type muxConn struct {
	ch      *Channel
	netaddr string
	lane    int
	slots   chan struct{} // in-flight slots, MaxInFlight of them
	done    chan struct{} // closed by fail
	drained chan struct{} // closed once the failed lane's calls were told (release)
	holders atomic.Int32  // who may still tell a call its outcome once fail ran; see hold
	ready   chan struct{} // closed once the dial settled (conn or dialErr)

	// Outbound frame queue. Unbounded by design: every queued frame
	// belongs to a call holding an in-flight slot, so MaxInFlight already
	// bounds it — and an enqueue
	// that could block would let TCP backpressure from a slow peer stall
	// the reader (which enqueues indirectly through pump), the classic
	// distributed buffer deadlock. outSig (capacity 1) wakes the writer.
	outMu  sync.Mutex
	outQ   []outFrame
	outSig chan struct{}

	// Admission queue: calls beyond MaxInFlight wait here, in order, with
	// their frames, until pump moves them into the in-flight table.
	// Unbounded: the calls are the queue, and a completion-driven one parks
	// no goroutine on it.
	admitMu     sync.Mutex
	admitQ      []queuedCall
	admitClosed bool

	mu      sync.Mutex
	conn    transport.Conn // set by dial; nil when the dial failed
	dialErr error
	failed  bool
	failErr error
	// parked holds the completion-driven calls that met the lane failing
	// (park), until it has left the channel's table (release); gone says it
	// has.
	parked []*CallRecord
	gone   bool

	inflight [inflightShards]inflightShard

	// Bound call handles (envelope.go): per-lane client state. bindShards
	// map (URI, call, method) triples to their handle entries; handles
	// counts the handles given out. Handles die with the lane — a redial
	// starts empty and re-declares, which is what makes reconnects
	// transparent.
	bindShards [bindShardCount]bindShard
	handles    atomic.Uint32

	// encs keeps the encoders the lane's requests are encoded into
	// (encodeRequest): the writer gives each back once its bytes are sent.
	encs keep.Store[wire.Encoder]
}

// queuedCall is a call waiting in a lane's admission queue, and the frame
// encodeRequest made for it, which goes out when the call is started (start)
// and back to the lane otherwise (refuse, fail).
type queuedCall struct {
	c  *CallRecord
	of outFrame
}

// muxKey identifies one lane to one peer in the channel's peer table.
type muxKey struct {
	netaddr string
	lane    int
}

// errChannelClosed terminates in-flight calls when Channel.Close shuts a
// lane down. It wraps ErrNodeDown for callers' errors.Is chains, but nothing
// sends a call again after it (Closed): that would re-create the very
// connection Close just released.
var errChannelClosed = fmt.Errorf("channel closed: %w", errs.ErrNodeDown)

// getMux returns the live multiplexed lane for c's object at netaddr,
// dialling one when absent or when the previous one failed. The channel-wide
// lock is held only for the map access: the dial itself runs outside it (a
// slow or blackholed peer must not stall calls to healthy peers, nor Close),
// with concurrent callers for the same lane waiting on the ready channel of
// whichever caller dialled. The dial goes behind the peer's breaker
// (Channel.dial), which a WithoutBreaker context bypasses.
//
// A lane that is failing stays in the table until fail has told every call
// it held, so no lane is dialled in its place before then: a call that meets
// it is held by the lane (park), which tells it, once it has left the table,
// that it was declined, and getMux returns neither a lane nor an error. fail
// runs completions, which may submit, so nothing waits for it.
func (ch *Channel) getMux(netaddr string, c *CallRecord) (*muxConn, error) {
	key := muxKey{netaddr: netaddr, lane: ch.laneForURI(c.ref.uri)}
	for {
		ch.muxMu.Lock()
		existing := ch.muxPeers[key]
		if existing == nil {
			limit := ch.MaxInFlight
			if limit <= 0 {
				limit = DefaultMaxInFlight
			}
			mc := &muxConn{
				ch:      ch,
				netaddr: netaddr,
				lane:    key.lane,
				outSig:  make(chan struct{}, 1),
				slots:   make(chan struct{}, limit),
				done:    make(chan struct{}),
				drained: make(chan struct{}),
				ready:   make(chan struct{}),
			}
			mc.holders.Store(1) // fail's
			for i := range mc.inflight {
				mc.inflight[i].m = make(map[uint64]*CallRecord)
			}
			if ch.muxPeers == nil {
				ch.muxPeers = make(map[muxKey]*muxConn)
			}
			ch.muxPeers[key] = mc
			ch.muxMu.Unlock()
			if err := mc.dial(breakerBypassed(c.ctx)); err != nil {
				ch.removeMux(mc)
				return nil, err
			}
			return mc, nil
		}
		ch.muxMu.Unlock()
		<-existing.ready
		existing.mu.Lock()
		dialled, failed := existing.dialErr == nil, existing.failed
		existing.mu.Unlock()
		switch {
		case dialled && !failed:
			return existing, nil
		case dialled && existing.park(c):
			return nil, nil
		case dialled:
			<-existing.drained
		}
		// Dead entry: forget it and race to install a fresh one.
		ch.removeMux(existing)
	}
}

// park holds c, a call that met the lane failing, until the lane has left
// the channel's table (release), and reports false when it has already. c's
// lane is this one meanwhile, so a Cancel finds it in no table and the lane
// still tells it. A Turn hears that it is held before it can be told.
func (mc *muxConn) park(c *CallRecord) bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.gone {
		return false
	}
	if t, ok := c.to.(Turn); ok {
		t.Held()
	}
	c.mc = mc
	mc.parked = append(mc.parked, c)
	return true
}

// dial connects the lane and starts its writer/reader. It runs outside the
// channel lock; concurrent callers wait on ready. A shutdown that raced
// the dial (Channel.Close between map insert and connect) wins: the fresh
// connection is discarded.
func (mc *muxConn) dial(bypass bool) error {
	// Channel.dial applies the per-peer shared dial backoff, so a dead
	// peer's lanes collapse into one capped, jittered probe schedule
	// instead of a redial storm.
	c, err := mc.ch.dial(mc.netaddr, bypass)
	mc.mu.Lock()
	switch {
	case err != nil:
		mc.dialErr = err
	case mc.failed:
		mc.mu.Unlock()
		c.Close()
		close(mc.ready)
		return mc.failureErr()
	default:
		mc.conn = c
	}
	live := mc.conn != nil
	dialErr := mc.dialErr
	mc.mu.Unlock()
	close(mc.ready)
	if live {
		go mc.writer()
		go mc.reader()
	}
	return dialErr
}

// removeMux forgets mc so the next call dials afresh. The map is guarded
// against replacing a newer lane that already took mc's slot.
func (ch *Channel) removeMux(mc *muxConn) {
	key := muxKey{netaddr: mc.netaddr, lane: mc.lane}
	ch.muxMu.Lock()
	if ch.muxPeers[key] == mc {
		delete(ch.muxPeers, key)
	}
	ch.muxMu.Unlock()
}

// register adds c to the lane's in-flight table under its sequence number,
// refusing when the lane already failed or c was cancelled. Both are read
// under the shard's lock, which fail and Cancel's take also hold: a fail or a
// Cancel racing the register either finds c in the table, or is observed
// here and c is never registered. Once registered, c may complete and be
// reused at any moment.
func (mc *muxConn) register(c *CallRecord) error {
	sh := &mc.inflight[c.req.Seq&(inflightShards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return mc.failureErr()
	}
	if c.has(recCancelled) {
		return c.cancelErr()
	}
	sh.m[c.req.Seq] = c
	return nil
}

// take removes and returns the waiter registered under seq, nil when the
// call was abandoned (or the lane failed). Exactly one of the reader, the
// cancellation hook and fail takes any given waiter, so the outcome is
// delivered exactly once.
func (mc *muxConn) take(seq uint64) *CallRecord {
	sh := &mc.inflight[seq&(inflightShards-1)]
	sh.mu.Lock()
	w := sh.m[seq]
	if w != nil {
		delete(sh.m, seq)
	}
	sh.mu.Unlock()
	return w
}

// enqueueFrame appends of to the outbound queue and wakes the writer.
// Never blocks (see outQ); a frame enqueued after the lane failed is
// collected by the GC together with its encoder and the lane.
// A declaring frame confirms its handle here: the queue is the wire order,
// and a frame encoded after the confirmation is queued after this one, so
// the server reads the declaration first.
func (mc *muxConn) enqueueFrame(of outFrame) {
	mc.outMu.Lock()
	mc.outQ = append(mc.outQ, of)
	mc.outMu.Unlock()
	if of.declares != nil {
		of.declares.confirmed.Store(true)
	}
	select {
	case mc.outSig <- struct{}{}:
	default:
	}
}

func (mc *muxConn) failureErr() error {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.failErr != nil {
		return mc.failErr
	}
	return errs.ErrNodeDown
}

// maxWriteBatch bounds how many queued frames one coalesced write carries,
// on the mux writer and the server's response writer alike. The bound
// keeps a single write's latency and buffer assembly predictable; greedy
// draining below it means batching never delays a frame that could have
// been written now (flush-on-idle: an empty queue flushes immediately).
const maxWriteBatch = 64

// writer is the per-lane writer goroutine: it serialises frames from every
// caller onto the wire, swapping the whole accumulated queue out under one
// lock so frames that piled up while the previous write was in flight
// leave in coalesced wire writes (chunks of maxWriteBatch) instead of one
// syscall each. Once a batch's bytes have left through the transport
// (which copies or vectors them), its encoders go back to the lane (encs).
// The spare slice ping-pongs with the queue's backing array, so the
// steady-state swap allocates nothing.
func (mc *muxConn) writer() {
	spare := make([]outFrame, 0, maxWriteBatch)
	raws := make([][]byte, 0, maxWriteBatch)
	for {
		select {
		case <-mc.outSig:
		case <-mc.done:
			return
		}
		for {
			mc.outMu.Lock()
			if len(mc.outQ) == 0 {
				mc.outMu.Unlock()
				break
			}
			batch := mc.outQ
			mc.outQ = spare[:0]
			mc.outMu.Unlock()
			for off := 0; off < len(batch); off += maxWriteBatch {
				end := min(off+maxWriteBatch, len(batch))
				raws = raws[:0]
				for _, of := range batch[off:end] {
					raws = append(raws, of.enc.Bytes())
				}
				err := transport.SendBatch(mc.conn, raws)
				for _, of := range batch[off:end] {
					of.release(&mc.encs)
				}
				if err != nil {
					mc.fail(fmt.Errorf("remoting: send to %s: %v: %w", mc.netaddr, err, errs.ErrNodeDown))
					return
				}
			}
			clear(batch) // drop frame refs before recycling the array
			spare = batch[:0]
		}
	}
}

// reader receives frames continuously, into the buffer the connection owns
// and through the one decoder the lane keeps, routes each reply to the
// exchange registered under its sequence number, and hands what the reply
// does not alias straight back to the connection.
func (mc *muxConn) reader() {
	d := wire.NewDecoder(nil)
	defer d.Release()
	d.SetBorrow(true)
	for {
		raw, err := transport.RecvFrame(mc.conn)
		if err != nil {
			mc.fail(fmt.Errorf("remoting: receive from %s: %v: %w", mc.netaddr, err, errs.ErrNodeDown))
			return
		}
		if !mc.hold() {
			return
		}
		audit := countFrame(mc.ch.frames)
		borrowed, taken, err := mc.route(d, raw)
		recycleFrame(audit, mc.conn, raw, borrowed)
		if err != nil {
			// A framing/codec failure desynchronises the stream; the whole
			// lane is unusable, for the call whose reply it was too.
			mc.fail(err)
			if taken != nil {
				taken.abort(err)
			}
			mc.release()
			return
		}
		mc.release()
	}
}

// route reads one reply by the rule "take the record, then decode into it".
// The reply names its call in its header; the exchange is taken and the
// body decoded straight into that exchange's record, or, when the server
// refused it on an undeclared handle, sent again (resend). A reply without
// an in-flight entry belongs to a cancelled or abandoned call: its body is
// not read, its frame not borrowed.
// A frame that is no reply fails the lane. Async exchanges complete inline
// here: continuations run on the reader goroutine (bounded, overflowing to
// the pool at the future layer), which is what makes a resolved future cost
// no parked goroutine. They must not block; see the
// README's inline-continuation guidance. taken is the exchange whose reply
// failed to decode after it left the table: nobody else will tell it.
func (mc *muxConn) route(d *wire.Decoder, raw []byte) (borrowed bool, taken *CallRecord, err error) {
	seq, flags, err := decodeReplyHeader(d, raw)
	if err != nil {
		return false, nil, err
	}
	select {
	case <-mc.done:
		// The lane is failing, and fail tells every call it holds: no reply
		// taken after one of its calls was failed may be delivered.
		return false, nil, nil
	default:
	}
	c := mc.take(seq)
	if c == nil {
		return false, nil, nil
	}
	if flags&flagReplyUnbound != 0 {
		mc.resend(c)
		return false, nil, nil
	}
	result, replyErr, err := c.readReply(d, flags)
	if err != nil {
		return d.Borrowed(), c, err
	}
	c.deliver(result, replyErr, nil)
	return d.Borrowed(), nil, nil
}

// resend sends c, which the reader has just taken, again, declaring its
// triple: the server refused c because it never saw the handle declared, so
// a frame this lane took as queued was lost on the way, and c was not run.
// A Cancel that found c out of the table is observed by register.
func (mc *muxConn) resend(c *CallRecord) {
	req := c.envelope()
	mc.bindFor(&req).confirmed.Store(false)
	of, err := mc.encodeRequest(c)
	if err == nil {
		err = mc.register(c)
	}
	if err != nil {
		of.release(&mc.encs)
		c.deliver(nil, nil, err)
		return
	}
	mc.enqueueFrame(of)
}

// fail moves the lane to its terminal state: the transport is closed, the
// reader delivers no reply from here on (route), and every call the lane
// holds receives err, in flight and then queued. The lane stays in the
// channel's peer table, where a call submitted meanwhile finds it failing
// (getMux), until this and the reader are done telling calls (release).
// Idempotent.
func (mc *muxConn) fail(err error) {
	mc.mu.Lock()
	if mc.failed {
		mc.mu.Unlock()
		return
	}
	mc.failed = true
	mc.failErr = err
	conn := mc.conn
	mc.mu.Unlock()
	if conn != nil {
		// nil while a racing dial is still connecting; dial observes
		// failed and discards its fresh connection itself.
		conn.Close()
	}
	close(mc.done)
	mc.admitMu.Lock()
	mc.admitClosed = true
	queued := mc.admitQ
	mc.admitQ = nil
	mc.admitMu.Unlock()
	for i := range mc.inflight {
		sh := &mc.inflight[i]
		sh.mu.Lock()
		sh.closed = true
		pending := sh.m
		sh.m = nil
		sh.mu.Unlock()
		for _, c := range pending {
			// Callbacks run iteratively here; a continuation that resubmits
			// observes admitClosed and fails synchronously, so the drain
			// cannot recurse.
			c.abort(err)
		}
	}
	for _, q := range queued {
		q.of.release(&mc.encs)
		q.c.complete(nil, nil, err)
	}
	mc.release()
}

// hold counts the reader in among those who may tell a call its outcome
// (holders) while it handles one reply, so that the lane outlives what it
// does with the call it takes: fail counts itself in from the start. It
// reports false once the last of them has let go (release): the lane is
// gone from the channel's table, and the reply is nobody's.
func (mc *muxConn) hold() bool {
	for {
		n := mc.holders.Load()
		if n == 0 {
			return false
		}
		if mc.holders.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// release ends a hold, or fail's part once it told every call the lane
// held. The last one out after fail removes the lane from the channel's
// peer table, so the next call dials afresh, lets go the callers that wait
// for that (getMux), and tells the calls it held meanwhile (park) that they
// were declined.
func (mc *muxConn) release() {
	if mc.holders.Add(-1) == 0 {
		mc.ch.removeMux(mc)
		mc.mu.Lock()
		mc.gone = true
		parked, err := mc.parked, mc.failErr
		mc.parked = nil
		mc.mu.Unlock()
		close(mc.drained)
		for _, c := range parked {
			c.complete(nil, nil, declined(err))
		}
	}
}

// shutdown closes the lane as part of an orderly Channel.Close. The closed
// sentinel keeps callers from retrying onto a fresh connection.
func (mc *muxConn) shutdown() {
	mc.fail(fmt.Errorf("remoting: %w", errChannelClosed))
}

// admit queues one exchange with of, its frame. It never blocks: the call
// either enters the in-flight table immediately (a slot was free and the
// queue empty) or waits in admitQ until pump admits it. An error return
// means the call was not submitted and c.to will never hear of it, the
// invariant callers rely on to finish the call some other way. c.to is told
// on the lane's reader goroutine (or a cancellation/failure path), never on
// the submitter's stack.
func (mc *muxConn) admit(c *CallRecord, of outFrame) error {
	mc.admitMu.Lock()
	if mc.admitClosed {
		mc.admitMu.Unlock()
		of.release(&mc.encs)
		return c.callErr(declined(mc.failureErr()))
	}
	if len(mc.admitQ) == 0 {
		// Nobody waits ahead of it: with a slot free the call starts at
		// once and the queue is never touched.
		select {
		case mc.slots <- struct{}{}:
			mc.start(c, of)
			mc.admitMu.Unlock()
			return nil
		default:
		}
	}
	mc.admitQ = append(mc.admitQ, queuedCall{c, of})
	mc.admitMu.Unlock()
	mc.pump()
	return nil
}

// pump moves queued calls into the in-flight table for as long as slots are
// free, without ever blocking: it runs on submitters and on whoever releases
// a slot (deliver, refuse).
func (mc *muxConn) pump() {
	for {
		select {
		case mc.slots <- struct{}{}:
		default:
			return
		}
		mc.admitMu.Lock()
		if len(mc.admitQ) == 0 || mc.admitClosed {
			mc.admitMu.Unlock()
			<-mc.slots
			return
		}
		q := mc.admitQ[0]
		mc.admitQ[0] = queuedCall{}
		mc.admitQ = mc.admitQ[1:]
		mc.start(q.c, q.of)
		mc.admitMu.Unlock()
	}
}

// start registers one admitted call (its slot is already held) and hands of,
// its frame, to the writer. A completion-driven call's context gets a hook
// that cancels the call when it ends; a blocking caller, and a fan-out round,
// watch their own (recWatched).
// Nothing here reads c once register took it: it may already be complete.
// It runs under admitMu, which fail takes before it closes the in-flight
// table, so a call admitted before the lane failed is registered and fail
// tells it.
func (mc *muxConn) start(c *CallRecord, of outFrame) {
	if err := c.cancelErr(); err != nil {
		c.refuse(of, err)
		return
	}
	c.stop = nil
	if c.ctx.Done() != nil && !c.has(recWatched) {
		c.stop = context.AfterFunc(c.ctx, c.Cancel)
	}
	if err := mc.register(c); err != nil {
		c.Unwatch()
		c.refuse(of, err)
		return
	}
	mc.enqueueFrame(of)
}

// submit sends c, which SetCall named and rearm numbered, and returns
// without waiting: on its object's lane (getMux), encoded against the
// lane's bind table, through the lane's admission queue. c.to receives the
// outcome, on the lane's reader goroutine for replies, exactly once, unless
// submit itself returns an error, in which case the call was never
// submitted and c.to hears nothing. A Turn is asked once the lane is looked
// up, and c's lane is set by then.
func (ch *Channel) submit(netaddr string, c *CallRecord) (err error) {
	ch.CountRecord(RecordDrawn)
	defer func() {
		if err != nil {
			ch.CountRecord(RecordReturned)
		}
	}()
	if err := c.ctx.Err(); err != nil {
		return c.callErr(err)
	}
	mc, err := ch.getMux(netaddr, c)
	if mc == nil {
		return err // nil when the failing lane holds c (park)
	}
	c.mc = mc
	if t, ok := c.to.(Turn); ok && !t.InTurn() {
		return errOutOfTurn
	}
	of, err := mc.encodeRequest(c)
	if err != nil {
		return err
	}
	return mc.admit(c, of)
}
