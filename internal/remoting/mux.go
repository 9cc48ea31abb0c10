package remoting

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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

// DefaultMuxLanes is the lane count used when Channel.MuxLanes is zero:
// one lane per processor up to four. A single-core process gets exactly
// the old single-connection behaviour; a many-core one spreads the objects
// of a peer across connections, so calls to unrelated objects never share a
// writer, a TCP stream, or an in-flight table.
func DefaultMuxLanes() int {
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

// CallRecord is the client's record of one exchange: the request, the ObjRef
// it goes to (which names the URI) and the Completer its outcome goes to.
// Every call is submitted one way (Channel.submit) and completed one way: the
// lane's reader takes the record out of the in-flight table first and decodes
// the reply into it second, so a reply is decoded once, where it is going,
// and tells to inline, handing over the result as it decoded it. A
// completion-driven call brings its own record, zero, as part of whatever
// the caller allocates for the call (SetCall, StartCall), so a future costs
// neither a goroutine while it waits nor an allocation of the connection's.
// A blocking call draws one its ObjRef keeps (or a pooled one when other
// calls have them), whose Completer is the record's own blockingWait, and
// parks on it. The connection holds the record from submission until to
// has been told. Either kind may carry the caller's typed slot (sink), which
// is offered the result before it is decoded as a value.
type CallRecord struct {
	req  request
	ref  *ObjRef
	sink ResultSink
	to   Completer

	// ctx bounds the call, as SetCall named it, and carries its deadline and
	// idempotency token. The call holds an in-flight slot of its lane mc
	// from admission until whoever delivers its outcome releases it. stop
	// detaches the one hook on ctx the call has at a time (Watch): the
	// connection's, which cancels the call, from admission until its outcome
	// is decided, or its caller's while the call waits to be submitted.
	mc   *muxConn
	ctx  context.Context
	stop func() bool

	// flags holds recCancelled, recBreaker, recTrial, recWatched and recLost.
	flags atomic.Uint32
}

const (
	// recCancelled: Cancel ran.
	recCancelled = 1 << iota
	// recBreaker: the channel's peer breaker admitted this submission, and
	// its outcome is evidence for it.
	recBreaker
	// recTrial: the peer breaker admitted this submission as its half-open
	// trial.
	recTrial
	// recWatched: the caller watches ctx itself (a blocking call), so
	// admission installs no context.AfterFunc hook.
	recWatched
	// recLost: a blocking call abandoned on ctx while the lane held its
	// record (the reader or fail had taken it, or it waits for admission).
	// The lane still completes it, so the record is never reused.
	recLost
)

func (c *CallRecord) has(flag uint32) bool { return c.flags.Load()&flag != 0 }
func (c *CallRecord) set(flag uint32)      { c.flags.Or(flag) }

// blockingWait is a blocking call's record, kept by its ObjRef or drawn from
// the pool of waits, and its Completer: the outcome lands in result and on rc
// (capacity 1, so the completion never blocks), where the caller parks
// (await).
type blockingWait struct {
	CallRecord
	rc     chan error
	result any
}

// Complete hands the parked caller its outcome.
func (w *blockingWait) Complete(v any, err error) {
	w.result = v
	w.rc <- err
}

// await parks the caller until its call completes or its context ends. A
// call whose context ended first is cancelled: taken out of the in-flight
// table, it completes at once with the context's error. If the lane still
// holds it, the caller leaves without it and the record is lost.
func (w *blockingWait) await() (any, error) {
	select {
	case err := <-w.rc:
		return w.result, err
	case <-w.ctx.Done():
	}
	w.Cancel()
	select {
	case err := <-w.rc:
		return w.result, err
	default:
		w.set(recLost)
		return nil, w.callErr(w.ctx.Err())
	}
}

// SetSink gives a completion-driven call a typed slot for its result, before
// the record is submitted; see ResultSink.
func (c *CallRecord) SetSink(s ResultSink) { c.sink = s }

// SetCall names the call the record is for, before it is submitted
// (StartCall): ctx bounds it, nil meaning background, and call, method and
// args are what InvokeNestedCtx takes. The record keeps them, and Call reads
// them back, after the call as before it.
func (c *CallRecord) SetCall(ctx context.Context, call, method string, args []any) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.ctx, c.req.called, c.req.Args = ctx, internCall(call, method), args
}

// Call returns what SetCall named.
func (c *CallRecord) Call() (ctx context.Context, call, method string, args []any) {
	return c.ctx, c.req.called.call, c.req.called.method, c.req.Args
}

// envelope is the request as its frame carries it: what SetCall named, to
// the ObjRef's URI, under the deadline and idempotency token of the call's
// context, read at each encoding. A resend or a retry keeps the context, so
// its frame carries the same.
func (c *CallRecord) envelope() callRequest {
	req := callRequest{URI: c.ref.uri, Call: c.req.called.call, Method: c.req.called.method, Seq: c.req.Seq, Args: c.req.Args}
	if dl, ok := c.ctx.Deadline(); ok {
		req.Deadline = dl.UnixNano()
	}
	if tok, ok := TokenFromContext(c.ctx); ok {
		req.TokClient, req.TokSeq = tok.Client, tok.Seq
	}
	return req
}

// Context returns the ctx SetCall named.
func (c *CallRecord) Context() context.Context { return c.ctx }

// Sink returns the sink SetSink gave the call, nil if none.
func (c *CallRecord) Sink() ResultSink { return c.sink }

// Watch gives the call stop, the detach of the hook its caller put on the
// call's context while the call waits to be submitted (in a queue, in a
// mailbox), and Unwatch runs it. The caller unwatches before it submits the
// call: from admission on, the connection keeps its own hook in the same
// place.
func (c *CallRecord) Watch(stop func() bool) { c.stop = stop }

// Unwatch detaches the call's hook on its context, if it has one.
func (c *CallRecord) Unwatch() {
	if c.stop != nil {
		c.stop()
	}
}

// Completer is the caller's end of a call: Complete receives the normalized
// outcome exactly once, on the completion path (the lane's reader goroutine
// for replies), never on the submitter's stack. An interface, so that a
// caller with a record of the call hands that over and allocates nothing;
// CompletionFunc adapts a function.
type Completer interface{ Complete(v any, err error) }

type CompletionFunc func(any, error)

func (f CompletionFunc) Complete(v any, err error) { f(v, err) }

// Turn is a Completer that orders its calls itself. A submission asks it,
// once the lane the call goes out on has been looked up and before the call
// is admitted there, whether the call is still in its turn; one that is not
// is declined (errOutOfTurn). A lane that fails tells its calls before it
// leaves the channel's table (fail), so a caller whose earlier calls the
// failure sends back to be re-run hears of it before a later call can meet
// the lane dialled in the failed one's place.
type Turn interface{ InTurn() bool }

// errOutOfTurn declines a submission its Turn withdrew.
var errOutOfTurn = errors.New("remoting: call declined out of its caller's turn")

// waits is the kind of the blocking calls' records, which ObjRefs keep
// (ObjRef.kept). A record goes back only when its channel is known empty and
// the lane no longer holds it (blockingWait.settle), emptied, so it pins
// neither arguments, result nor sink, and ready as its own Completer.
var waits = keep.NewKind(func(w *blockingWait) bool {
	rc := w.rc
	if rc == nil {
		rc = make(chan error, 1)
	}
	*w = blockingWait{rc: rc}
	w.to = w
	w.set(recWatched)
	return true
})

// recordAudit, when a test installs one, counts the call records of both
// ends (CallRecord here, serverCall in server.go) as they are drawn from a
// pool or lent to a connection (Channel.submit), returned, and let go on
// purpose; drawn must equal the other two once everything is closed. Nothing
// installs or reads it in production.
var recordAudit atomic.Pointer[[3]atomic.Int64]

const (
	recordDrawn = iota
	recordReturned
	recordDropped
)

func countRecord(event int) {
	if a := recordAudit.Load(); a != nil {
		a[event].Add(1)
	}
}

// AuditRecords installs a fresh record audit, for a test of a package that
// calls through this one, and returns its check: it waits up to 10 s for
// every record either end drew since to have gone back or been let go, and
// uninstalls the audit. Install it before the calls it audits start, and
// check once everything they used is closed.
func AuditRecords() (check func() error) {
	a := new([3]atomic.Int64)
	recordAudit.Store(a)
	return func() error {
		defer recordAudit.CompareAndSwap(a, nil)
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			drawn, returned, dropped := a[recordDrawn].Load(), a[recordReturned].Load(), a[recordDropped].Load()
			if drawn == returned+dropped {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("call records drawn %d, returned %d, let go %d", drawn, returned, dropped)
			}
		}
	}
}

// settle gives a blocking call's record back to r, on its caller's
// goroutine, or leaves it to the GC when it was lost.
func (w *blockingWait) settle(r *ObjRef) {
	if w.has(recLost) {
		countRecord(recordDropped)
		return
	}
	countRecord(recordReturned)
	r.kept.Put(waits, w)
}

// deliver hands the exchange its outcome: err when no reply came, nil when
// one did, with the result as the reader decoded it (result, or replyErr, the
// *RemoteError an error reply stands for). The call detaches its hook and
// returns its slot first, admitting queued calls, so a slow continuation
// cannot idle the pipe.
func (c *CallRecord) deliver(result any, replyErr, err error) {
	c.Unwatch()
	<-c.mc.slots
	c.mc.pump()
	c.complete(result, replyErr, err)
}

// complete reports the outcome of one submission, exactly once: the breaker's
// evidence (a reply, whatever it says, is the peer answering), then to. The
// record is the caller's again before to hears: nothing here touches it
// afterwards.
func (c *CallRecord) complete(result any, replyErr, err error) {
	if err != nil {
		err = c.callErr(err)
	}
	if c.has(recBreaker) {
		c.ref.ch.breakers().settle(c.ctx, c.mc.netaddr, c.has(recTrial), err)
	}
	if err == nil {
		err = replyErr
	}
	countRecord(recordReturned)
	c.to.Complete(result, err)
}

// abort fails a call its lane took down with it, from fail or from the
// reader whose decode of its reply failed. No slot bookkeeping post-mortem:
// done is closed, so nothing waits on slots anymore.
func (c *CallRecord) abort(err error) {
	c.Unwatch()
	c.complete(nil, nil, err)
}

// readReply decodes the body of the compact reply to c, which the reader
// has just taken, where it is going: the result into c's sink, or as a
// value, and an error reply into the *RemoteError it completes with.
func (c *CallRecord) readReply(d *wire.Decoder, flags byte) (result any, replyErr, err error) {
	if flags&flagReplyErr == 0 {
		result, err = decodeReplyBody(d, flags, nil, c.sink)
		return result, nil, err
	}
	// No envelope of its own: an error reply is worth one on the stack.
	var resp callResponse
	if _, err = decodeReplyBody(d, flags, &resp, nil); err == nil {
		replyErr = c.ref.remoteError(c.req.name(), &resp)
	}
	return nil, replyErr, err
}

// Cancel abandons the call, for its caller or as the hook on the caller's
// context: the slot is released, the lane stays up and the reader drops the
// late reply. A call not admitted yet is refused when pump reaches it.
func (c *CallRecord) Cancel() {
	c.set(recCancelled)
	if c.mc.take(c.req.Seq) != nil {
		c.deliver(nil, nil, c.cancelErr())
	}
}

// cancelErr is why the call stopped being wanted, nil while it is: its
// context's error, or context.Canceled once Cancel ran.
func (c *CallRecord) cancelErr() error {
	if err := c.ctx.Err(); err != nil || !c.has(recCancelled) {
		return err
	}
	return context.Canceled
}

// callErr annotates a connection- or context-level failure with the call it
// aborted.
func (c *CallRecord) callErr(err error) error {
	return fmt.Errorf("remoting: call %s.%s: %w", c.ref.uri, c.req.name(), err)
}

// refuse fails a call pump admitted but could not start, of being its frame.
// Its slot and the frame's encoder go back and the queue is pumped again,
// and the call completes, on a fresh goroutine: pump may be on the
// submitter's or the reader's stack, and a callback chain that posts
// follow-up calls must not recurse into it.
func (c *CallRecord) refuse(of outFrame, err error) {
	<-c.mc.slots
	of.release(&c.mc.encs)
	go func() {
		c.mc.pump()
		c.complete(nil, nil, err)
	}()
}

// bindShardCount stripes the client bind table by the hash of its key.
// Binding is cold-path (first call per triple), but the handle lookup on
// every call shares the stripes' read locks, so they must not funnel
// through one RWMutex.
const bindShardCount = 8

type bindShard struct {
	mu sync.RWMutex
	m  map[bindKey]*clientBind
}

// hash is FNV-1a over uri, '.', call, '.', method — cheap, and uniform
// enough for eight stripes.
func (k *bindKey) hash() uint32 {
	h := uint32(2166136261)
	for _, s := range [...]string{k.uri, k.call, k.method} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint32(s[i])) * 16777619
		}
		h = (h ^ uint32('.')) * 16777619
	}
	return h
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

// bindKey identifies one bindable (URI, call, method) triple.
type bindKey struct {
	uri, call, method string
}

// clientBind tracks one handle. confirmed flips once a frame declaring it
// has entered the lane's outbound queue; from then on calls for the triple
// send the bare call frame.
type clientBind struct {
	handle    uint32
	confirmed atomic.Bool
}

// unboundSentinel is the entry of every triple that found the lane's
// handles spent: handle 0, never confirmed (it declares nothing), so every
// call of the triple declares itself and is dispatched by URI.
var unboundSentinel = &clientBind{}

// bindFor returns the bind entry for req's triple, giving it a fresh dense
// handle on first use, or the sentinel once the lane's handles are spent.
// Either is stored, so the triple's later calls find it under the read lock.
func (mc *muxConn) bindFor(req *callRequest) *clientBind {
	k := bindKey{uri: req.URI, call: req.Call, method: req.Method}
	sh := &mc.bindShards[k.hash()&(bindShardCount-1)]
	sh.mu.RLock()
	cb := sh.m[k]
	sh.mu.RUnlock()
	if cb != nil {
		return cb
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if cb := sh.m[k]; cb != nil {
		return cb
	}
	cb = unboundSentinel
	for h := mc.handles.Load(); h < maxBindHandles; h = mc.handles.Load() {
		if mc.handles.CompareAndSwap(h, h+1) {
			cb = &clientBind{handle: h + 1}
			break
		}
	}
	if sh.m == nil {
		sh.m = make(map[bindKey]*clientBind)
	}
	sh.m[k] = cb
	return cb
}

// encodeRequest produces the frame for c's request on this lane: the bare
// call once a frame declaring the triple's handle has been queued
// (enqueueFrame), the declaring call until then. The frame's encoder is one
// of the lane's (mc.encs), and goes back there.
func (mc *muxConn) encodeRequest(c *CallRecord) (outFrame, error) {
	req := c.envelope()
	cb := mc.bindFor(&req)
	declare := !cb.confirmed.Load()
	_, enc, err := encodeBoundCall(&mc.encs, cb.handle, declare, &req)
	if err != nil {
		return outFrame{}, err
	}
	countEncoder(encoderDrawn)
	of := outFrame{enc: enc}
	if declare && cb.handle != 0 {
		of.declares = cb
	}
	return of, nil
}

// outFrame is one queued frame, a request on a lane or a reply on a server
// connection. Its bytes are enc's, an encoder of the lane's or the
// connection's (their encs): whoever consumes the frame (normally the writer
// or the flusher, after the bytes hit the wire) gives it back there; nil for
// a frame that failed to encode. Frames stranded in outQ when a lane fails
// are simply collected by the GC with the lane. declares is the handle the
// frame declares, nil for a bare frame, for handle 0 and for a reply.
type outFrame struct {
	enc      *wire.Encoder
	declares *clientBind
}

// release gives the frame's encoder back to encs, its owner's.
func (of outFrame) release(encs *keep.Store[wire.Encoder]) {
	if of.enc != nil {
		countEncoder(encoderReturned)
		encs.Put(wire.Encoders, of.enc)
	}
}

// encoderAudit is frameAudit for the encoders a frame is written in: when a
// test installs one, a lane (encodeRequest) and a server connection
// (respond) count each encoder they draw for a frame, and outFrame.release
// each one given back; drawn must equal returned once everything is closed.
// A frame a lane queued after its writer left is collected with the lane,
// uncounted. Nothing installs or reads it in production.
var encoderAudit atomic.Pointer[[2]atomic.Int64]

const (
	encoderDrawn = iota
	encoderReturned
)

func countEncoder(event int) {
	if a := encoderAudit.Load(); a != nil {
		a[event].Add(1)
	}
}

// errChannelClosed terminates in-flight calls when Channel.Close shuts a
// lane down. It wraps ErrNodeDown for callers' errors.Is chains, but
// neither a blocking call's resend (ObjRef.attempt) nor the retry policy
// (Retryable) sends a call again after it: that would re-create the very
// connection Close just released.
var errChannelClosed = fmt.Errorf("channel closed: %w", errs.ErrNodeDown)

// getMux returns the live multiplexed lane for (netaddr, lane), dialling
// one when absent or when the previous one failed. The channel-wide lock
// is held only for the map access: the dial itself runs outside it (a slow
// or blackholed peer must not stall calls to healthy peers, nor Close),
// with concurrent callers for the same lane waiting on the ready channel
// of whichever caller dialled. fresh reports whether this call dialled,
// whether or not the dial succeeded — a failure on a fresh connection is a
// real peer failure, not staleness, so the caller must not retry it.
//
// A lane that is failing stays in the table until fail has told every call
// it held, so no lane is dialled in its place before then: a caller that
// waits (a blocking call, which fail never runs) waits for that, and any
// other is declined with the lane's failure, to be sent again behind the
// calls the failure reports. fail runs completions, which may submit, so
// nothing fail runs may wait for it.
func (ch *Channel) getMux(netaddr string, lane int, waits bool) (mc *muxConn, fresh bool, err error) {
	key := muxKey{netaddr: netaddr, lane: lane}
	for {
		ch.muxMu.Lock()
		existing := ch.muxPeers[key]
		if existing == nil {
			limit := ch.MaxInFlight
			if limit <= 0 {
				limit = DefaultMaxInFlight
			}
			mc = &muxConn{
				ch:      ch,
				netaddr: netaddr,
				lane:    lane,
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
			if err := mc.dial(); err != nil {
				ch.removeMux(mc)
				return nil, true, err
			}
			return mc, true, nil
		}
		ch.muxMu.Unlock()
		<-existing.ready
		existing.mu.Lock()
		dialled, failed := existing.dialErr == nil, existing.failed
		existing.mu.Unlock()
		switch {
		case dialled && !failed:
			return existing, false, nil
		case dialled && !waits:
			return nil, false, existing.failureErr()
		case dialled:
			<-existing.drained
		}
		// Dead entry: forget it and race to install a fresh one.
		ch.removeMux(existing)
	}
}

// dial connects the lane and starts its writer/reader. It runs outside the
// channel lock; concurrent callers wait on ready. A shutdown that raced
// the dial (Channel.Close between map insert and connect) wins: the fresh
// connection is discarded.
func (mc *muxConn) dial() error {
	// Channel.dial applies the per-peer shared dial backoff, so a dead
	// peer's lanes collapse into one capped, jittered probe schedule
	// instead of a redial storm.
	c, err := mc.ch.dial(mc.netaddr)
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
		audit := countFrame()
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
// peer table, so the next call dials afresh, and lets go the callers that
// wait for that (getMux).
func (mc *muxConn) release() {
	if mc.holders.Add(-1) == 0 {
		mc.ch.removeMux(mc)
		close(mc.drained)
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
		return c.callErr(mc.failureErr())
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
// that cancels the call when it ends; a blocking caller watches its own.
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

// laneForURI is the one lane rule: calls are striped by destination object.
// Every call to one object rides one lane, blocking or completion-driven, so
// a scatter round's frames to that object coalesce into the lane writer's
// batched wire writes, and per-object send order falls out of the single
// ordered outbound queue.
func (ch *Channel) laneForURI(uri string) int {
	n := ch.laneCount()
	if n <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(uri); i++ {
		h = (h ^ uint32(uri[i])) * 16777619
	}
	return int(h % uint32(n))
}

// submit sends c, which SetCall named and ObjRef.address completed, and
// returns without waiting: behind the peer's circuit breaker (when the retry
// policy arms one), on its object's lane, encoded against the lane's bind
// table, through the lane's admission queue. c.to receives the outcome, on
// the lane's reader goroutine for replies, exactly once, unless submit
// itself returns an error, in which case the call was never submitted and
// c.to hears nothing. fresh reports that the lane was dialled for this call.
//
// The breaker's evidence is recorded once per submission, when the outcome
// is known (CallRecord.complete), or here when submission failed.
func (ch *Channel) submit(netaddr string, c *CallRecord) (fresh bool, err error) {
	countRecord(recordDrawn)
	defer func() {
		if err != nil {
			countRecord(recordReturned)
		}
	}()
	if err := c.ctx.Err(); err != nil {
		return false, c.callErr(err)
	}
	if bs := ch.breakers(); bs != nil && !breakerBypassed(c.ctx) {
		// A bypassed call records no evidence either: its outcome must not
		// consume a half-open trial slot or re-trip a breaker it never
		// consulted.
		trial, berr := bs.allow(netaddr)
		if berr != nil {
			return false, c.callErr(berr)
		}
		c.set(recBreaker)
		if trial {
			c.set(recTrial)
		}
	}
	mc, fresh, err := ch.getMux(netaddr, ch.laneForURI(c.ref.uri), c.has(recWatched))
	if t, ok := c.to.(Turn); ok && err == nil && !t.InTurn() {
		err = errOutOfTurn
	}
	if err == nil {
		var of outFrame
		if of, err = mc.encodeRequest(c); err == nil {
			c.mc = mc
			err = mc.admit(c, of)
		}
	}
	if err != nil && c.has(recBreaker) {
		ch.breakers().settle(c.ctx, netaddr, c.has(recTrial), err)
	}
	return fresh, err
}
