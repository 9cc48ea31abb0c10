package remoting

// This file holds CallRecord, the client's record of one call.

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/keep"
	"repro/internal/wire"
)

// CallRecord is the client's record of one exchange: the request, the ObjRef
// it goes to (which names the URI) and the Completer its outcome goes to.
// Every call is submitted one way (Channel.submit) and completed one way: the
// lane's reader takes the record out of the in-flight table first and decodes
// the reply into it second, so a reply is decoded once, where it is going,
// and tells to inline, handing over the result as it decoded it.
//
// A record has one lifetime rule, whoever owns it: it is drawn from its
// owner's store and goes back there when the lane and every hook on its
// context are done with it, or else to the GC. A bare ObjRef's blocking call
// draws one its ObjRef keeps (ObjRef.kept, or a pooled one when other calls
// have them), whose Completer is the record's own blockingWait, parks on it,
// and gives it back unless it abandoned it while the lane held it (recLost).
// A completion-driven call's record is the caller's (SetCall, SetCompleter,
// StartCall): core's calls, blocking and asynchronous, draw theirs, inside
// the attempt that is its Completer, from their proxy's store, submit it
// again as their rule says, and give it back from the completion that
// resolved the call's future, once a hook on the context could be detached
// (Unwatch; Lost when it could not). The connection holds the record from
// submission until to has been told, and touches nothing of it afterwards
// (complete). A completion-driven record may carry the caller's typed slot,
// which is offered the result before it is decoded as a value: the
// Completer is the call's slot when it is a ResultSink, as core's attempt
// is, forwarding to its caller's.
type CallRecord struct {
	req request
	ref *ObjRef
	to  Completer

	// ctx bounds the call, as SetCall named it, and carries its deadline and
	// idempotency token. The call holds an in-flight slot of its lane mc
	// from admission until whoever delivers its outcome releases it. stop
	// detaches the one hook on ctx the call has at a time (Watch): the
	// connection's, which cancels the call, from admission until its outcome
	// is decided, or its caller's while the call waits to be submitted.
	mc   *muxConn
	ctx  context.Context
	stop func() bool

	// flags holds recCancelled, recWatched and recLost.
	flags atomic.Uint32
}

const (
	// recCancelled: Cancel ran.
	recCancelled = 1 << iota
	// recWatched: the caller watches ctx itself (a blocking call, a fan-out
	// round), so admission installs no context.AfterFunc hook.
	recWatched
	// recLost: someone besides the record's owner may still reach it, so
	// it is never reused: a blocking call was abandoned on ctx while the
	// lane held its record (the reader or fail had taken it, or it waits for
	// admission), and the lane still completes it; or a hook on the call's
	// context had fired when it was detached (Unwatch), and may still be
	// cancelling the call.
	recLost
)

func (c *CallRecord) has(flag uint32) bool { return c.flags.Load()&flag != 0 }
func (c *CallRecord) set(flag uint32)      { c.flags.Or(flag) }

// blockingWait is a bare ObjRef's blocking call's record, kept by its ObjRef
// or drawn from the pool of waits, and its Completer: the outcome lands in
// result and on rc (capacity 1, so the completion never blocks), where the
// caller parks (await).
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

// SetCompleter names to, the call's Completer, before the record is
// submitted (StartCall). When to is a ResultSink, it is the call's typed slot
// too: a reply whose result it takes is decoded into it, and to hears itself
// as the value.
func (c *CallRecord) SetCompleter(to Completer) { c.to = to }

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

// NetAddr returns the address of the host the record was last submitted to
// (StartCall).
func (c *CallRecord) NetAddr() string { return c.ref.netaddr }

// Watch gives the call stop, the detach of the hook its caller put on the
// call's context while the call waits to be submitted (in a queue, in a
// mailbox), and Unwatch runs it. The caller unwatches before it submits the
// call: from admission on, the connection keeps its own hook in the same
// place.
func (c *CallRecord) Watch(stop func() bool) { c.stop = stop }

// CallerWatches tells the record, before it is submitted, that its caller
// cancels it when its context ends, so admission puts no hook on the context:
// a fan-out round watches its one deadline for all its calls.
func (c *CallRecord) CallerWatches() { c.set(recWatched) }

// Unwatch detaches the call's hook on its context, if it has one. A hook
// that had fired already may still be running: the record is lost (Lost).
func (c *CallRecord) Unwatch() {
	if stop := c.stop; stop != nil {
		c.stop = nil
		if !stop() {
			c.set(recLost)
		}
	}
}

// Lost reports that someone besides the record's owner may still reach it,
// so it must not be reused: a hook on its context had fired when it was
// detached (Unwatch).
func (c *CallRecord) Lost() bool { return c.has(recLost) }

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
// the lane dialled in the failed one's place. A call that meets its lane
// failing is held by it (park) and told it was declined only once the lane
// has left the table; Held tells the Turn so at once, on the submitter's
// stack, so that it keeps later calls from passing the held one.
type Turn interface {
	InTurn() bool
	Held()
}

// errOutOfTurn declines a submission its Turn withdrew (Declined).
var errOutOfTurn = fmt.Errorf("%w out of its caller's turn", errDeclined)

// waits is the kind of the blocking calls' records, which ObjRefs keep
// (ObjRef.kept). A record goes back only when its channel is known empty and
// the lane no longer holds it (blockingWait.settle), emptied, so it pins
// neither arguments nor result, and ready as its own Completer.
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

// recordAudit, when a test installs one (AuditRecords), is the record audit
// of the channels made from then on (NewMultiplexedChannel). A channel's
// audit (Channel.records) counts the call records of both ends
// (CallRecord here, serverCall in server.go, and the records a caller of
// this package keeps of its own, as core's asynchronous calls' attempts) as
// they are drawn from a pool or a store or lent to a connection
// (Channel.submit), returned, and let go on purpose; drawn must equal the
// other two once everything is closed. A record of a channel made before the
// audit, given back by a goroutine that outlived an earlier test, is not
// counted by it. Nothing installs or reads it in production.
var recordAudit atomic.Pointer[recordCounts]

type recordCounts [3]atomic.Int64

// The events of the record audit (Channel.CountRecord).
const (
	RecordDrawn = iota
	RecordReturned
	RecordDropped
)

// add counts event; on a nil audit it does nothing.
func (a *recordCounts) add(event int) {
	if a != nil {
		a[event].Add(1)
	}
}

// CountRecord counts event, one of RecordDrawn, RecordReturned and
// RecordDropped, in ch's record audit, if a test installed one.
func (ch *Channel) CountRecord(event int) { ch.records.add(event) }

// AuditRecords installs a fresh record audit, for a test of a package that
// calls through this one, and returns its check: it waits up to 10 s for
// every record counted as drawn to have gone back or been let go, and
// uninstalls the audit. It counts the records of the channels made while it
// is installed, so install it before the test makes its nodes, and check
// once the calls it audits are over.
func AuditRecords() (check func() error) {
	a := new(recordCounts)
	recordAudit.Store(a)
	return func() error {
		defer recordAudit.CompareAndSwap(a, nil)
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			drawn, returned, dropped := a[RecordDrawn].Load(), a[RecordReturned].Load(), a[RecordDropped].Load()
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
		r.ch.CountRecord(RecordDropped)
		return
	}
	r.ch.CountRecord(RecordReturned)
	r.kept.Put(waits, w)
}

// deliver hands the exchange its outcome: err when no reply came, nil when
// one did, with the result as the reader decoded it (result, or replyErr, the
// *remoteError an error reply stands for). The call detaches its hook and
// returns its slot first, admitting queued calls, so a slow continuation
// cannot idle the pipe.
func (c *CallRecord) deliver(result any, replyErr, err error) {
	c.Unwatch()
	<-c.mc.slots
	c.mc.pump()
	c.complete(result, replyErr, err)
}

// complete reports the outcome of one submission to to, exactly once. The
// record is the caller's again before to hears: nothing here touches it
// afterwards.
func (c *CallRecord) complete(result any, replyErr, err error) {
	if err != nil {
		err = c.callErr(err)
	}
	if err == nil {
		err = replyErr
	}
	c.ref.ch.CountRecord(RecordReturned)
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
// value, and an error reply into the *remoteError it completes with.
func (c *CallRecord) readReply(d *wire.Decoder, flags byte) (result any, replyErr, err error) {
	if flags&flagReplyErr == 0 {
		sink, _ := c.to.(ResultSink)
		result, err = decodeReplyBody(d, flags, nil, sink)
		return result, nil, err
	}
	// No envelope of its own: an error reply is worth one on the stack.
	var resp callResponse
	if _, err = decodeReplyBody(d, flags, &resp, nil); err == nil {
		replyErr = c.ref.replyError(c.req.name(), &resp)
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
