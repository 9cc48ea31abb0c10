package core

// This file holds a proxy's asynchronous calls and the attempts they make.

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/errs"
	"repro/internal/keep"
	"repro/internal/remoting"
	"repro/internal/wire"
)

// InvokeAsync starts a synchronous-style call without blocking the caller
// (the delegate BeginInvoke pattern of Fig. 4). The call is ordered after
// the calls issued before it on this proxy.
func (p *Proxy) InvokeAsync(method string, args ...any) *Future {
	return p.InvokeAsyncCtx(context.Background(), method, args...)
}

// InvokeAsyncCtx is InvokeAsync bounded by ctx; the returned Future
// resolves to ctx.Err() when ctx ends before the call completes, and to
// context.Canceled when it is cancelled (Future.Cancel). ctx is used as it
// is: no context is derived per call, and one that can never end costs the
// call nothing.
//
// No goroutine parks per outstanding call, in any mode. A local active
// object takes the task into its mailbox and its actor loop resolves the
// Future. An agglomerated object executes the call here, in the caller, as
// it does every call, and the Future comes back resolved. A remote call
// either goes straight to its connection, encoded and enqueued, and the
// lane's reader resolves the Future when the reply frame arrives, or waits
// its turn in the proxy's queue (see callOrder).
func (p *Proxy) InvokeAsyncCtx(ctx context.Context, method string, args ...any) *Future {
	return p.StartAsync(ctx, new(AsyncCall), nil, method, args)
}

// StartAsync is InvokeAsyncCtx in storage the caller supplies: c, zero,
// holds what outlives the call, its Future, and sink, when not nil, is the
// typed slot its outcome settles in, so a caller that allocates them inside
// its own record of the call, or a wave of them as one slab, pays nothing
// more. What serves only the exchange, the attempt with the connection's
// record of it, is drawn from the proxy's store (Proxy.tries) and goes back
// there when the lane and every hook on the call's context are done with
// it, or else to the GC (attempt.release). A failed remote call goes again
// as the proxy's one rule says (attempt.again). The Future returned lives
// in c; c serves this one call.
func (p *Proxy) StartAsync(ctx context.Context, c Async, sink Sink, method string, args []any) *Future {
	p.rt.syncCalls.Add(1)
	if ctx == nil {
		ctx = context.Background()
	}
	f := &c.asyncCall().fut
	mode, act := p.state()
	if mode == modeAgglomerated {
		v, err := p.invokeInCaller(ctx, method, args)
		f.complete(settle(sink, v, err))
		return f
	}
	a := p.draw(f, sink)
	a.rec.SetCall(ctx, "Invoke1", method, args)
	if mode == modeLocalActive {
		a.submitLocal(act)
	} else {
		a.submitRemote()
	}
	return f
}

// StartNext is StartAsync for the call a Chain waited to start in c, with
// the value its predecessor resolved with among args: the call starts unless
// c's future was cancelled while the chain waited.
func (p *Proxy) StartNext(ctx context.Context, c Async, sink Sink, method string, args []any) {
	if c.asyncCall().fut.begin() {
		p.StartAsync(ctx, c, sink, method, args)
	}
}

// Async is the storage an asynchronous call is made in (StartAsync): an
// *AsyncCall, or a record of the caller's that embeds one.
type Async interface{ asyncCall() *AsyncCall }

// AsyncCall is what of an asynchronous call outlives it: the Future handed
// back. The attempt the call is made with, and the connection's record in
// it, are the proxy's, drawn from its store for the exchange and back there
// when the lane and every hook are done with them, or else the GC's. The
// zero value is ready for StartAsync.
type AsyncCall struct{ fut Future }

// asyncCall makes an AsyncCall, and every record that embeds one, an Async.
func (c *AsyncCall) asyncCall() *AsyncCall { return c }

// Sink is the typed slot an asynchronous call's result settles in, once,
// before its Future resolves; the caller hands it to StartAsync beside the
// Async the call is made in. A reply whose result is exactly what the sink
// takes is decoded into it on the connection (remoting.ResultSink), and the
// call finishes with the sink itself as its value; that value, or any other
// the call finishes with (from a local or agglomerated object, or a reply of
// another type), is handed to Settle on the completion path, which returns
// what the Future resolves with, or the call's error.
type Sink interface {
	remoting.ResultSink
	Settle(v any) (any, error)
}

// settle is the outcome a future resolves with: a value the call finished
// with, settled by the call's sink s. A call without a sink, or one that
// failed, resolves with its outcome as it is.
func settle(s Sink, v any, err error) (any, error) {
	if s != nil && err == nil {
		return s.Settle(v)
	}
	return v, err
}

// attempt is what serves one call of a proxy while it is in flight: a remote
// call, blocking or asynchronous, a post or a batch, which its proxy's
// callOrder counts, queues and sends again (again), or an asynchronous
// call's task in a local object's mailbox. rec is the connection's record of
// each submission and the call's one record of what it is (SetCall, read
// back by every way the call can go), and holds the hook on the call's
// context while it waits (remoting.CallRecord.Watch). The attempt is rec's
// Completer, Turn and ResultSink, forwarding to sink, its owner's typed slot.
// fut is the future the call resolves: the Async an asynchronous call was
// started in or a blocking call's waiter, nil for a post. issue is the
// call's place in the issue order, next links it into the queue or the
// re-runs. followed, retries and spent are what the call has had of the
// rule: the generation of the last forward followed, the backoffs waited
// out, the one stale-lane resend and the one re-resolve. blocking says a
// caller waits for the call, om that it goes to its host's object manager,
// held that a failing lane holds it (Held).
//
// An attempt is drawn from its proxy's store (draw) and goes back there only
// from the completion that resolved its future, once the lane and every hook
// on its context are done with it (release); otherwise the GC takes it.
type attempt struct {
	p        *Proxy
	next     *attempt
	issue    uint64
	fut      *Future
	sink     remoting.ResultSink
	rec      remoting.CallRecord
	followed uint64
	retries  uint32
	spent    uint8
	blocking bool
	om       bool
	held     bool
}

// The steps of the rule a call has once, in attempt.spent.
const (
	spentResend  = 1 << iota // the stale-lane resend
	spentResolve             // the re-resolve through the peers
)

// attempts is the kind of the calls' attempts, which proxies keep
// (Proxy.tries): one goes back emptied, so it pins neither arguments nor its
// owner, and ready as its record's Completer. While a test poisons attempts
// (attemptPoison; nothing sets it in production), one that goes back holds,
// until it is drawn again, a typed slot that panics when it is used: a party
// that still holds it fails loudly rather than reading or writing another
// call's.
var attempts = keep.NewKind(func(a *attempt) bool {
	*a = attempt{}
	a.rec.SetCompleter(a)
	if attemptPoison.Load() {
		a.sink = poisonSink{}
	}
	return true
})

var attemptPoison atomic.Bool

// poisonSink is the typed slot of an attempt in its store while attempts
// are poisoned.
type poisonSink struct{}

func (poisonSink) DecodeResult(*wire.Decoder) bool { panic(errPoisoned) }
func (poisonSink) Settle(any) (any, error)         { panic(errPoisoned) }

var errPoisoned = errors.New("core: an attempt used after it went back to its store")

// draw takes an attempt from p's store for a call whose future and typed
// slot are fut and sink, nil for a post.
func (p *Proxy) draw(fut *Future, sink remoting.ResultSink) *attempt {
	p.rt.cfg.Channel.CountRecord(remoting.RecordDrawn)
	a := p.tries.Get(attempts)
	a.p, a.fut, a.sink = p, fut, sink
	return a
}

// release ends a's part in its call: back to its proxy's store when free
// (nothing but a's own completion path can still reach it) and no hook on
// the call's context outlived its detach (remoting.CallRecord.Lost), to the
// GC otherwise.
func (a *attempt) release(free bool) {
	ch := a.p.rt.cfg.Channel
	if !free || a.rec.Lost() {
		ch.CountRecord(remoting.RecordDropped)
		return
	}
	ch.CountRecord(remoting.RecordReturned)
	a.p.tries.Put(attempts, a)
}

// DecodeResult is remoting.ResultSink: the reply's result goes into the
// owner's typed slot, when it has one, and the call finishes with a itself
// as its value (settle reads it as the slot).
func (a *attempt) DecodeResult(d *wire.Decoder) bool {
	return a.sink != nil && a.sink.DecodeResult(d)
}

// settle is the outcome a's future resolves with: a reply decoded into the
// owner's slot finished with a as its value; an asynchronous call's value is
// settled in its Sink, a blocking call's caller converts its own.
func (a *attempt) settle(v any, err error) (any, error) {
	if v == any(a) {
		v = a.sink
	}
	if a.blocking {
		return v, err
	}
	s, _ := a.sink.(Sink)
	return settle(s, v, err)
}

// resolve resolves a's future with the outcome and reports whether a is free
// of its call: this resolved the future, so no Cancel, hook or waiter reached
// the record through it (a future is handed the record before the call can
// complete: InTurn).
func (a *attempt) resolve(v any, err error) bool {
	v, err = a.settle(v, err)
	won, _ := a.fut.completeAt(v, err, 0)
	return won
}

// submitLocal enqueues the call on the hosting actor's mailbox, whose
// outcome a hears (mailboxTask). A task whose Future is resolved when its
// turn comes is skipped.
func (a *attempt) submitLocal(act *actor) {
	ctx, _, method, args := a.rec.Call()
	a.rec.Watch(cancelHook(ctx, a.fut))
	err := act.enqueue(actorTask{ctx: ctx, method: method, args: args, fut: a.fut, to: (*mailboxTask)(a)})
	if err == nil {
		return
	}
	a.fromMailbox(nil, err)
}

// mailboxTask is an attempt as a mailbox holds it: the task's outcome is
// the call's.
type mailboxTask attempt

// Complete hears the task's outcome, on the actor loop or on whoever turned
// the task away.
func (t *mailboxTask) Complete(v any, err error) { (*attempt)(t).fromMailbox(v, err) }

// fromMailbox hears the outcome of a's task.
func (a *attempt) fromMailbox(v any, err error) {
	a.rec.Unwatch()
	if mv, ok := movedOf(err, a.p.uri); ok {
		// The object was taken from this node with the call still queued or
		// held, or before the task entered the mailbox: follow it, in the
		// proxy's call order, ahead of the calls issued after this one.
		a.p.redirectMoved(mv)
		a.submitRemote()
		return
	}
	a.release(a.resolve(v, err))
}

// submitRemote issues the call in the proxy's call order: straight to its
// connection, where calls to one object pipeline, or into the queue.
func (a *attempt) submitRemote() {
	if ref := a.target(); a.p.calls.admit(a, ref) {
		a.start(ref)
	}
}

// target is where a goes: its object's endpoint, or for om the object
// manager of the host the proxy routes at.
func (a *attempt) target() *remoting.ObjRef {
	if a.om {
		return a.p.omRef()
	}
	return a.p.endpoint()
}

// cancelHook resolves f with ctx.Err() as soon as ctx ends, for a call that
// waits in a mailbox, in its proxy's queue or to be sent again, and cancels
// what f had to abandon (a backoff). stop detaches it; nil for a ctx that
// never ends.
func cancelHook(ctx context.Context, f *Future) (stop func() bool) {
	if ctx.Done() == nil {
		return nil
	}
	return context.AfterFunc(ctx, func() {
		if won, abort := f.completeAt(nil, ctx.Err(), 0); won && abort != nil {
			abort.Cancel()
		}
	})
}

// start submits the attempt to ref without waiting. The outcome is reported
// (Complete) exactly once, on the completion path, or here for a submission
// the connection declines. The idempotency token is stamped into the
// record's context before the first submission, so every later one sends it
// again. Once submitted, the call may finish at any moment: start reads
// nothing of a after that.
func (a *attempt) start(ref *remoting.ObjRef) {
	ctx, call, method, args := a.rec.Call()
	if ctx, stamped := a.p.withToken(ctx); stamped {
		a.rec.SetCall(ctx, call, method, args)
	}
	if err := ref.StartCall(&a.rec); err != nil {
		a.Complete(nil, err)
	}
}

// InTurn is remoting.Turn: a's connection asks it, having looked up a's
// lane, whether a still goes: not once a call issued before it was recorded
// to be sent again (the lane may be one dialled after the failure that sent
// that call back), nor once a's future resolved. If a goes, a Cancel of its
// future abandons the exchange from here (arm).
func (a *attempt) InTurn() bool {
	return a.p.calls.inTurn(a) && (a.fut == nil || a.fut.arm(&a.rec))
}

// Held is remoting.Turn: a failing lane holds a until it has left the
// channel's table, and then tells a it was declined. Meanwhile no call
// issued after a passes it (callOrder.stall).
func (a *attempt) Held() { a.p.calls.stall(a) }

// Complete is remoting.Completer: the outcome of one submission of a, which
// is the call's unless the rule sends the call again (again).
func (a *attempt) Complete(v any, err error) {
	if err == nil || !a.again(err) {
		a.finish(v, err)
	}
}

// again is the one rule that sends a proxy's remote call again, blocking or
// asynchronous, post, batch or object-manager call (MigrateCtx, DestroyCtx).
// It reports whether a, failed with err, goes again, and sees to it, in its
// place in the call order (callOrder.redo):
//
//   - never once its context ended, its future resolved (a Cancel, a hook,
//     its waiter), its runtime closed, or an orderly Channel.Close failed it
//     (remoting.Closed);
//   - at once when its submission was declined: it never left
//     (remoting.Declined);
//   - at once, once, when its lane died under it with no reply
//     (remoting.Stale); a second lane death, of a lane it dialled afresh
//     too, goes on down this list;
//   - after the retry policy's backoff, while it allows
//     (remoting.Channel.RetryIn), on a timer that a Cancel, the end of ctx
//     and Close end early;
//   - at the forward's location, when the forward's generation is higher
//     than any the call followed, so a chain of forwards ends;
//   - once, where a re-resolve through the peers finds the object, after
//     ErrNodeDown or ErrObjectDestroyed (a destroyed object no peer knows is
//     remembered for deadEndTTL).
//
// A backoff or a re-resolve holds the call's place (wait). A call sent again
// after its request may have run (a dead lane, a down node) can run twice
// unless it carries a token (SPEC guarantee 2); a forward runs nothing.
func (a *attempt) again(err error) bool {
	p, ctx := a.p, a.rec.Context()
	if ctx.Err() != nil || a.rec.Lost() || p.rt.closed() || remoting.Closed(err) ||
		a.fut != nil && !a.fut.disarm() {
		return false
	}
	if remoting.Declined(err) {
		p.calls.redo(a)
		return true
	}
	if a.spent&spentResend == 0 && remoting.Stale(err) {
		a.spent |= spentResend
		p.calls.redo(a)
		return true
	}
	ch := p.rt.cfg.Channel
	if delay, ok := ch.RetryIn(ctx, err, int(a.retries)+1, 0); ok {
		a.retries++
		a.wait()
		b := ch.Backoff(a.backedOff)
		if a.fut == nil || a.fut.arm(b) {
			b.Wait(delay)
		} else {
			b.Cancel()
		}
		return true
	}
	if mv, ok := movedOf(err, p.uri); ok && mv.Gen > a.followed {
		a.followed = mv.Gen
		p.redirectMoved(mv)
		p.calls.redo(a)
		return true
	}
	down := errors.Is(err, errs.ErrNodeDown)
	if !down && !errors.Is(err, errs.ErrObjectDestroyed) || a.spent&spentResolve != 0 {
		return false
	}
	a.spent |= spentResolve
	if at := p.deadEndAt.Load(); !down && at != 0 && time.Since(time.Unix(0, at)) < deadEndTTL {
		return false
	}
	a.wait()
	p.rt.resolve(ctx, p.uri, a.rec.NetAddr(), func(loc ObjLoc, found bool) { a.resolved(err, down, loc, found) })
	return true
}

// wait holds a's place while it waits out a backoff or a re-resolve
// (callOrder.stall); an asynchronous call's future resolves if its context
// ends meanwhile (a blocking call's waiter watches its own).
func (a *attempt) wait() {
	a.p.calls.stall(a)
	if a.fut != nil && !a.blocking {
		a.rec.Watch(cancelHook(a.rec.Context(), a.fut))
	}
}

// backedOff ends a's backoff: nil when the delay passed, and a goes again;
// the close error, or context.Canceled, and a fails.
func (a *attempt) backedOff(err error) {
	a.rec.Unwatch()
	if err == nil && (a.fut == nil || a.fut.disarm()) {
		a.p.calls.redo(a)
		return
	}
	if err == nil {
		err = context.Canceled // the future resolved as the timer fired
	}
	a.finish(nil, err)
}

// resolved ends a's re-resolve: the call goes again where the object was
// found, when that changes its route (an older location would only re-dial
// the same dead endpoint), and fails with err otherwise.
func (a *attempt) resolved(err error, down bool, loc ObjLoc, found bool) {
	a.rec.Unwatch()
	p := a.p
	if found && (down || loc.Gen > p.currentGen()) && p.redirect(loc) {
		if a.fut == nil || a.fut.disarm() {
			p.calls.redo(a)
			return
		}
	} else if !down {
		p.deadEndAt.Store(time.Now().UnixNano())
	}
	a.finish(nil, err)
}

// finish reports the outcome, to the future or, for a post, a failure to
// AsyncErr, counts the call finished, which may start the next, and then
// lets a go (release).
func (a *attempt) finish(v any, err error) {
	p, free := a.p, true
	if a.fut != nil {
		free = a.resolve(v, err)
	} else if err != nil {
		p.noteAsyncError(err)
	}
	p.calls.done(a)
	a.release(free)
}
