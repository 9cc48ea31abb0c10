package core

// This file holds a proxy's asynchronous calls and the attempts they make.

import (
	"context"
	"errors"
	"sync/atomic"

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
// it, or else to the GC (attempt.release). The Future returned lives in c;
// c serves this one call.
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
// the call finishes with (from a local or agglomerated object, a re-run, or
// a reply of another type), is handed to Settle on the completion path,
// which returns what the Future resolves with, or the call's error.
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

// attempt is what serves one asynchronous call while it is in flight: a call
// its proxy's callOrder counts, queues and re-runs, or a task in a local
// object's mailbox. rec is the connection's record of each submission start
// makes, and the call's one record of what it is: its context and the
// runtime call, user's method and arguments, named when the call begins
// (SetCall) and read back by every way it can go (a mailbox, the connection,
// a re-run), and it holds the future's cancelHook while the call waits in a
// mailbox or in the queue (remoting.CallRecord.Watch). The attempt is rec's
// Completer and Turn, and its ResultSink, which forwards to sink. fut and
// sink are its owner's, the Async the call was started in, nil for a post.
// issue is the call's place in its proxy's issue order, and next links it
// into the queue or the re-runs.
//
// An attempt is drawn from its proxy's store (draw) and goes back there in
// one case only: the completion that resolved its future, once the lane and
// every hook on its context are done with it (release). In every other case
// (its future was resolved by a Cancel or a hook, a hook on its context
// could not be detached, it was declined at its turn) the GC takes it.
type attempt struct {
	p     *Proxy
	next  *attempt
	issue uint64
	fut   *Future
	sink  Sink
	rec   remoting.CallRecord
}

// attempts is the kind of the asynchronous calls' attempts, which proxies
// keep (Proxy.tries): one goes back emptied, so it pins neither arguments
// nor its owner, and ready as its record's Completer. While a test poisons
// attempts (attemptPoison; nothing sets it in production), one that goes
// back holds, until it is drawn again, a typed slot that panics when it is
// used: a party that still holds it fails loudly rather than reading or
// writing another call's.
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
func (p *Proxy) draw(fut *Future, sink Sink) *attempt {
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

// settle is the outcome a's future resolves with (settle): a reply decoded
// into the owner's slot finished with a as its value.
func (a *attempt) settle(v any, err error) (any, error) {
	if v == any(a) {
		v = a.sink
	}
	return settle(a.sink, v, err)
}

// resolve resolves a's future with the outcome and reports whether a is free
// of its call: this resolved the future, and what the future owed a Cancel
// was left, the record start hands it once the submission returns
// (setAbort), or nil for a call that never left its mailbox. A remote call's
// future that owed nothing was resolved before start came back from its
// submission, and start still reads the record.
func (a *attempt) resolve(left canceller, v any, err error) bool {
	v, err = a.settle(v, err)
	won, abort := a.fut.completeAt(v, err, 0)
	return won && abort == left
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
	a.release(a.resolve(nil, v, err))
}

// submitRemote issues the call in the proxy's call order, behind the posts
// issued before it: straight to its connection, where calls to one object
// pipeline, or into the queue.
func (a *attempt) submitRemote() {
	if ref := a.p.endpoint(); a.p.calls.admit(a, ref) {
		a.start(ref)
	}
}

// cancelHook resolves f with ctx.Err() as soon as ctx ends, for a call that
// waits its turn in a mailbox or in its proxy's queue: the queue looks at a
// task only when the turn comes, and the Future must not wait that long.
// stop detaches the hook; nil for a ctx that never ends.
func cancelHook(ctx context.Context, f *Future) (stop func() bool) {
	if ctx.Done() == nil {
		return nil
	}
	return context.AfterFunc(ctx, func() { f.complete(nil, ctx.Err()) })
}

// start submits the attempt to ref: remoteCall.on without the wait. It never
// blocks on the call, the outcome is reported (finish) exactly once and never
// on the caller's stack, and from here a Cancel of the future abandons the
// exchange. A submission the connection declines is recorded to be re-run
// before start returns. The idempotency token is stamped into the record's
// context before the first submission, so every re-run sends it again. Once
// submitted, the call may finish at any moment: start reads nothing of a
// after that but the record it leaves for a Cancel, and only while the
// future is pending, or resolved by someone else (resolve).
func (a *attempt) start(ref *remoting.ObjRef) {
	ctx, call, method, args := a.rec.Call()
	if ctx, stamped := a.p.withToken(ctx); stamped {
		a.rec.SetCall(ctx, call, method, args)
	}
	f := a.fut
	if err := ref.StartCall(&a.rec); err != nil {
		a.p.calls.redo(a)
	} else if f != nil {
		f.setAbort(&a.rec)
	}
}

// InTurn is remoting.Turn: a's connection asks it, having looked up the lane
// a goes out on, whether a still goes. Not once a call issued before it was
// recorded to be re-run since a was sent straight: the lane may be one
// dialled after the failure that sent that call back, and a must not run
// ahead of its re-run. Declined, a is re-run in its place.
func (a *attempt) InTurn() bool { return a.p.calls.inTurn(a) }

// Complete is remoting.Completer, for the connection. It is the one re-run
// rule of an asynchronous call: an outcome the synchronous path would
// transparently retry is recorded to be re-run, in the call's place, before
// Complete returns.
func (a *attempt) Complete(v any, err error) {
	if err != nil && a.rec.Context().Err() == nil && a.p.asyncRecoverable(err) {
		a.p.calls.redo(a)
		return
	}
	a.finish(v, err)
}

// finish reports the outcome, to the future or, for a post, a failure to
// AsyncErr, counts the call finished, which may start the next, and then
// lets a go (release).
func (a *attempt) finish(v any, err error) {
	p, free := a.p, true
	if a.fut != nil {
		free = a.resolve(&a.rec, v, err)
	} else if err != nil {
		p.noteAsyncError(err)
	}
	p.calls.done(a)
	a.release(free)
}

// rerun finishes, at its turn, a call the completion-driven path could not: a
// submission that was declined (connection not usable, ctx ended, lane shut
// down), or a completion that says moved, node down or destroyed. It runs the
// call through invokeVia, the blocking loop that re-resolves and retries, on
// a goroutine of its own, the only place an asynchronous call holds one, for
// as long as that loop takes; nothing else of the proxy is in flight
// meanwhile.
func (a *attempt) rerun() {
	ctx, call, method, args := a.rec.Call()
	a.finish(a.p.invokeVia(ctx, a.p.endpoint, remoteCall{call: call, method: method, args: args}))
}

// asyncRecoverable reports whether an async completion error is one the
// synchronous path would transparently retry (re-route and re-invoke). None
// is once the runtime is closed: its Close fails every lane, and a re-run
// would dial afresh from the closed node, on a goroutine nothing waits for.
func (p *Proxy) asyncRecoverable(err error) bool {
	if p.rt.closed() {
		return false
	}
	if _, ok := movedOf(err, p.uri); ok {
		return true
	}
	return errors.Is(err, errs.ErrNodeDown) || errors.Is(err, errs.ErrObjectDestroyed)
}
