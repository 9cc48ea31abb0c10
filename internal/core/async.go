package core

// This file holds a proxy's asynchronous calls and the attempts they make.

import (
	"context"
	"errors"

	"repro/internal/errs"
	"repro/internal/remoting"
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
	return p.StartAsync(ctx, new(AsyncCall), method, args)
}

// StartAsync is InvokeAsyncCtx in storage the caller supplies: c, zero, is
// everything the runtime keeps for the call, so a caller that allocates it
// inside its own record of the call, or a wave of them as one slab, pays
// nothing more. The Future returned lives in c; c serves this one call.
func (p *Proxy) StartAsync(ctx context.Context, c Async, method string, args []any) *Future {
	p.rt.syncCalls.Add(1)
	if ctx == nil {
		ctx = context.Background()
	}
	call := c.asyncCall()
	call.try.p = p
	call.try.rec.SetCall(ctx, "Invoke1", method, args)
	call.try.rec.SetCompleter(c)
	switch mode, act := p.state(); mode {
	case modeAgglomerated:
		call.fut.complete(call.try.settle(p.invokeInCaller(ctx, method, args)))
	case modeLocalActive:
		call.submitLocal(act)
	default:
		call.submitRemote()
	}
	return &call.fut
}

// Async is the storage an asynchronous call is made in (StartAsync): an
// *AsyncCall, or a record of the caller's that embeds one, whose promoted
// methods make it an Async. It is the Completer of the call's connection
// record, and when it is a Sink too, the call's typed slot.
type Async interface {
	remoting.Completer
	asyncCall() *AsyncCall
}

// AsyncCall is one asynchronous call as the runtime holds it: the Future
// handed back and, in the same object, the attempt the call is made with,
// which carries the connection's record of the exchange and the call's place
// in its proxy's call order (both unused by a call that stays on this node).
// The zero value is ready for StartAsync.
type AsyncCall struct {
	fut Future
	try attempt
}

// asyncCall makes an AsyncCall, and every record that embeds one, an Async.
func (c *AsyncCall) asyncCall() *AsyncCall { return c }

// Complete is remoting.Completer: the attempt's (attempt.Complete).
func (c *AsyncCall) Complete(v any, err error) { c.try.Complete(v, err) }

// InTurn is remoting.Turn: the attempt's (attempt.InTurn).
func (c *AsyncCall) InTurn() bool { return c.try.InTurn() }

// Sink is the typed slot an asynchronous call's result settles in, once,
// before its Future resolves: the Async the call is made in, when it is one.
// A reply whose result is exactly what the sink takes is decoded into it on
// the connection (remoting.ResultSink), and the call finishes with the sink
// itself as its value; that value, or any other the call finishes with (from
// a local or agglomerated object, a re-run, or a reply of another type), is
// handed to Settle on the completion path, which returns what the Future
// resolves with, or the call's error.
type Sink interface {
	remoting.ResultSink
	Settle(v any) (any, error)
}

// settle is the outcome a's future resolves with: a value the call finished
// with, settled by the call's sink. A call without a sink, or one that
// failed, resolves with its outcome as it is.
func (a *attempt) settle(v any, err error) (any, error) {
	if s, ok := a.rec.Completer().(Sink); ok && err == nil {
		return s.Settle(v)
	}
	return v, err
}

// attempt is one completion-driven try at a call against the proxy's current
// endpoint: a call its proxy's callOrder counts, queues and re-runs. rec is
// the connection's for the one submission start makes, and the call's one
// record of what it is: its context and the runtime call, user's method and
// arguments, named when the call begins (SetCall) and read back by every way
// it can go (a mailbox, the connection, a re-run), and it holds the future's
// cancelHook while the call waits in a mailbox or in the queue
// (remoting.CallRecord.Watch). rec's Completer is the Async the call is made
// in, which holds the caller's future, or, for a post, the attempt itself,
// whose failure goes to AsyncErr. issue is the call's place in its proxy's
// issue order, and next links it into the queue or the re-runs.
type attempt struct {
	p     *Proxy
	next  *attempt
	issue uint64
	rec   remoting.CallRecord
}

// future returns the caller's future, nil for a post.
func (a *attempt) future() *Future {
	if c, ok := a.rec.Completer().(Async); ok {
		return &c.asyncCall().fut
	}
	return nil
}

// mailboxEntry is an AsyncCall as a mailbox holds it: the task's outcome is
// the call's.
type mailboxEntry AsyncCall

// Complete hears the task's outcome, on the actor loop or on whoever
// aborted the task.
func (e *mailboxEntry) Complete(v any, err error) {
	a := &e.try
	a.rec.Unwatch()
	if mv, ok := movedOf(err, a.p.uri); ok {
		// The object was taken from this node with the call still queued or
		// held: follow it, in the proxy's call order, ahead of the calls
		// issued after this one.
		a.p.redirect(ObjLoc{Node: mv.Node, Addr: mv.Addr, Gen: mv.Gen})
		(*AsyncCall)(e).submitRemote()
		return
	}
	e.fut.complete(a.settle(v, err))
}

// submitLocal enqueues the call on the hosting actor's mailbox. A task whose
// Future is resolved when its turn comes is skipped.
func (c *AsyncCall) submitLocal(act *actor) {
	a, f := &c.try, &c.fut
	ctx, _, method, args := a.rec.Call()
	a.rec.Watch(cancelHook(ctx, f))
	err := act.enqueue(actorTask{ctx: ctx, method: method, args: args, fut: f, to: (*mailboxEntry)(c)})
	if err == nil {
		return
	}
	a.rec.Unwatch()
	if mv, ok := movedOf(err, a.p.uri); ok {
		// Moved before the task entered the mailbox: nothing ran here, the
		// call starts again as a remote one.
		a.p.redirect(ObjLoc{Node: mv.Node, Addr: mv.Addr, Gen: mv.Gen})
		c.submitRemote()
		return
	}
	f.complete(nil, err)
}

// submitRemote issues the call in the proxy's call order, behind the posts
// issued before it: straight to its connection, where calls to one object
// pipeline, or into the queue.
func (c *AsyncCall) submitRemote() {
	a := &c.try
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
// context before the first submission, so every re-run sends it again.
func (a *attempt) start(ref *remoting.ObjRef) {
	if a.p.rt.cfg.IdempotentCalls {
		if ctx, call, method, args := a.rec.Call(); !hasToken(ctx) {
			a.rec.SetCall(remoting.ContextWithToken(ctx, a.p.rt.cfg.Channel.NewCallToken()), call, method, args)
		}
	}
	if err := ref.StartCall(&a.rec); err != nil {
		a.p.calls.redo(a)
	} else if f := a.future(); f != nil {
		f.setAbort(&a.rec)
	}
}

// InTurn is remoting.Turn: a's connection asks it, having looked up the lane
// a goes out on, whether a still goes. Not once a call issued before it was
// recorded to be re-run since a was sent straight: the lane may be one
// dialled after the failure that sent that call back, and a must not run
// ahead of its re-run. Declined, a is re-run in its place.
func (a *attempt) InTurn() bool { return a.p.calls.inTurn(a) }

// Complete is the one re-run rule of an asynchronous call: an outcome the
// synchronous path would transparently retry is recorded to be re-run, in
// the call's place, before Complete returns.
func (a *attempt) Complete(v any, err error) {
	if err != nil && a.rec.Context().Err() == nil && a.p.asyncRecoverable(err) {
		a.p.calls.redo(a)
		return
	}
	a.finish(v, err)
}

// finish reports the outcome, to the future or, for a post, a failure to
// AsyncErr, and then counts the call finished, which may start the next.
func (a *attempt) finish(v any, err error) {
	p := a.p
	if f := a.future(); f != nil {
		f.complete(a.settle(v, err))
	} else if err != nil {
		p.noteAsyncError(err)
	}
	p.calls.done(a)
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
// synchronous path would transparently retry (re-route and re-invoke).
func (p *Proxy) asyncRecoverable(err error) bool {
	if _, ok := movedOf(err, p.uri); ok {
		return true
	}
	return errors.Is(err, errs.ErrNodeDown) || errors.Is(err, errs.ErrObjectDestroyed)
}
