package core

import (
	"context"
	"sync"

	"repro/internal/remoting"
)

// callOrder is the order of one proxy's remote calls (Post, InvokeAsync,
// StartAsync, blocking calls and the proxy's calls to its object manager):
// SPEC guarantee 1 for a remote object, in one place. It counts every such
// call from its issue to its outcome and keeps one rule:
//
//   - A call with a result, blocking or not, goes straight to its
//     connection, pipelined behind the calls in flight, when nothing is
//     queued, nothing waits to be sent again, and every call in flight was
//     sent straight at the endpoint the proxy still routes at (a redirect
//     builds a fresh one, which ends such a run). Every other call queues,
//     and queued calls start once nothing else is in flight, against the
//     endpoint current at their turn: a call with a result with the calls
//     with results queued right behind it, pipelined in issue order (take).
//     A post is never sent straight: posts are stop-and-wait, and a queued
//     post leaves with the posts of its method queued right behind it, as
//     one batch (coalesce): nothing waits for a batch to fill.
//   - A call that must be sent again (attempt.again) is recorded before the
//     submission or the completion returns, and from then on new calls
//     queue. Re-runs start once nothing else is in flight, one at a time, in
//     issue order, ahead of every queued call, each of which was issued
//     after them. A call that a failing lane holds, or that waits out a
//     backoff or a re-resolve first, stays counted in flight and holds back
//     the calls issued after it (stall).
//   - Wait waits for the count to reach zero, so it returns after every
//     call issued before it.
//
// Only a goroutine's own calls are ordered: calls that two goroutines issue
// through one proxy are counted in whichever order they take the lock.
// Outside mu, nothing in flight means nothing queued and nothing to re-run:
// whatever finishes the last call in flight starts the next (next).
type callOrder struct {
	mu          sync.Mutex
	issued      uint64           // the issue number last given out
	inflight    int              // calls started and not finished, a re-run included
	held        int              // calls in flight that are held (stall)
	straight    *remoting.ObjRef // non-nil: every call in flight was sent straight, at this endpoint
	queue, tail *attempt         // calls waiting their turn, oldest first
	reruns      *attempt         // calls to re-run, lowest issue number first
	drained     chan struct{}    // closed when nothing is left; made by the first waiter
	// batched is the one batch in flight or to be re-run, nil for none. Its
	// arguments are batch, whose i-th element points at lists[i], the
	// argument list of its i-th post.
	batched *attempt
	batch   []any
	lists   [][]any
}

// maxBatch caps a batch: the size the A1 sieve ran fastest at when it was
// a setting (2,000 numbers in 0.21-0.23 s, 0.68 s with one post a frame).
const maxBatch = 32

// admit counts a, issued now, and reports whether it starts at once: a call
// with a result straight at ref, the endpoint it would be sent at, or a post
// with nothing before it. Otherwise a waits in the queue until next starts
// it, with the cancel hook an asynchronous call's future needs meanwhile.
func (o *callOrder) admit(a *attempt, ref *remoting.ObjRef) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.issued++
	a.issue = o.issued
	if a.fut == nil {
		ref = nil // a post is never sent straight
	}
	if o.queue == nil && o.reruns == nil && o.held == 0 && (o.inflight == 0 || ref != nil && ref == o.straight) {
		o.inflight++
		o.straight = ref
		return true
	}
	if a.fut != nil && !a.blocking {
		// Hooked before mu is let go: a's turn may come on another
		// goroutine at once, and next unhooks it.
		a.rec.Watch(cancelHook(a.rec.Context(), a.fut))
	}
	if o.tail == nil {
		o.queue = a
	} else {
		o.tail.next = a
	}
	o.tail = a
	return false
}

// redo records a, which was in flight, to be sent again in its place in
// issue order, with the cancel hook an asynchronous call's future needs
// while it waits.
func (o *callOrder) redo(a *attempt) {
	o.mu.Lock()
	o.unstall(a)
	if a.fut != nil && !a.blocking {
		a.rec.Watch(cancelHook(a.rec.Context(), a.fut))
	}
	at := &o.reruns
	for *at != nil && (*at).issue < a.issue {
		at = &(*at).next
	}
	a.next, *at = *at, a
	o.inflight--
	o.next()
}

// inTurn reports whether a, in flight, may still be sent: no call issued
// before it waits to be sent again, and a failing lane holds none (stall).
func (o *callOrder) inTurn(a *attempt) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.held == 0 && (o.reruns == nil || o.reruns.issue > a.issue)
}

// stall counts a, in flight, as held, by a failing lane (attempt.Held) or
// while it waits out a backoff or a re-resolve (attempt.wait), until it is
// sent again (redo) or finishes (done): until then new calls queue and a
// straight call is declined at its lane, to be sent again in its place. (A
// call issued before a is declined too: that costs a re-run, in order.)
func (o *callOrder) stall(a *attempt) {
	o.mu.Lock()
	a.held = true
	o.held++
	o.straight = nil
	o.mu.Unlock()
}

// unstall, with mu held, ends a's stall, if it has one.
func (o *callOrder) unstall(a *attempt) {
	if a.held {
		a.held = false
		o.held--
	}
}

// done counts a, in flight, finished, after its outcome was reported. A
// batch lets go of its posts' arguments.
func (o *callOrder) done(a *attempt) {
	o.mu.Lock()
	o.unstall(a)
	if a == o.batched {
		clear(o.lists)
		o.lists, o.batched = o.lists[:0], nil
	}
	o.inflight--
	o.next()
}

// next, with mu held, which it releases, starts whatever's turn it is once
// nothing is in flight: the first call to send again, or else the oldest
// queued call, with what shares its turn (take), against the endpoint
// current now. A call whose future resolved while it waited is declined:
// nothing is sent. With nothing left it lets the waiters go.
func (o *callOrder) next() {
	for o.inflight == 0 {
		run := o.reruns
		if run != nil {
			o.reruns, run.next = run.next, nil
		} else if run = o.take(); run == nil {
			if o.drained != nil {
				close(o.drained)
				o.drained = nil
			}
			break
		}
		o.straight = nil
		for a := run; a != nil; a = a.next {
			o.inflight++
		}
		o.mu.Unlock()
		for a := run; a != nil; {
			next := a.next // a may finish and be reused once started
			a.next = nil
			a.rec.Unwatch() // from here the connection, or the waiter, watches ctx
			if a.fut == nil || !a.fut.resolved() {
				a.start(a.target())
			} else {
				a.release(false) // its future was resolved by a Cancel, a hook or its waiter
				o.mu.Lock()
				o.inflight--
				o.next()
			}
			a = next
		}
		return
	}
	o.mu.Unlock()
}

// take, with mu held, takes the oldest queued call off the queue, and
// returns it linked to what shares its turn, or nil: a post leaves with the
// posts of its method queued right behind it, as one batch (coalesce), and
// a call with a result to the object with the calls with results queued
// right behind it, which follow it on its connection in issue order, so
// callers sharing a proxy pipeline again once a call had to queue.
func (o *callOrder) take() *attempt {
	a := o.queue
	if a == nil {
		return nil
	}
	o.queue = a.next
	last := a
	if a.fut == nil {
		o.coalesce(a)
	} else if !a.om {
		for m := o.queue; m != nil && m.fut != nil && !m.om; m = o.queue {
			last, o.queue = m, m.next
		}
	}
	last.next = nil
	if o.queue == nil {
		o.tail = nil
	}
	return a
}

// coalesce, with mu held, makes a, a post whose turn it is, one batch with
// the posts of its method queued right behind it, up to maxBatch, taking
// them off the queue: InvokeBatch of their argument lists. A call with a
// future or a post of another method ends the batch; with none, a leaves
// alone.
func (o *callOrder) coalesce(a *attempt) {
	ctx, _, method, args := a.rec.Call()
	lists := append(o.lists[:0], args)
	for m := o.queue; len(lists) < maxBatch && m != nil && m.fut == nil; m = o.queue {
		_, _, mm, margs := m.rec.Call()
		if mm != method {
			break
		}
		lists = append(lists, margs)
		o.queue = m.next
		m.release(true) // the batch carries its arguments from here
	}
	if len(lists) == 1 {
		lists[0] = nil
		return
	}
	o.lists, o.batch = lists, o.batch[:0]
	for i := range o.lists {
		o.batch = append(o.batch, &o.lists[i])
	}
	a.rec.SetCall(ctx, "InvokeBatch", method, o.batch)
	o.batched = a
	a.p.rt.batchesSent.Add(1)
	a.p.rt.callsAggregated.Add(int64(len(o.lists)))
}

// flush waits until nothing counted is left, or ctx ends (the calls keep
// going), as Wait needs.
func (o *callOrder) flush(ctx context.Context) error {
	o.mu.Lock()
	if o.inflight == 0 {
		o.mu.Unlock()
		return ctx.Err()
	}
	if o.drained == nil {
		o.drained = make(chan struct{})
	}
	drained := o.drained
	o.mu.Unlock()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
