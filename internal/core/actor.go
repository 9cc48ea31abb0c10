package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/ctxwait"
	"repro/internal/errs"
	"repro/internal/remoting"
)

// errActorStopped is returned for calls posted after the actor shut down.
var errActorStopped = fmt.Errorf("core: %w", errs.ErrObjectDestroyed)

// errActorMigrating rejects a second concurrent migration of one actor;
// the pause flag doubles as the per-object migration claim.
var errActorMigrating = fmt.Errorf("core: migration already in progress")

// actor gives a locally hosted parallel object its own thread of control:
// calls enqueue into a mailbox processed in order by one goroutine,
// providing the active-object semantics of SCOOPP parallel objects while
// intra-grain callers continue immediately (paper Fig. 3 call b executed
// asynchronously).
type actor struct {
	w *ioWrapper
	// bound caps the queued (not executing) tasks; 0 = unbounded. shed
	// picks the victim when the bound is hit (see Config.MailboxBound).
	bound int
	shed  ShedPolicy

	mu   sync.Mutex
	cond *sync.Cond
	// queue[head:] are the waiting tasks, oldest first. Popping advances
	// head instead of re-slicing, so the backing array survives: a mailbox
	// that is one deep, the common case, reuses slot 0 on every call.
	queue   []actorTask
	head    int
	stopped bool
	pending int
	// paused blocks new enqueues (migration: the mailbox drains while
	// callers wait); moved, once set, fails every later enqueue with the
	// forward so callers re-route to the object's new node.
	paused bool
	moved  *errs.MovedError
}

type actorTask struct {
	ctx    context.Context // caller's context; nil means background
	method string
	args   []any
	batch  []any // non-nil for aggregate messages
	// The outcome goes to reply (a parked synchronous caller) or to to (an
	// asynchronous one, which parks nothing); both nil is fire-and-forget.
	// to is told on whichever goroutine settles the task — normally the
	// actor loop — so it must not block.
	reply chan actorResult
	to    remoting.Completer
	// fut, when set, is the future to resolves: a task that reaches its
	// turn with it already resolved (cancelled) is skipped like one whose
	// ctx ended.
	fut *Future
}

// settle delivers the task's outcome. Never call it with a.mu held: to is
// caller-supplied code.
func (t *actorTask) settle(res actorResult) {
	switch {
	case t.reply != nil:
		t.reply <- res
	case t.to != nil:
		t.to.Complete(res.val, res.err)
	}
}

type actorResult struct {
	val any
	err error
}

// mailboxKeep is the largest backing array, in tasks, an emptied mailbox
// holds on to; what a burst grew beyond it goes back to the GC.
const mailboxKeep = 64

// queued reports how many tasks wait in the mailbox. Needs a.mu.
func (a *actor) queued() int { return len(a.queue) - a.head }

// pop removes the oldest waiting task, zeroing its slot so a finished
// task's args and ctx are not pinned by the array. Needs a.mu.
func (a *actor) pop() actorTask {
	t := a.queue[a.head]
	a.queue[a.head] = actorTask{}
	a.head++
	if a.head == len(a.queue) {
		a.queue, a.head = a.queue[:0], 0
		if cap(a.queue) > mailboxKeep {
			a.queue = nil
		}
	}
	return t
}

// push appends a task. A full array of which at least half is already
// popped is compacted in place rather than grown, so a mailbox that never
// quite empties does not creep through memory. Needs a.mu.
func (a *actor) push(t actorTask) {
	if a.head > 0 && len(a.queue) == cap(a.queue) && a.head >= len(a.queue)/2 {
		n := copy(a.queue, a.queue[a.head:])
		clear(a.queue[n:])
		a.queue, a.head = a.queue[:n], 0
	}
	a.queue = append(a.queue, t)
}

func newActor(w *ioWrapper) *actor {
	a := &actor{w: w, bound: w.rt.cfg.MailboxBound, shed: w.rt.cfg.Shed}
	a.cond = sync.NewCond(&a.mu)
	go a.run()
	return a
}

func (a *actor) run() {
	for {
		a.mu.Lock()
		for a.queued() == 0 && !a.stopped {
			a.cond.Wait()
		}
		if a.queued() == 0 && a.stopped {
			a.mu.Unlock()
			return
		}
		t := a.pop()
		a.mu.Unlock()
		a.w.rt.queuedTasks.Add(-1)

		ctx := t.ctx
		if ctx == nil {
			ctx = context.Background()
		}
		var res actorResult
		if err := ctx.Err(); err != nil {
			// The caller gave up while the task sat in the mailbox:
			// skip execution, matching what a context-aware method
			// would do on entry. An expired deadline is counted as a
			// dequeue-time drop — work the server admitted but could
			// not start in time.
			res.err = err
			if errors.Is(err, context.DeadlineExceeded) {
				a.w.rt.stats.deadlineDrops.Add(1)
			}
		} else if t.fut != nil && t.fut.resolved() {
			res.err = context.Canceled
		} else if t.batch != nil {
			_, res.err = a.w.InvokeBatch(ctx, t.method, t.batch)
		} else {
			res.val, res.err = a.w.Invoke1(ctx, t.method, t.args)
		}
		t.settle(res)

		a.mu.Lock()
		a.pending--
		if a.pending == 0 {
			a.cond.Broadcast()
		}
		a.mu.Unlock()
	}
}

// enqueue adds a task. While the actor is paused for migration, enqueue
// blocks — bounded by the task's context when it carries one; once the
// object has moved it fails with the forward (a *errs.MovedError) instead,
// so a blocked caller comes out of the pause routed to the new node.
func (a *actor) enqueue(t actorTask) error {
	a.mu.Lock()
	if a.paused && a.moved == nil && !a.stopped && t.ctx != nil && t.ctx.Done() != nil {
		// Wake this waiter when the caller's context ends; Broadcast is
		// how every pause-state transition is announced.
		stop := context.AfterFunc(t.ctx, func() {
			a.mu.Lock()
			a.cond.Broadcast()
			a.mu.Unlock()
		})
		defer stop()
	}
	for a.paused && a.moved == nil && !a.stopped {
		if t.ctx != nil {
			if err := t.ctx.Err(); err != nil {
				a.mu.Unlock()
				return err
			}
		}
		a.cond.Wait()
	}
	if a.moved != nil {
		mv := a.moved
		a.mu.Unlock()
		return mv
	}
	if a.stopped {
		a.mu.Unlock()
		return errActorStopped
	}
	var evicted actorTask
	shedOldest := false
	if a.bound > 0 && a.queued() >= a.bound {
		if a.shed != ShedOldest {
			a.mu.Unlock()
			a.w.rt.noteShed()
			return errs.WithRetryAfter(
				fmt.Errorf("core: mailbox full (%d queued): %w", a.bound, errs.ErrOverloaded),
				shedRetryAfter)
		}
		// ShedOldest: evict the head task to make room; its caller is
		// failed outside the lock.
		evicted, shedOldest = a.pop(), true
		a.pending--
		a.w.rt.queuedTasks.Add(-1)
	}
	a.push(t)
	a.pending++
	a.w.rt.queuedTasks.Add(1)
	a.cond.Broadcast()
	a.mu.Unlock()
	if shedOldest {
		a.w.rt.noteShed()
		evicted.settle(actorResult{err: errs.WithRetryAfter(
			fmt.Errorf("core: evicted from full mailbox (%d queued): %w", a.bound, errs.ErrOverloaded),
			shedRetryAfter)})
	}
	return nil
}

// pause claims the actor for a migration — at most one at a time; the
// paused flag is the claim — and blocks until every queued task has
// executed, the quiescence point the migration snapshots at. The claim is
// refused when the actor is already claimed, moved or stopped, and the
// wait aborts (rolling the claim back) when ctx ends — a task that never
// finishes, for example one blocked posting into its own paused mailbox,
// fails the migration instead of deadlocking it — or when a racing
// destroy stops the actor. Balanced by resume (migration failed) or
// markMoved (succeeded).
func (a *actor) pause(ctx context.Context) error {
	a.mu.Lock()
	switch {
	case a.moved != nil:
		mv := a.moved
		a.mu.Unlock()
		return mv
	case a.stopped:
		a.mu.Unlock()
		return errActorStopped
	case a.paused:
		a.mu.Unlock()
		return errActorMigrating
	}
	a.paused = true
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			a.mu.Lock()
			a.cond.Broadcast()
			a.mu.Unlock()
		})
		defer stop()
	}
	for a.pending > 0 && !a.stopped {
		if err := ctx.Err(); err != nil {
			a.paused = false
			a.cond.Broadcast()
			a.mu.Unlock()
			return err
		}
		a.cond.Wait()
	}
	if a.stopped {
		// A destroy won the race: the object must not be resurrected
		// elsewhere from a snapshot of its corpse.
		a.paused = false
		a.cond.Broadcast()
		a.mu.Unlock()
		return errActorStopped
	}
	a.mu.Unlock()
	return nil
}

// resume reopens a paused mailbox.
func (a *actor) resume() {
	a.mu.Lock()
	a.paused = false
	a.cond.Broadcast()
	a.mu.Unlock()
}

// markMoved terminates a paused actor after a successful migration:
// callers blocked in enqueue (and all future enqueues) fail with the
// forward, and the mailbox goroutine exits.
func (a *actor) markMoved(mv *errs.MovedError) {
	a.mu.Lock()
	a.moved = mv
	a.paused = false
	a.stopped = true
	a.cond.Broadcast()
	a.mu.Unlock()
}

// abort terminates an actor whose state the cluster has moved past (a
// stale copy being demoted after a failover promotion): unlike markMoved
// it does not wait for the queue to drain — queued tasks would execute
// against superseded state and their effects silently vanish — but fails
// every queued task with the forward so its caller re-routes and retries
// at the fresh copy. The task executing at this instant (if any) still
// completes; its caller received — or will receive — a reply computed on
// state one failover behind, the unavoidable window of asynchronous
// supersession.
func (a *actor) abort(mv *errs.MovedError) {
	a.mu.Lock()
	a.moved = mv
	a.paused = false
	a.stopped = true
	queued := a.queue[a.head:]
	a.queue, a.head = nil, 0
	a.pending -= len(queued)
	a.w.rt.queuedTasks.Add(int64(-len(queued)))
	a.cond.Broadcast()
	a.mu.Unlock()
	for i := range queued {
		queued[i].settle(actorResult{err: mv})
	}
}

// replyPool recycles the one-slot reply channels of blocking mailbox calls.
// A channel goes back only from a path that knows it is empty and unshared:
// the caller that received its single result, or one whose task never
// entered the mailbox. A caller that gave up on ctx leaves the channel to
// the task still holding it, and then to the GC.
var replyPool = sync.Pool{New: func() any { return make(chan actorResult, 1) }}

// callSync enqueues t with a reply channel and blocks for its outcome. If
// ctx ends before the mailbox reaches the task, the caller unblocks with
// ctx.Err() (the task is skipped when its turn comes; the reply channel is
// buffered, so nothing leaks).
func (a *actor) callSync(ctx context.Context, t actorTask) (any, error) {
	reply := replyPool.Get().(chan actorResult)
	t.ctx, t.reply = ctx, reply
	if err := a.enqueue(t); err != nil {
		replyPool.Put(reply)
		return nil, err
	}
	if ctx == nil || ctx.Done() == nil {
		res := <-reply
		replyPool.Put(reply)
		return res.val, res.err
	}
	select {
	case res := <-reply:
		replyPool.Put(reply)
		return res.val, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// callCtx performs a synchronous invocation through the mailbox, preserving
// order with earlier asynchronous posts.
func (a *actor) callCtx(ctx context.Context, method string, args []any) (any, error) {
	return a.callSync(ctx, actorTask{method: method, args: args})
}

// callAsync enqueues an invocation and returns; to receives its outcome on
// the actor loop, before Wait observes the task as finished (or, for a task
// that never ran, on whoever evicted or aborted it). An enqueue-time failure
// (object destroyed or moved before the task entered the mailbox — nothing
// executed) is only returned and to never hears, so the caller can re-route
// or record it without double-reporting. A non-nil ctx cancels the task if
// it is still queued when ctx ends. Like every enqueue it blocks while the
// mailbox is paused for migration.
func (a *actor) callAsync(ctx context.Context, method string, args []any, to remoting.Completer) error {
	return a.enqueue(actorTask{ctx: ctx, method: method, args: args, to: to})
}

// wait blocks until the mailbox is drained.
func (a *actor) wait() {
	a.mu.Lock()
	for a.pending > 0 {
		a.cond.Wait()
	}
	a.mu.Unlock()
}

// waitCtx is wait bounded by ctx; the mailbox keeps draining in the
// background when the wait is abandoned.
func (a *actor) waitCtx(ctx context.Context) error {
	return ctxwait.Drain(ctx, a.wait)
}

// stop drains the mailbox and terminates the goroutine.
func (a *actor) stop() {
	a.mu.Lock()
	a.stopped = true
	a.cond.Broadcast()
	for a.pending > 0 {
		a.cond.Wait()
	}
	a.mu.Unlock()
}

// actorEndpoint adapts an actor to the remoting dispatcher so remote
// callers share the mailbox (and therefore the ordering) of local callers.
// The ctx parameters receive the server-side request context, carrying the
// remote caller's deadline into the mailbox wait.
type actorEndpoint struct {
	a *actor
}

// Invoke1 executes one invocation through the mailbox.
func (e *actorEndpoint) Invoke1(ctx context.Context, method string, args []any) (any, error) {
	return e.a.callCtx(ctx, method, args)
}

// InvokeBatch replays an aggregate message through the mailbox as a single
// task, so a batch executes atomically with respect to other calls.
func (e *actorEndpoint) InvokeBatch(ctx context.Context, method string, calls []any) (int, error) {
	if _, err := e.a.callSync(ctx, actorTask{method: method, batch: calls}); err != nil {
		return 0, err
	}
	return len(calls), nil
}
