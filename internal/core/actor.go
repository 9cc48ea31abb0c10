package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/dispatch"
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
// asynchronously). Enqueueing never blocks, whoever enqueues: a local
// caller, or a server's read loop handing over a remote request.
type actor struct {
	w *ioWrapper
	// bound caps the waiting (queued or held, not executing) tasks; 0 =
	// unbounded (see Config.MailboxBound).
	bound int

	mu   sync.Mutex
	cond *sync.Cond
	// queue is a ring of the n waiting tasks, oldest at head, and never
	// larger than twice the deepest the mailbox has been since it was last
	// empty. An emptied ring starts again at slot 0, so a mailbox that is
	// one deep, the common case, reuses slot 0 on every call.
	queue   []actorTask
	head, n int
	// held are the tasks enqueued while the actor is paused for a
	// migration, oldest first, kept beside the queue: resume moves them
	// into it behind the tasks queued before the pause, and ending the
	// mailbox turns them away (end).
	held []actorTask
	// pending counts the queued tasks and the one executing; held ones are
	// not counted, which is what lets pause wait for the queue alone.
	pending int
	// paused is the migration claim: the queue drains, new tasks are held.
	paused bool
	// closed, once set, is what every later enqueue fails with: the forward
	// (a *errs.MovedError) once the object moved, errActorStopped once it
	// was stopped. While closing, end is still turning the held tasks away
	// and new ones are held behind them.
	closed  error
	closing bool
}

type actorTask struct {
	ctx    context.Context // caller's context; nil means background
	method string
	args   []any
	batch  bool // args are an aggregate message's argument lists
	// to hears the outcome: a parked synchronous caller's reply channel, an
	// asynchronous caller, which parks nothing, or a server's record of a
	// remote request. It is told on whichever goroutine settles the task —
	// normally the actor loop — so it must not block.
	to remoting.Completer
	// fut, when set, is the future to resolves: a task that reaches its
	// turn with it already resolved (cancelled) is skipped like one whose
	// ctx ended.
	fut *Future
}

// settle delivers the task's outcome. Never call it with a.mu held: to is
// caller-supplied code.
func (t *actorTask) settle(res actorResult) { t.to.Complete(res.val, res.err) }

// refuse settles a task the mailbox turns away unrun with err. A local post
// has no caller to hand a forward to: it is posted again where the object
// went.
func (t *actorTask) refuse(err error) {
	if p, ok := t.to.(*postErrors); ok {
		if mv, ok := movedOf(err, p.uri); ok {
			(*Proxy)(p).follow(mv, t.method, t.args) //nolint:errcheck // a remote post reports to AsyncErr
			return
		}
	}
	t.settle(actorResult{err: err})
}

type actorResult struct {
	val any
	err error
}

// replyChan is a blocking caller's one-slot reply channel as its task's
// Completer.
type replyChan chan actorResult

func (r replyChan) Complete(v any, err error) { r <- actorResult{val: v, err: err} }

// mailboxKeep is the largest backing array, in tasks, an emptied mailbox
// holds on to; what a burst grew beyond it goes back to the GC. A server's
// read loop hands a mailbox every request a connection pipelines to the
// object at once, so it keeps what one 256-call wave to one object needs
// (22 KB), and no more.
const mailboxKeep = 256

// queued reports how many tasks wait in the mailbox. Needs a.mu.
func (a *actor) queued() int { return a.n }

// pop removes the oldest waiting task, zeroing its slot so a finished
// task's args and ctx are not pinned by the array. Needs a.mu.
func (a *actor) pop() actorTask {
	t := a.queue[a.head]
	a.queue[a.head] = actorTask{}
	a.head, a.n = (a.head+1)%len(a.queue), a.n-1
	if a.n == 0 {
		a.head = 0
		if len(a.queue) > mailboxKeep {
			a.queue = nil
		}
	}
	return t
}

// push appends a task, doubling a full ring. Needs a.mu.
func (a *actor) push(t actorTask) {
	if a.n == len(a.queue) {
		grown := make([]actorTask, max(4, 2*a.n))
		copy(grown, a.queue[a.head:])
		copy(grown[len(a.queue)-a.head:], a.queue[:a.head])
		a.queue, a.head = grown, 0
	}
	a.queue[(a.head+a.n)%len(a.queue)] = t
	a.n++
}

// admit queues a task for the actor loop. Needs a.mu.
func (a *actor) admit(t actorTask) {
	a.push(t)
	a.pending++
	a.w.rt.queuedTasks.Add(1)
}

func newActor(w *ioWrapper) *actor {
	a := &actor{w: w, bound: w.rt.cfg.MailboxBound}
	a.cond = sync.NewCond(&a.mu)
	go a.run()
	return a
}

func (a *actor) run() {
	for {
		a.mu.Lock()
		for a.queued() == 0 && a.closed == nil {
			a.cond.Wait()
		}
		if a.queued() == 0 {
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
				a.w.rt.deadlineDrops.Add(1)
			}
		} else if t.fut != nil && t.fut.resolved() {
			res.err = context.Canceled
		} else {
			res.val, res.err = a.w.invoke(ctx, t.method, t.args, t.batch)
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

// enqueue adds a task without blocking: to the queue, or, while the actor
// is paused for a migration, to the tasks held beside it. It fails once the
// mailbox is closed — with the forward (a *errs.MovedError) after a move, so
// the caller re-routes — and when a full bounded mailbox sheds the task.
func (a *actor) enqueue(t actorTask) error {
	a.mu.Lock()
	if a.closed != nil && !a.closing {
		err := a.closed
		a.mu.Unlock()
		return err
	}
	if a.bound > 0 && a.queued()+len(a.held) >= a.bound {
		a.mu.Unlock()
		a.w.rt.noteShed()
		return errs.WithRetryAfter(
			fmt.Errorf("core: mailbox full (%d queued): %w", a.bound, errs.ErrOverloaded),
			shedRetryAfter)
	}
	if a.paused || a.closing {
		a.held = append(a.held, t)
	} else {
		a.admit(t)
	}
	a.cond.Broadcast()
	a.mu.Unlock()
	return nil
}

// pause claims the actor for a migration — at most one at a time; the
// paused flag is the claim — and blocks until every task queued before it
// has executed, the quiescence point the migration snapshots at. Tasks
// enqueued from here on are held. The claim is refused when the actor is
// already claimed, moved or stopped, and the wait aborts (rolling the claim
// back) when ctx ends — a task that never finishes fails the migration
// instead of wedging it — or when a racing destroy stops the actor.
// Balanced by resume (migration failed) or markMoved (succeeded).
func (a *actor) pause(ctx context.Context) error {
	a.mu.Lock()
	switch {
	case a.closed != nil:
		err := a.closed
		a.mu.Unlock()
		return err
	case a.paused:
		a.mu.Unlock()
		return errActorMigrating
	}
	a.paused = true
	if err := a.waitUntil(ctx, func() bool { return a.pending == 0 || a.closed != nil }); err != nil {
		a.resumeLocked()
		a.mu.Unlock()
		return err
	}
	if a.closed != nil {
		// A destroy won the race: the object must not be resurrected
		// elsewhere from a snapshot of its corpse.
		a.mu.Unlock()
		return errActorStopped
	}
	a.mu.Unlock()
	return nil
}

// waitUntil parks on the mailbox's condition until done reports true and
// returns nil, or returns ctx.Err() once ctx has ended first. The end of ctx
// wakes it (context.AfterFunc), so an abandoned wait leaves nothing behind.
// Needs a.mu, which it holds again when it returns.
func (a *actor) waitUntil(ctx context.Context, done func() bool) error {
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			a.mu.Lock()
			a.cond.Broadcast()
			a.mu.Unlock()
		})
		defer stop()
	}
	for !done() {
		if err := ctx.Err(); err != nil {
			return err
		}
		a.cond.Wait()
	}
	return nil
}

// resume reopens a paused mailbox.
func (a *actor) resume() {
	a.mu.Lock()
	a.resumeLocked()
	a.mu.Unlock()
}

// resumeLocked reopens the mailbox: the held tasks join the queue, in
// order, behind the ones queued before the pause. Held tasks of a mailbox
// that is closing are end's to turn away. Needs a.mu.
func (a *actor) resumeLocked() {
	a.paused = false
	if a.closed == nil {
		for _, t := range a.held {
			a.admit(t)
		}
		clear(a.held)
		a.held = a.held[:0]
	}
	a.cond.Broadcast()
}

// end closes the mailbox with err, which every later enqueue fails with; a
// forward, once set, stays. The held tasks are turned away with it first
// (refuse), in order and outside the lock; a task enqueued meanwhile is held
// behind them and turned away by the same loop, so no caller's later call
// fails with the forward, and follows it, before an earlier one did. A
// second end while the first is turning tasks away only sets err. Needs
// a.mu, which it releases while it settles.
func (a *actor) end(err error) {
	if _, moved := a.closed.(*errs.MovedError); !moved {
		a.closed = err
	}
	a.paused = false
	if a.closing {
		return
	}
	a.closing = true
	for len(a.held) > 0 {
		held, err := a.held, a.closed
		a.held = nil
		a.mu.Unlock()
		for i := range held {
			held[i].refuse(err)
		}
		a.mu.Lock()
	}
	a.closing = false
	a.cond.Broadcast()
}

// markMoved terminates a paused actor after a successful migration: the
// held tasks, and every later enqueue, fail with the forward, and the
// mailbox goroutine exits.
func (a *actor) markMoved(mv *errs.MovedError) {
	a.mu.Lock()
	a.end(mv)
	a.mu.Unlock()
}

// abort terminates an actor whose state the cluster has moved past (a
// stale copy being demoted after a failover promotion): unlike markMoved
// it does not wait for the queue to drain — queued tasks would execute
// against superseded state and their effects silently vanish — but turns
// every queued task away with the forward, ahead of the held ones, so its
// caller re-routes and retries at the fresh copy. The task executing at
// this instant (if any) still completes; its caller received — or will
// receive — a reply computed on state one failover behind, the unavoidable
// window while a copy does not yet know it was superseded.
func (a *actor) abort(mv *errs.MovedError) {
	a.mu.Lock()
	queued := make([]actorTask, 0, a.n+len(a.held))
	for a.n > 0 {
		queued = append(queued, a.pop())
	}
	a.pending -= len(queued)
	a.w.rt.queuedTasks.Add(int64(-len(queued)))
	a.held = append(queued, a.held...)
	a.end(mv)
	a.mu.Unlock()
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
	t.ctx, t.to = ctx, replyChan(reply)
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

// waitCtx blocks until the mailbox has run, or turned away, every task it
// took, held ones included, or until ctx ends. A ctx that has ended already
// is its answer, drained mailbox or not.
func (a *actor) waitCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.waitUntil(ctx, func() bool { return a.pending == 0 && len(a.held) == 0 && !a.closing })
}

// stop turns the held tasks away, drains the queue and terminates the
// goroutine.
func (a *actor) stop() {
	a.mu.Lock()
	a.end(errActorStopped)
	for a.pending > 0 {
		a.cond.Wait()
	}
	a.mu.Unlock()
}

// actorEndpoint adapts an actor to the remoting server so remote callers
// share the mailbox (and therefore the ordering) of local callers.
type actorEndpoint struct {
	a *actor
}

// Enqueue takes a runtime call into the mailbox without waiting for it: ctx
// is the request's, carrying the remote caller's deadline into the mailbox,
// and to, the server's record of the request, hears the outcome. A batch
// executes as one task, atomically with respect to other calls.
func (e *actorEndpoint) Enqueue(ctx context.Context, call, method string, args []any, to remoting.Completer) error {
	t := actorTask{ctx: ctx, method: method, args: args, to: to}
	switch call {
	case "Invoke1":
	case "InvokeBatch":
		t.batch = true
	default:
		return &dispatch.NoMethodError{Obj: e, Method: call}
	}
	return e.a.enqueue(t)
}
