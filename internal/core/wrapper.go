package core

// This file holds ioWrapper, which runs, times and deduplicates calls.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dispatch"
	"repro/internal/errs"
	"repro/internal/metrics"
	"repro/internal/remoting"
	"repro/internal/wire"
)

// ioWrapper wraps an implementation object, measuring execution times for
// grain-size estimation and replaying batches (the processN method the
// preprocessor adds in Fig. 7). Its methods take the caller's context first
// so the remoting dispatcher injects the request context, which in turn is
// injected into context-aware implementation methods.
type ioWrapper struct {
	rt    *Runtime
	class string
	obj   any
	uri   string

	// calls and execNS are the class's grain counters (Runtime.wrap).
	calls, execNS *metrics.Counter

	// virt is set on actor-hosted virtual objects of a replicated class:
	// after each call, the wrapper snapshots
	// obj and ships the state to the ring-successor replicas (replicate.go).
	// Invoke1/InvokeBatch run in the actor goroutine for these objects,
	// so the snapshot reads quiesced state. seq counts applied calls;
	// replicas order snapshots by (generation, seq).
	virt *VirtualConfig
	seq  atomic.Uint64

	// gen is the directory generation THIS copy was activated at. Snapshot
	// ships must stamp this — never the directory's current generation: a
	// promotion census can demote this copy and repoint the directory at
	// the winning lineage's generation while a call is still executing
	// here, and a ship stamped with the directory's new generation would
	// smuggle the doomed lineage's state into the winner's replica chain.
	gen atomic.Uint64

	// snapMu guards the last shipped snapshot, re-shipped by the
	// reconciliation pass when a partitioned peer recovers.
	snapMu   sync.Mutex
	lastSnap []byte
	lastSeq  uint64

	// dedup remembers replies of executed token-bearing calls so a retry
	// of an already-executed call replays the recorded reply instead of
	// executing again. An agglomerated object's proxy calls through this
	// same wrapper; those calls never leave the caller, never retry and
	// carry no token, so they never consult it.
	dedup *remoting.DedupLRU

	// fenced is set by a promotion census that read this copy's last
	// snapshot while promoting the object elsewhere (replicaAt): from that
	// point on, calls here must not be acknowledged — the promoted lineage
	// was built without them and an acknowledgement would be lost when this
	// copy demotes. Callers re-resolve to the promoted copy instead.
	fenced atomic.Bool

	// shipAck tracks, per replica address, the dedup write counter that
	// replica acknowledged, so synchronous snapshot ships carry only the
	// dedup records added since (replicate.go shipTo) instead of the whole
	// LRU on every call. Reset to zero (full resend) when a receiver
	// reports it cannot extend its chain.
	shipMu  sync.Mutex
	shipAck map[string]uint64
}

func (w *ioWrapper) shipAckFor(addr string) uint64 {
	w.shipMu.Lock()
	defer w.shipMu.Unlock()
	return w.shipAck[addr]
}

func (w *ioWrapper) setShipAck(addr string, stamp uint64) {
	w.shipMu.Lock()
	defer w.shipMu.Unlock()
	if w.shipAck == nil {
		w.shipAck = make(map[string]uint64)
	}
	w.shipAck[addr] = stamp
}

// errFenced is the refusal a fenced stale copy answers every call with. It
// wraps ErrNodeDown so callers take the same re-resolve path an owner death
// does — the promoted lineage is where their calls must land.
func errFenced(uri string) error {
	return fmt.Errorf("core: %s: this copy is fenced pending promotion elsewhere: %w", uri, errs.ErrNodeDown)
}

// Invoke1 executes one method invocation on the IO.
func (w *ioWrapper) Invoke1(ctx context.Context, method string, args []any) (any, error) {
	return w.invoke(ctx, method, args, false)
}

// InvokeBatch replays an aggregate message, the processN of Fig. 7: calls
// is a list of argument lists for method, one call each, in order. It
// returns the number of calls, and is deduplicated, timed and replicated as
// one call is.
func (w *ioWrapper) InvokeBatch(ctx context.Context, method string, calls []any) (int, error) {
	res, err := w.invoke(ctx, method, calls, true)
	n, _ := res.(int)
	return n, err
}

// invoke runs one runtime call on the IO: method(args), or with batch set
// one call of method for each argument list in args (runBatch). A call
// carrying an idempotency token is deduplicated: a token already recorded
// means the call executed here before (a retry whose reply was lost), so the
// recorded reply is replayed instead of executing again.
func (w *ioWrapper) invoke(ctx context.Context, method string, args []any, batch bool) (any, error) {
	if w.fenced.Load() {
		return nil, errFenced(w.uri)
	}
	tok, hasTok := remoting.TokenFromContext(ctx)
	if hasTok {
		if rep, ok := w.dedup.Get(tok); ok {
			// The recorded call may have executed and then failed its
			// synchronous replication ack: re-ship the current state before
			// replaying, so the replayed acknowledgement is as durable as
			// the original success would have been.
			if w.virt != nil {
				if rerr := w.rt.reshipForDedup(ctx, w); rerr != nil {
					return nil, rerr
				}
			}
			return rep.Result, dedupReplayError(rep)
		}
	}
	start, calls := time.Now(), 1
	var res any
	var err error
	if batch {
		calls = len(args)
		res, err = w.runBatch(ctx, method, args)
	} else if res, err = dispatch.InvokeCtx(ctx, w.obj, method, args); err != nil {
		err = memberError{err}
	}
	w.grain(time.Since(start) / time.Duration(max(calls, 1)))
	record := hasTok && dedupRecordable(err)
	rep := remoting.DedupReply{
		Result:  res,
		ErrMsg:  errMsg(err),
		ErrCode: errs.Code(err),
		IsErr:   err != nil,
	}
	if w.virt != nil && (err == nil || batch) {
		// A batch whose member failed ran every other member (runBatch), so
		// its effects ship as a success's do, and the first error is
		// returned after them.
		//
		// The dedup record is committed by replicateAfterCalls, inside the
		// same critical section that publishes the snapshot it is embedded
		// in: a promotion census reading (snapshot, dedup memory) under that
		// lock sees this call in both or in neither — a record without its
		// effects would replay an acknowledgement for state the promoted
		// lineage does not have, and effects without their record would
		// re-execute the retry of a call refused by the fence below.
		var rec *pendingRecord
		if record {
			rec = &pendingRecord{tok: tok, rep: rep}
			record = false
		}
		if rerr := w.rt.replicateAfterCalls(ctx, w, calls, rec); rerr != nil {
			// Synchronous replication failed: surface it so the caller
			// retries (and its retry re-replicates) instead of receiving an
			// acknowledgement for state no replica has.
			return nil, rerr
		}
	}
	if record {
		// Non-replicated path (plain objects, application errors): no
		// snapshot to pair with, record directly.
		w.dedup.Put(tok, rep)
	}
	if w.fenced.Load() {
		// A promotion census fenced this copy while the call was in
		// flight. The census reads the (snapshot, dedup) pair after setting
		// the fence, and this call committed its pair before replicating —
		// so a call refused here either made it into the promoted lineage
		// whole (its retry replays the recorded reply) or not at all (its
		// retry executes there once).
		return nil, errFenced(w.uri)
	}
	return res, err
}

// grain counts one call of d into the class's grain counters; a batch
// counts as one call of its mean time.
func (w *ioWrapper) grain(d time.Duration) {
	w.calls.Add(1)
	w.execNS.Add(d.Nanoseconds())
}

// dedupRecordable reports whether an invocation outcome is worth
// remembering for replay. Outcomes that never executed the method body
// (refusals and cut-offs) are not: replaying them would pin a transient
// failure onto every retry of the token.
func dedupRecordable(err error) bool {
	if err == nil {
		return true
	}
	return !errors.Is(err, context.DeadlineExceeded) &&
		!errors.Is(err, context.Canceled) &&
		!errors.Is(err, errs.ErrOverloaded) &&
		!errors.Is(err, errs.ErrObjectMoved) &&
		!errors.Is(err, errs.ErrObjectDestroyed) &&
		!errors.Is(err, errs.ErrNodeDown)
}

func errMsg(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// dedupReplayError rebuilds the error of a recorded outcome, re-rooting it
// at the matching sentinel so errors.Is classification survives the replay.
func dedupReplayError(rep remoting.DedupReply) error {
	if !rep.IsErr {
		return nil
	}
	if sent := errs.Sentinel(rep.ErrCode); sent != nil {
		return fmt.Errorf("%s: %w", rep.ErrMsg, sent)
	}
	return errors.New(rep.ErrMsg)
}

// runBatch runs method once for each argument list in calls, in order. A
// remote batch's lists are still pending, and each is bound the way a single
// call's is, element by element where the method takes it
// (wire.Pending.List). A call that fails skips none after it: runBatch
// returns the number of calls, or the first error as a memberError.
func (w *ioWrapper) runBatch(ctx context.Context, method string, calls []any) (any, error) {
	var first error
	for i, c := range calls {
		var args []any
		var err error
		switch c := c.(type) {
		case *wire.Pending:
			args, err = c.List()
		case []any:
			args = c
		default:
			err = fmt.Errorf("core: batch element %d is %T, want argument list", i, c)
		}
		if err == nil {
			_, err = dispatch.InvokeCtx(ctx, w.obj, method, args)
		}
		if first == nil && err != nil {
			first = memberError{err}
		}
	}
	if first != nil {
		return nil, first
	}
	return len(calls), nil
}

// memberError is the failure of a call's own method, alone or in a batch.
// The method ran, so it unwraps to none of the outcomes that read as a
// refusal of the call (moved, node down, destroyed, overloaded), which would
// have its caller run it, or a batch's members that succeeded, again. A
// context's end does unwrap: the method gave up on its caller's deadline.
type memberError struct{ error }

func (e memberError) Unwrap() error {
	if dedupRecordable(e.error) || errors.Is(e.error, context.DeadlineExceeded) || errors.Is(e.error, context.Canceled) {
		return e.error
	}
	return nil
}
