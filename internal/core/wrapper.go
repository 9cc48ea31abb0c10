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

// Invoke1 executes one method invocation on the IO. Calls carrying an
// idempotency token are deduplicated: a token already recorded means the
// call executed here before (a retry whose reply was lost), so the recorded
// reply is replayed instead of executing again.
func (w *ioWrapper) Invoke1(ctx context.Context, method string, args []any) (any, error) {
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
	start := time.Now()
	res, err := dispatch.InvokeCtx(ctx, w.obj, method, args)
	w.grain(time.Since(start))
	record := hasTok && dedupRecordable(err)
	rep := remoting.DedupReply{
		Result:  res,
		ErrMsg:  errMsg(err),
		ErrCode: errs.Code(err),
		IsErr:   err != nil,
	}
	if err == nil && w.virt != nil {
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
		if rerr := w.rt.replicateAfterCalls(ctx, w, 1, rec); rerr != nil {
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

// InvokeBatch replays an aggregate message: calls is a list of argument
// lists for method, decoded here when it is a remote call's pending list.
// It returns the number of calls applied.
func (w *ioWrapper) InvokeBatch(ctx context.Context, method string, calls []any) (int, error) {
	if w.fenced.Load() {
		return 0, errFenced(w.uri)
	}
	if err := wire.DecodeArgs(calls); err != nil {
		return 0, err
	}
	start := time.Now()
	for i, c := range calls {
		args, ok := c.([]any)
		if !ok {
			return i, fmt.Errorf("core: batch element %d is %T, want argument list", i, c)
		}
		if _, err := dispatch.InvokeCtx(ctx, w.obj, method, args); err != nil {
			return i, err
		}
	}
	if n := len(calls); n > 0 {
		w.grain(time.Since(start) / time.Duration(n))
		if w.virt != nil {
			if rerr := w.rt.replicateAfterCalls(ctx, w, n, nil); rerr != nil {
				return 0, rerr
			}
		}
	}
	return len(calls), nil
}
