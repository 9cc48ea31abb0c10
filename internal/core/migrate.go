package core

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"repro/internal/errs"
	"repro/internal/remoting"
	"repro/internal/wire"
)

// Migrate moves the parallel object published at uri from this node to
// toNode; see MigrateCtx.
func (rt *Runtime) Migrate(uri string, toNode int) error {
	return rt.MigrateCtx(context.Background(), uri, toNode)
}

// migrateTimeout caps a migration whose caller set no deadline: the pause
// drain and the state transfer must finish within it or the migration
// fails and the actor resumes. A mailbox that can never drain (a task that
// never returns) therefore costs a failed migration, not a wedged object.
const migrateTimeout = 10 * time.Second

// MigrateCtx live-migrates a parallel object hosted on this node:
//
//  1. the actor mailbox is paused — new calls are held beside the queue,
//     without blocking their callers, while the queued calls drain;
//  2. the implementation object's state is snapshotted through the wire
//     codec, which walks the object by reflection (exported fields travel);
//  3. the target node's object manager re-creates the object under the
//     same URI at a bumped generation;
//  4. a forwarding tombstone replaces the actor endpoint (atomically, so a
//     racing call observes either the draining actor or the forward) and
//     the held calls are turned away, in order, with the *errs.MovedError
//     that re-routes them (a local post is posted again at the target).
//
// Calls that were held observe at most one transparent retry; calls
// that executed before the pause are in the snapshot. Per-object call
// ordering is preserved: nothing executes at the target before the source
// mailbox fully drained.
//
// If uri is not hosted here, a *errs.MovedError is returned when the
// directory knows a forward (the caller can chase it), ErrObjectDestroyed
// otherwise.
func (rt *Runtime) MigrateCtx(ctx context.Context, uri string, toNode int) error {
	if toNode == rt.cfg.NodeID {
		if rt.actor(uri) != nil {
			return nil
		}
		// Not hosted here (any more): report the forward when the
		// directory knows one, so "migrate it back home" through a stale
		// handle chases to the current host instead of failing.
		if loc, ok := rt.dirLookup(uri); ok && loc.Node != rt.cfg.NodeID {
			return &errs.MovedError{URI: uri, Node: loc.Node, Addr: loc.Addr, Gen: loc.Gen}
		}
		return fmt.Errorf("core: migrate %s: not hosted on node %d: %w", uri, toNode, errs.ErrObjectDestroyed)
	}
	target, ok := rt.peerFor(toNode)
	if !ok || target.om == nil {
		return fmt.Errorf("core: migrate %s: unknown target node %d", uri, toNode)
	}
	a := rt.actor(uri)
	if a == nil {
		if loc, ok := rt.dirLookup(uri); ok && loc.Node != rt.cfg.NodeID {
			return &errs.MovedError{URI: uri, Node: loc.Node, Addr: loc.Addr, Gen: loc.Gen}
		}
		return fmt.Errorf("core: migrate %s: %w", uri, errs.ErrObjectDestroyed)
	}

	// The drain + transfer are always bounded by migrateTimeout, even
	// when the caller's deadline is looser (a periodic rebalance hands in
	// its whole interval): a mailbox that cannot drain must fail the
	// migration in seconds, not pause its callers until the caller's
	// deadline.
	if dl, ok := ctx.Deadline(); !ok || time.Until(dl) > migrateTimeout {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, migrateTimeout)
		defer cancel()
	}
	if err := a.pause(ctx); err != nil {
		return fmt.Errorf("core: migrate %s: drain mailbox: %w", uri, err)
	}
	moved := false
	defer func() {
		if !moved {
			a.resume()
		}
	}()

	registerStateType(a.w.obj)
	state, err := wire.BinFmt{}.Marshal(a.w.obj)
	if err != nil {
		return fmt.Errorf("core: migrate %s: snapshot %T: %w", uri, a.w.obj, err)
	}
	gen := uint64(1)
	if loc, ok := rt.dirLookup(uri); ok {
		gen = loc.Gen
	}
	newGen := gen + 1
	addr, err := omAcceptObject(a.w.class, uri, newGen, state).on(ctx, target.om)
	if err != nil {
		// The transfer may have landed — or still be in flight — even
		// though its reply did not arrive (lost reply, expired deadline;
		// server dispatch is concurrent, so ordering cannot cancel it).
		// The source copy stays authoritative: resume it immediately (no
		// caller should stall behind the compensation RPCs), burn TWO
		// generations — the aborted one and the one the aborted copy
		// would use if it migrated onward before the abort lands, which
		// is what lets the abort chase that hop without ever touching a
		// later legitimate retry's lineage — then best-effort abort the
		// transfer: AbortAccept destroys a committed copy, poisons
		// newGen so an in-flight transfer cannot commit, and chases the
		// one-hop onward forward. If even the abort cannot reach the
		// target the split remains possible, but only behind a partition
		// that already failed both the transfer and its compensation.
		a.resume()
		moved = true // the deferred resume is no longer needed
		if rt.actor(uri) == a {
			// Unless a racing destroy removed the object during the
			// transfer — re-inserting a self entry would resurrect the
			// destroyed URI in the directory.
			rt.dirUpdate(uri, ObjLoc{Node: rt.cfg.NodeID, Addr: rt.Addr(), Gen: newGen + 1})
		}
		abortTransfer(target, uri, newGen)
		return fmt.Errorf("core: migrate %s to node %d: %w", uri, toNode, err)
	}
	if addr == "" {
		addr = target.addr
	}

	mv := &errs.MovedError{URI: uri, Node: toNode, Addr: addr, Gen: newGen}
	// The commit — remove the actor, swap in the tombstone, move the load
	// and directory entry — happens in one actorsMu critical section:
	// destroyLocal also starts by taking actorsMu, so a racing destroy
	// observes either the live actor (and wins below) or the fully
	// committed tombstone state, never a half-committed mix that would
	// double-decrement the load or resurrect a destroyed object. The
	// tombstone stays while calls use it and goes, with its directory
	// forward, after forwardIdle with none (leaveForward).
	rt.actorsMu.Lock()
	if rt.actors[uri] != a {
		// A destroy raced the transfer and already unpublished the
		// object here; undo the copy the target just created instead of
		// committing a tombstone that would resurrect it.
		rt.actorsMu.Unlock()
		abortTransfer(target, uri, newGen)
		return fmt.Errorf("core: migrate %s: %w", uri, errs.ErrObjectDestroyed)
	}
	delete(rt.actors, uri)
	rt.leaveForward(uri, mv)
	rt.load.Add(-1)
	rt.dirUpdate(uri, ObjLoc{Node: toNode, Addr: addr, Gen: newGen})
	rt.actorsMu.Unlock()
	a.markMoved(mv)
	moved = true
	rt.count("objects_migrated_out")
	return nil
}

// acceptObject is the receiving half of a migration: re-create class under
// uri at generation gen, restoring the snapshotted state. It is idempotent
// against the channel's at-most-once caveat — a duplicate or stale
// transfer (this node's directory already knows the object at gen or
// newer, whether still hosted here or forwarded onward) reports success
// without re-creating, so a late duplicate can never resurrect old state
// over a live copy or a forwarding tombstone.
func (rt *Runtime) acceptObject(class, uri string, gen uint64, state []byte) (string, error) {
	if rt.transferAborted(uri, gen) {
		return "", fmt.Errorf("core: accept %s: transfer at generation %d was aborted", uri, gen)
	}
	exists := rt.actor(uri) != nil
	if loc, ok := rt.dirLookup(uri); ok && loc.Gen >= gen {
		if exists || loc.Node != rt.cfg.NodeID {
			return rt.Addr(), nil
		}
	}
	if exists {
		return "", fmt.Errorf("core: accept %s: already hosted on node %d", uri, rt.cfg.NodeID)
	}
	factory, err := rt.factoryFor(class)
	if err != nil {
		return "", err
	}
	obj := factory()
	registerStateType(obj)
	if len(state) > 0 {
		snap, err := wire.BinFmt{}.Unmarshal(state)
		if err != nil {
			return "", fmt.Errorf("core: accept %s: decode state: %w", uri, err)
		}
		obj, err = adoptState(obj, snap)
		if err != nil {
			return "", fmt.Errorf("core: accept %s: %w", uri, err)
		}
	}
	// The dedup memory starts empty here: records do not travel with a
	// migration, but token-bearing calls from now on are deduplicated.
	w := rt.wrap(class, obj, uri)
	w.gen.Store(gen)
	if cfg, ok := rt.virtualConfig(class); ok && isVirtualURI(uri) {
		// A migrated virtual object keeps replicating from its new host.
		c := cfg
		w.virt = &c
	}
	a := newActor(w)
	rt.actorsMu.Lock()
	if rt.transferAborted(uri, gen) {
		// The abort arrived while the state was being rebuilt.
		rt.actorsMu.Unlock()
		a.stop()
		return "", fmt.Errorf("core: accept %s: transfer at generation %d was aborted", uri, gen)
	}
	if _, raced := rt.actors[uri]; raced {
		rt.actorsMu.Unlock()
		a.stop()
		return rt.Addr(), nil
	}
	rt.actors[uri] = a
	rt.server.Marshal(uri, &actorEndpoint{a: a})
	rt.load.Add(1)
	rt.dirUpdate(uri, ObjLoc{Node: rt.cfg.NodeID, Addr: rt.Addr(), Gen: gen})
	rt.actorsMu.Unlock()
	rt.clearAbort(uri, gen)
	rt.count("objects_migrated_in")
	return rt.Addr(), nil
}

// abortTransferTimeout is the per-attempt deadline of a migration
// compensation. It is deliberately generous relative to probe timeouts: a
// target that was merely slow (not partitioned) when the transfer's reply
// was lost must still receive the abort, or the in-flight transfer could
// commit behind the source's back.
const abortTransferTimeout = 3 * time.Second

// abortTransfer fires the best-effort compensation of a failed transfer
// at the target: poison the generation and destroy any copy that already
// committed (see Runtime.abortAccept). Two attempts, each with its own
// deadline; if both fail the target was unreachable for seconds on end —
// the split-brain residue is then genuinely confined to partitions. It
// runs after the source resumed (the source stays authoritative), so no
// caller stalls behind it.
func abortTransfer(target peer, uri string, gen uint64) {
	for attempt := 0; attempt < 2; attempt++ {
		cctx, cancel := context.WithTimeout(context.Background(), abortTransferTimeout)
		_, err := omAbortAccept(uri, gen).on(cctx, target.om)
		cancel()
		if err == nil {
			return
		}
	}
}

// transferAborted reports whether a transfer of uri at gen was aborted.
func (rt *Runtime) transferAborted(uri string, gen uint64) bool {
	rt.abortMu.Lock()
	defer rt.abortMu.Unlock()
	return rt.aborts[uri] >= gen
}

// clearAbort erases an abort marker once a newer-generation transfer
// committed, so markers do not accumulate beyond failed migrations.
func (rt *Runtime) clearAbort(uri string, gen uint64) {
	rt.abortMu.Lock()
	if rt.aborts[uri] < gen {
		delete(rt.aborts, uri)
	}
	rt.abortMu.Unlock()
}

// abortAccept is the compensation half of a failed migration: it poisons
// generation gen for uri — an AcceptObject at or below it can no longer
// commit, even one still in flight (server dispatch is concurrent, so the
// abort may be executed before the transfer it undoes) — and destroys a
// copy that already committed at or below gen. The source burns the
// aborted generation, so its next migration attempt uses a fresh one the
// marker does not cover.
func (rt *Runtime) abortAccept(uri string, gen uint64) {
	rt.abortMu.Lock()
	if rt.aborts[uri] < gen {
		rt.aborts[uri] = gen
	}
	rt.abortMu.Unlock()
	// The hosted/directory inspection happens under actorsMu, the lock
	// acceptObject's commit holds across its own marker re-check and
	// registration: the abort therefore observes the accept either fully
	// committed (and destroys the copy) or not yet committed (and the
	// accept's re-check sees the marker and refuses) — never a half
	// state that slips between both guards.
	rt.actorsMu.Lock()
	hosted := rt.actors[uri] != nil
	loc, ok := rt.dirLookup(uri)
	rt.actorsMu.Unlock()
	if hosted && ok && loc.Node == rt.cfg.NodeID && loc.Gen <= gen {
		rt.destroyLocal(uri)
		return
	}
	if ok && loc.Node != rt.cfg.NodeID && loc.Gen == gen+1 {
		// The aborted copy committed here and already migrated onward
		// before the abort arrived: its hop is at exactly gen+1. Chase
		// it. The source burns two generations on a failed transfer, so
		// a later legitimate retry's lineage starts at gen+2 or above
		// and can never match this rule — the chase only ever reaches
		// descendants of the transfer being aborted.
		om := remoting.NewObjRef(rt.cfg.Channel, loc.Addr, omURI)
		cctx, cancel := context.WithTimeout(context.Background(), abortTransferTimeout)
		defer cancel()
		_, _ = omAbortAccept(uri, loc.Gen).on(cctx, om) //nolint:errcheck // best effort
	}
}

// adoptState replaces or fills the factory-made obj with the decoded
// snapshot. The snapshot decodes to the registered struct (pointer or
// value); it must match the factory's concrete type.
func adoptState(obj, snap any) (any, error) {
	ov := reflect.ValueOf(obj)
	sv := reflect.ValueOf(snap)
	switch {
	case sv.Type() == ov.Type():
		return snap, nil
	case ov.Kind() == reflect.Pointer && !ov.IsNil() && sv.Type() == ov.Type().Elem():
		ov.Elem().Set(sv)
		return obj, nil
	}
	return nil, fmt.Errorf("core: state snapshot is %T, factory makes %T", snap, obj)
}

// peerFor returns the peer record of a node id.
func (rt *Runtime) peerFor(node int) (peer, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, p := range rt.peers {
		if p.node == node {
			return p, true
		}
	}
	return peer{}, false
}
