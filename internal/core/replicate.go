package core

// This file holds a virtual object's replicas: snapshot ships and deposits.

import (
	"context"
	"fmt"

	"repro/internal/errs"
	"repro/internal/remoting"
	"repro/internal/wire"
)

// replicaState is one passive replica held on this node: the freshest
// (generation, seq)-ordered snapshot received from the object's owner,
// plus the owner's dedup memory at that point — a promoted replica must
// recognise retries of calls the dead owner already executed.
type replicaState struct {
	gen   uint64
	seq   uint64
	state []byte
	// dedup mirrors the owner's record LRU. It is an LRU (not a slice) so
	// an incremental ship applies in O(records shipped): per-call
	// synchronous ships would otherwise rebuild an O(accumulated-records)
	// list on every call — a tax that grows as the object ages, exactly
	// what incremental shipping exists to avoid. Put order is the owner's
	// recency order, so this LRU evicts in the owner's eviction order too.
	dedup *remoting.DedupLRU
	// dedupStamp is the owner's dedup write counter this replica's records
	// are complete through: an incremental ship whose base exceeds it has a
	// gap (a missed ship) and is refused in favour of a full resend.
	dedupStamp uint64
}

// newReplica builds a passive replica at (gen, seq) that holds its own
// copies of state and recs: the state may alias an RPC receive frame, and a
// long-lived replica should not pin a whole frame per deposit (nor may it
// keep []byte results aliasing one inside the records).
func (rt *Runtime) newReplica(gen, seq uint64, state []byte, recs []remoting.DedupRecord) *replicaState {
	st := &replicaState{gen: gen, dedup: remoting.NewDedupLRU(rt.cfg.DedupPerObject)}
	st.deposit(seq, state, recs)
	return st
}

// deposit moves st to seq with a copy of state, and replays recs into its
// dedup memory. Incoming records are in the owner's recency order, and a
// restamped token moves to the front on Put, so eviction order keeps
// mirroring the owner's. The caller holds replMu.
func (st *replicaState) deposit(seq uint64, state []byte, recs []remoting.DedupRecord) {
	recs = copyDedupRecords(recs)
	st.dedup.Import(recs)
	st.seq, st.state = seq, append([]byte(nil), state...)
	for _, r := range recs {
		st.dedupStamp = max(st.dedupStamp, r.Stamp)
	}
}

// info is st's answer to a promotion census: its snapshot and dedup
// memory, or no replica when st is nil. The caller holds replMu.
func (st *replicaState) info() replicaInfo {
	if st == nil {
		return replicaInfo{}
	}
	return replicaInfo{Has: true, Gen: st.gen, Seq: st.seq, State: st.state, Dedup: st.dedup.Export()}
}

// pendingRecord is a dedup record whose commit must be atomic with
// publishing the snapshot that carries its effects: publishSnapshot
// stores it inside the snapMu section that updates lastSnap, so a
// promotion census — which reads (lastSnap, dedup memory) under the same
// lock — adopts the call whole or not at all. A record adopted without its
// effects would replay an acknowledgement for state the promoted lineage
// does not have; effects adopted without their record would re-execute the
// fenced call's retry.
type pendingRecord struct {
	tok remoting.CallToken
	rep remoting.DedupReply
}

// commit stores the record in w's dedup memory; nil-safe so callers
// without a token pass nil.
func (r *pendingRecord) commit(w *ioWrapper) {
	if r != nil {
		w.dedup.Put(r.tok, r.rep)
	}
}

// replicateAfterCalls runs in the actor goroutine after n calls applied
// to a replicated virtual object: count them, marshal the (quiesced) state
// and ship it to the ring-successor replicas. The shipped snapshot must be
// acknowledged by at least one replica or the error fails the call — the
// caller retries against a cluster that either still has the owner (and
// re-replicates) or has promoted a replica that saw this update; either way
// an acknowledged call is never lost, at the cost that an unacknowledged
// one may execute twice (the channel's documented at-least-once trade).
//
// rec, when non-nil, is the calling invocation's dedup record; it is
// committed on every path out of this function — inside the snapMu
// section when a snapshot is published (see pendingRecord), directly
// otherwise.
func (rt *Runtime) replicateAfterCalls(_ context.Context, w *ioWrapper, n int, rec *pendingRecord) error {
	seq := w.seq.Add(uint64(n))
	if w.virt.Replicas <= 0 {
		rec.commit(w)
		return nil
	}
	return rt.publishSnapshot(w, seq, rec)
}

// reshipForDedup runs before a dedup hit replays a recorded reply on a
// replicated virtual object: the recorded call may have executed and then
// failed its replication ack (exactly why the retry is here), so the
// current state — which includes that call's effects and its dedup record
// — must reach a replica before the replay acknowledges it.
// Runs in the actor goroutine, so the state is quiesced.
func (rt *Runtime) reshipForDedup(_ context.Context, w *ioWrapper) error {
	if w.virt.Replicas <= 0 {
		return nil
	}
	return rt.publishSnapshot(w, w.seq.Load(), nil)
}

// publishSnapshot marshals w's quiesced state as the snapshot at seq,
// publishes it as w's last snapshot with rec committed in the same snapMu
// section (see pendingRecord), and ships it to the replicas, waiting for
// an acknowledgement. A snapshot that fails to marshal still commits rec,
// and fails its call: the caller will retry against this same live copy,
// and without the record the retry would re-execute a call whose effects
// this copy already has.
func (rt *Runtime) publishSnapshot(w *ioWrapper, seq uint64, rec *pendingRecord) error {
	registerStateType(w.obj)
	snap, err := wire.BinFmt{}.Marshal(w.obj)
	if err != nil {
		rec.commit(w)
		return fmt.Errorf("core: replicate %s: snapshot %T: %w", w.uri, w.obj, err)
	}
	w.snapMu.Lock()
	rec.commit(w)
	w.lastSnap, w.lastSeq = snap, seq
	w.snapMu.Unlock()
	return rt.shipSnapshot(w, snap, w.gen.Load(), seq, true)
}

// shipSnapshot sends one state snapshot of w — with w's dedup memory, so a
// promoted replica can recognise retries of executed calls — to the replica
// targets of its URI, in one fan-out round. A synchronous ship waits for
// every target and needs one acknowledgement (when any target is live at
// all); an asynchronous one waits for none: a lost ship leaves the replica
// where the next call's ship finds it.
func (rt *Runtime) shipSnapshot(w *ioWrapper, snap []byte, gen, seq uint64, awaitAck bool) error {
	targets := rt.replicaTargets(w.uri, w.virt.Replicas)
	if len(targets) == 0 {
		if awaitAck && rt.clusterSize() > 1 {
			// Synchronous mode in a real cluster with every replica
			// candidate unreachable: this node may be the minority side of a
			// partition, and an acknowledgement here would be discarded when
			// the majority's promotion demotes this copy. Refuse the call
			// instead of acking state only this node has.
			return fmt.Errorf("core: replicate %s: no reachable replica target for seq %d", w.uri, seq)
		}
		// Single-node cluster (or an asynchronous re-ship): proceed
		// unreplicated rather than refuse all progress.
		return nil
	}
	if !awaitAck {
		// Failover re-ships and reconciliations are rare, and learn nothing
		// of what a target holds: they carry the full dedup memory.
		newFanout(context.Background(), replicateShipTimeout, targets).sendAll(
			omReplicateVirtual(w.class, w.uri, gen, seq, rt.cfg.NodeID, rt.Addr(), snap, w.dedup.Export(), 0).remoteCall)
		return nil
	}
	f := newFanout(context.Background(), replicateSyncTimeout, targets)
	f.w, f.ship = w, omReplicateVirtual(w.class, w.uri, gen, seq, rt.cfg.NodeID, rt.Addr(), snap, nil, 0)
	for i := range f.calls {
		c := &f.calls[i]
		c.shipTo(0, w.shipAckFor(c.p.addr))
	}
	acked, first := false, error(nil)
	for c := range f.each {
		if c.err == nil {
			w.setShipAck(c.p.addr, c.upTo)
			acked = true
		} else if first == nil {
			first = c.err
		}
	}
	if !acked {
		return fmt.Errorf("core: replicate %s: no replica acknowledged seq %d: %w", w.uri, seq, first)
	}
	return nil
}

// shipTo ships its round's snapshot to c's replica on c.recs[r], carrying
// only the dedup records stamped after base, the ones the target has not
// acknowledged yet. Per-call synchronous ships would otherwise resend the
// whole LRU — up to the per-object cap — on every call, an O(cap) tax that
// grows as the object ages.
func (c *peerCall) shipTo(r int, base uint64) {
	recs, upTo := c.f.w.dedup.ExportSince(base)
	c.base, c.upTo = base, upTo
	ship := c.f.ship.remoteCall
	ship.args = append(ship.args[:7:7], recs, base) // the round's 7, then this target's
	c.send(r, ship)
}

// reship reads a ship's outcome on the completion path, and reports whether
// it sent the ship again: a target that cannot extend its chain (first
// contact, a missed ship, a generation change, a dropped replica) answers
// needFull and gets one full resend, on the call's second record, in the
// same round.
func (c *peerCall) reship() bool {
	var needFull bool
	if c.err == nil {
		needFull, c.err = c.f.ship.reply(c.v)
	}
	switch {
	case c.err != nil || !needFull:
		return false
	case c.base == 0:
		c.err = fmt.Errorf("core: replicate %s: %s refused a full dedup resend", c.f.w.uri, c.p.addr)
		return false
	}
	c.shipTo(1, 0)
	return true
}

// replicaTargets returns up to n live peers in ring order from uri's
// position, excluding this node — the owner's successors when called on
// the owner, and (crucially for reconciliation) the previous owner when
// called on a promoted host after the previous owner recovered.
func (rt *Runtime) replicaTargets(uri string, n int) []peer {
	nodes := rt.ring().walk(uri, n+1, func(node int) bool {
		return node != rt.cfg.NodeID && !rt.peerDown(node)
	})
	if len(nodes) > n {
		nodes = nodes[:n]
	}
	out := make([]peer, 0, len(nodes))
	for _, node := range nodes {
		if p, ok := rt.peerFor(node); ok && p.om != nil {
			out = append(out, p)
		}
	}
	return out
}

// replicateVirtual is the receiving half of snapshot shipping: keep the
// freshest (generation, seq) snapshot per URI (judgeShip) — and, when this
// node still hosts the object at a lower generation than the shipper's,
// recognise that a failover promoted past us (we were the owner behind a
// partition) and demote our stale copy into a forwarding tombstone. The
// class travels for the wire's sake; a replica's class is its URI's.
//
// dedupBase is the shipper's incremental-replication floor: the dedup
// records carry only entries stamped after it (dedupBase 0 means the full
// memory). A base this replica cannot extend returns needFull=true WITHOUT
// applying, and the shipper resends in full.
func (rt *Runtime) replicateVirtual(_, uri string, gen, seq uint64, fromNode int, fromAddr string, state []byte, dedup []remoting.DedupRecord, dedupBase uint64) (needFull bool, err error) {
	if !isVirtualURI(uri) {
		return false, fmt.Errorf("core: replicate: %q is not a virtual URI", uri)
	}
	if hostedGen, kept := rt.demoteStale(uri, ObjLoc{Node: fromNode, Addr: fromAddr, Gen: gen}); kept {
		// Our live copy is the fresher lineage. Refuse rather than ack:
		// a synchronous shipper treats the ack as "this call's state is
		// durable elsewhere", and the moved error routes its callers to
		// the copy that actually won.
		return false, &errs.MovedError{URI: uri, Node: rt.cfg.NodeID, Addr: rt.Addr(), Gen: hostedGen}
	}
	rt.replMu.Lock()
	defer rt.replMu.Unlock()
	cur := rt.replicas[uri]
	apply, needFull, err := judgeShip(uri, rt.promised[uri], cur, gen, seq, dedupBase)
	switch {
	case !apply:
		return needFull, err
	case cur != nil && cur.gen == gen:
		// An intact chain extended, or a full ship of this generation,
		// which replaces a dedup memory that has records.
		if dedupBase == 0 && cur.dedup.Len() > 0 {
			cur.dedup, cur.dedupStamp = remoting.NewDedupLRU(rt.cfg.DedupPerObject), 0
		}
		cur.deposit(seq, state, dedup)
	default:
		rt.replicas[uri] = rt.newReplica(gen, seq, state, dedup)
	}
	return false, nil
}

// demoteStale abandons this node's hosted copy of uri in favour of a
// strictly fresher one at to: the actor is removed and its queued calls
// failed with the forward (they would otherwise execute on state the
// cluster has already moved past), and the URI serves the same forwarding
// tombstone a migration leaves — stale proxies chase it with zero new
// client logic. A copy the directory knows here at to's generation or
// above (censusFence) is kept, and demoteStale reports kept and that
// copy's generation: decided under actorsMu, so no activation slips in
// between the check and the demotion.
func (rt *Runtime) demoteStale(uri string, to ObjLoc) (hostedGen uint64, kept bool) {
	rt.actorsMu.Lock()
	a := rt.actors[uri]
	if a == nil {
		rt.actorsMu.Unlock()
		return 0, false
	}
	if loc, ok := rt.dirLookup(uri); ok && loc.Node == rt.cfg.NodeID && !censusFence(loc.Gen, to.Gen) {
		rt.actorsMu.Unlock()
		return loc.Gen, true
	}
	mv := &errs.MovedError{URI: uri, Node: to.Node, Addr: to.Addr, Gen: to.Gen}
	delete(rt.actors, uri)
	rt.leaveForward(uri, mv)
	rt.load.Add(-1)
	rt.dirUpdate(uri, to)
	rt.actorsMu.Unlock()
	a.abort(mv)
	rt.count("stale_demotions")
	return 0, false
}

// dropReplica forgets this node's passive replica of uri (the owner
// destroyed the object).
func (rt *Runtime) dropReplica(uri string) {
	rt.replMu.Lock()
	delete(rt.replicas, uri)
	rt.replMu.Unlock()
}

// dropReplicasFor clears the local passive copy of uri and tells the
// ring-successor replicas to do the same — called when a live virtual
// object is destroyed, so its replicas cannot resurrect it at the next
// owner failure. Best effort: an unreachable replica keeps its copy, the
// residual risk any decentralised destroy has.
func (rt *Runtime) dropReplicasFor(uri string) {
	rt.dropReplica(uri)
	cfg, ok := rt.virtualConfig(classOfVirtualURI(uri))
	if !ok || cfg.Replicas <= 0 {
		return
	}
	newFanout(context.Background(), replicateShipTimeout, rt.replicaTargets(uri, cfg.Replicas)).sendAll(omDropReplica(uri).remoteCall)
}
