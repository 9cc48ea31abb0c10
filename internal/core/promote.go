package core

// This file holds the decisions of virtual-object replication and
// promotion as pure functions: no I/O, lock, clock, goroutine or Runtime.
// virtual.go and replicate.go call them and keep the RPCs, the timeouts, the
// locks, the fence and the demotion around them. TestPromoteIsPure holds that
// contract, so a model of the protocol can call the same functions.

import "fmt"

// fresher reports whether the snapshot (gen, seq) orders strictly after
// (ogen, oseq): a higher generation wins, and within one generation the
// higher seq. It is the one order every replica, census and deposit uses.
func fresher(gen, seq, ogen, oseq uint64) bool {
	return gen > ogen || (gen == ogen && seq > oseq)
}

// activationGen is the generation a new activation takes: one above the
// largest generation this node has heard of. The callers pass the
// directory entry, a remote resolve, the promoted state and a migration
// abort marker (a poisoned generation stays burned, see
// Runtime.abortAccept).
func activationGen(seen ...uint64) uint64 {
	var top uint64
	for _, g := range seen {
		top = max(top, g)
	}
	return top + 1
}

// censusQuorum reports whether a promotion census that reached that many
// of a cluster's size nodes, self included, may promote: a majority may.
// A synchronous acknowledgement lives on at least two nodes, owner and one
// replica; any majority intersects that pair, so a majority census sees
// every acknowledged call. A minority refuses to activate rather than
// resurrect stale state.
func censusQuorum(reached, size int) bool { return reached > size/2 }

// censusFence reports whether a copy hosted at hostedGen must be fenced by
// a census promoting at candidate: the census promotes past it, so calls
// acknowledged there from now on would be lost at its demotion. A copy at
// the candidate generation or above is the lineage being confirmed.
func censusFence(hostedGen, candidate uint64) bool { return hostedGen < candidate }

// judgeShip is a replica's verdict on a snapshot ship (gen, seq) for uri
// whose dedup records extend the shipper's chain past base (0: the full
// memory), given the generation promised to a census and the replica cur
// held here (nil: none). A ship below the promise or below cur's
// generation is refused with an error: acknowledging it would let a
// superseded owner acknowledge calls the cluster has moved past. An older
// seq at cur's generation is acknowledged and not applied. A delta that
// cur cannot extend (no replica, another generation, a stamp gap from a
// missed ship) asks for a full resend, and is not applied.
func judgeShip(uri string, promised uint64, cur *replicaState, gen, seq, base uint64) (apply, needFull bool, err error) {
	switch {
	case gen < promised:
		return false, false, fmt.Errorf("core: replicate %s: generation %d superseded by a promotion census at %d", uri, gen, promised)
	case cur == nil:
		return base == 0, base > 0, nil
	case gen < cur.gen:
		return false, false, fmt.Errorf("core: replicate %s: stale snapshot generation %d (replica holds %d)", uri, gen, cur.gen)
	case fresher(cur.gen, cur.seq, gen, seq):
		return false, false, nil
	case base > 0 && (cur.gen != gen || base > cur.dedupStamp):
		return false, true, nil
	}
	return true, false, nil
}
