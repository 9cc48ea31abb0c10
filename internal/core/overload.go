package core

// This file implements admission control and the per-node overload
// signal. Bounded actor mailboxes (Config.MailboxBound) fast-fail with
// errs.ErrOverloaded instead of queueing without limit — under open-loop
// load an unbounded queue grows until every call times out, so shedding
// the excess is what keeps the latency of accepted calls bounded. The
// shed rate and aggregate mailbox occupancy fold into an OverloadGrade
// that rides the health-probe and load-probe replies, letting placement
// and virtual-object activation route around hot nodes.

import (
	"fmt"
	"time"

	"repro/internal/wire"
)

// OverloadGrade is a node's admission-control state, coarse enough to
// gossip on every probe reply and compare across nodes.
type OverloadGrade int

const (
	// OverloadNone: mailboxes have headroom (or admission control is off).
	OverloadNone OverloadGrade = iota
	// OverloadBusy: aggregate mailbox occupancy crossed half the node's
	// capacity; placement should prefer cooler peers.
	OverloadBusy
	// OverloadShedding: the node shed a call within the last
	// overloadShedWindow; placement and virtual-object activation route
	// around it entirely while any alternative exists.
	OverloadShedding
)

// String names the grade.
func (g OverloadGrade) String() string {
	switch g {
	case OverloadNone:
		return "none"
	case OverloadBusy:
		return "busy"
	case OverloadShedding:
		return "shedding"
	}
	return fmt.Sprintf("OverloadGrade(%d)", int(g))
}

// overloadShedWindow is how long a shed keeps the node graded
// OverloadShedding: long enough to survive probe intervals, short enough
// that a recovered node re-attracts traffic within a couple of probes.
const overloadShedWindow = time.Second

// shedRetryAfter is the drain estimate stamped on mailbox-shed replies
// (the envelope's retry-after hint): roughly how long a full mailbox
// takes to make progress, so a retrying caller comes back once the
// backlog has plausibly moved instead of hammering immediately or waiting
// out a full backoff ladder.
const shedRetryAfter = 25 * time.Millisecond

// loadInfo is the omService's combined load/overload probe reply: the
// placement load vector and the health probe both consume it, so one
// probe carries liveness, load and admission state.
type loadInfo struct {
	Load     int
	Overload int
}

func init() {
	wire.RegisterName("core.LoadInfo", loadInfo{})
}

// OverloadGrade reports this node's current admission-control state.
// Always OverloadNone while MailboxBound is 0: without a bound nothing
// sheds, so there is no signal to grade.
func (rt *Runtime) OverloadGrade() OverloadGrade {
	bound := rt.cfg.MailboxBound
	if bound <= 0 {
		return OverloadNone
	}
	if last := rt.lastShed.Load(); last != 0 && time.Since(time.Unix(0, last)) < overloadShedWindow {
		return OverloadShedding
	}
	// Busy when the queued backlog crossed half the node's aggregate
	// mailbox capacity (bound × hosted actors). Occupancy is a gauge, so
	// unlike the shed signal it clears itself as the backlog drains.
	if hosted := rt.load.Load(); hosted > 0 && rt.queuedTasks.Load()*2 >= int64(bound)*hosted {
		return OverloadBusy
	}
	return OverloadNone
}

// noteShed records one shed call: the counter feeds Stats, the timestamp
// drives the OverloadShedding grade.
func (rt *Runtime) noteShed() {
	rt.mailboxSheds.Add(1)
	rt.lastShed.Store(time.Now().UnixNano())
}

// noteOverload folds a probed peer's grade into its health record,
// invalidating the consistent-hash ring when the peer crosses the
// Shedding boundary in either direction (hot nodes are excluded from
// virtual-object placement just like down ones).
func (rt *Runtime) noteOverload(node int, g OverloadGrade) {
	rt.healthMu.Lock()
	h := rt.health[node]
	if h == nil {
		h = &peerHealth{}
		rt.health[node] = h
	}
	was := h.overload
	h.overload = g
	rt.healthMu.Unlock()
	if (was == OverloadShedding) != (g == OverloadShedding) {
		rt.ringEpoch.Add(1)
	}
}

// peerOverload reports the last probed grade of a peer (unknown nodes,
// and this node itself, read OverloadNone — a node never excludes itself,
// mirroring the Down-exclusion rule, so the ring cannot empty).
func (rt *Runtime) peerOverload(node int) OverloadGrade {
	rt.healthMu.Lock()
	defer rt.healthMu.Unlock()
	if h, ok := rt.health[node]; ok {
		return h.overload
	}
	return OverloadNone
}

// peerShedding reports whether a peer is currently graded Shedding.
func (rt *Runtime) peerShedding(node int) bool {
	return rt.peerOverload(node) == OverloadShedding
}
