package core

// This file holds the placement and agglomeration policies and node loads.

import (
	"context"
	"sort"
	"sync/atomic"
	"time"
)

// NodeLoad is one node's load snapshot used for placement. Overload is
// the node's admission-control grade at probe time: load-aware policies
// prefer cooler nodes, and every policy avoids Shedding nodes while any
// alternative exists.
type NodeLoad struct {
	Node     int
	Load     int
	Overload OverloadGrade
}

// PlacementPolicy picks the node for a new parallel object, given the
// creating node and the current load vector (one entry per node, self
// included).
type PlacementPolicy interface {
	Pick(self int, loads []NodeLoad) int
}

// RoundRobin cycles through nodes, the ParC++ default distribution.
type RoundRobin struct {
	next atomic.Int64
}

// Pick implements PlacementPolicy. Nodes graded Shedding are skipped
// while any cooler node exists: round-robin is load-blind by design, but
// routing new objects onto a node actively rejecting calls just converts
// creations into ErrOverloaded.
func (r *RoundRobin) Pick(self int, loads []NodeLoad) int {
	loads = preferCool(loads)
	if len(loads) == 0 {
		return self
	}
	n := r.next.Add(1) - 1
	return loads[int(n)%len(loads)].Node
}

// preferCool filters a load vector down to the nodes not graded Shedding,
// falling back to the full vector when every node is hot (placement must
// still pick something; the bounded mailboxes shed the excess).
func preferCool(loads []NodeLoad) []NodeLoad {
	cool := make([]NodeLoad, 0, len(loads))
	for _, l := range loads {
		if l.Overload < OverloadShedding {
			cool = append(cool, l)
		}
	}
	if len(cool) == 0 {
		return loads
	}
	return cool
}

// LeastLoaded picks the node with the smallest load, breaking ties towards
// the creating node ("according to the current load distribution policy").
type LeastLoaded struct{}

// Pick implements PlacementPolicy: the coolest overload grade wins first,
// then the smallest load, then the self tie-break.
func (LeastLoaded) Pick(self int, loads []NodeLoad) int {
	best, bestLoad := self, int(^uint(0)>>1)
	bestGrade := OverloadShedding + 1
	for _, l := range loads {
		if l.Overload > bestGrade {
			continue
		}
		if l.Overload < bestGrade || l.Load < bestLoad || (l.Load == bestLoad && l.Node == self) {
			best, bestLoad, bestGrade = l.Node, l.Load, l.Overload
		}
	}
	return best
}

// LocalOnly always places on the creating node; used to disable
// distribution.
type LocalOnly struct{}

// Pick implements PlacementPolicy.
func (LocalOnly) Pick(self int, loads []NodeLoad) int { return self }

// classStats summarises the measured grain size of a class on this node.
type classStats struct {
	Calls       int64
	AvgExecTime time.Duration
}

// AgglomerationPolicy decides whether a new object should be agglomerated
// (created as a passive local object, removing parallelism) based on the
// measured grain size of its class and the local load.
type AgglomerationPolicy interface {
	Agglomerate(class string, stats classStats, localLoad int) bool
}

// NeverAgglomerate keeps every object parallel.
type NeverAgglomerate struct{}

// Agglomerate implements AgglomerationPolicy.
func (NeverAgglomerate) Agglomerate(string, classStats, int) bool { return false }

// AlwaysAgglomerate packs every new object into its creator's grain
// (serial execution); useful for ablation A2 and as the paper's "removing
// excess of parallelism" extreme.
type AlwaysAgglomerate struct{}

// Agglomerate implements AgglomerationPolicy.
func (AlwaysAgglomerate) Agglomerate(string, classStats, int) bool { return true }

// AdaptiveAgglomeration removes parallelism when the measured average
// method execution time of the class falls below MinGrain — the grain is
// too fine to pay communication costs — and the node already has at least
// MinLocalLoad live objects to keep processors busy. This is the dynamic
// grain packing of SCOOPP (paper refs [8][9]).
type AdaptiveAgglomeration struct {
	MinGrain     time.Duration
	MinLocalLoad int
	// MinSamples avoids deciding from noise; below it objects stay
	// parallel.
	MinSamples int64
}

// Agglomerate implements AgglomerationPolicy.
func (a AdaptiveAgglomeration) Agglomerate(class string, stats classStats, localLoad int) bool {
	if stats.Calls < int64(a.MinSamples) {
		return false
	}
	return stats.AvgExecTime < a.MinGrain && localLoad >= a.MinLocalLoad
}

// nodeLoads returns the cached cluster load vector, refreshing it when
// stale. The refresh runs outside loadMu (one slow peer must not serialise
// every placement behind it) with at most one refresher at a time —
// concurrent placements wait for the in-flight refresh instead of
// duplicating the probes.
func (rt *Runtime) nodeLoads() []NodeLoad {
	rt.loadMu.Lock()
	for {
		if time.Since(rt.loadCached) < rt.cfg.LoadCacheTTL && rt.loadCache != nil {
			loads := rt.loadCache
			rt.loadMu.Unlock()
			return loads
		}
		if !rt.loadRefreshing {
			break
		}
		rt.loadCond.Wait()
	}
	rt.loadRefreshing = true
	rt.loadMu.Unlock()

	loads := rt.probeLoads(false)

	rt.loadMu.Lock()
	rt.loadCache = loads
	rt.loadCached = time.Now()
	rt.loadRefreshing = false
	rt.loadCond.Broadcast()
	rt.loadMu.Unlock()
	return loads
}

// probeLoads measures the live cluster load vector: every peer is probed
// in one fan-out round under a short deadline. Peers that are marked down
// by health probing, cannot be reached in time, or answer with a mis-typed
// load are excluded from the vector entirely — placement then cannot pick
// them, rather than merely disfavouring them behind a max-int load. The
// vector comes back in node order, which round-robin placement relies on.
// With health set it is the health probe (ProbePeers): down peers are
// probed too, and each outcome grades its peer.
func (rt *Runtime) probeLoads(health bool) []NodeLoad {
	loads := []NodeLoad{{Node: rt.cfg.NodeID, Load: rt.Load(), Overload: rt.OverloadGrade()}}
	probe := omLoadInfo()
	for c := range newFanout(context.Background(), probeTimeout, rt.otherPeers(!health)).sendAll(probe.remoteCall).each {
		if health {
			rt.noteProbe(c.p.node, c.err == nil)
		}
		li, err := probe.reply(c.v)
		if c.err != nil || err != nil {
			// A mis-typed reply is as useless as no reply: treating it
			// as load 0 would magnetise traffic onto a broken peer.
			continue
		}
		rt.noteOverload(c.p.node, OverloadGrade(li.Overload))
		loads = append(loads, NodeLoad{Node: c.p.node, Load: li.Load, Overload: OverloadGrade(li.Overload)})
	}
	sort.Slice(loads, func(i, j int) bool { return loads[i].Node < loads[j].Node })
	return loads
}
