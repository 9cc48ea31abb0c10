package main

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/remoting"
	"repro/internal/transport"
)

// awayFromEntry places objects round-robin on every node but the creating
// one, so a workload's objects are remote by construction, not by luck.
type awayFromEntry struct{ next atomic.Int64 }

func (p *awayFromEntry) Pick(self int, loads []core.NodeLoad) int {
	var others []int
	for _, l := range loads {
		if l.Node != self {
			others = append(others, l.Node)
		}
	}
	if len(others) == 0 {
		return self
	}
	return others[int(p.next.Add(1)-1)%len(others)]
}

// nodes is a booted cluster: node 0 is the entry node callers run on.
type nodes []*core.Runtime

// boot starts n runtimes in this process on loopback TCP, each with its own
// Multiplexed channel over net at the channel's default lane count, joins
// them and registers the benchmark's classes everywhere. Objects created on
// the entry node stay there when local is set and go to the other nodes
// otherwise.
func boot(net transport.Network, n int, local bool) (nodes, error) {
	var cl nodes
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		var placement core.PlacementPolicy = &awayFromEntry{}
		if local {
			placement = core.LocalOnly{}
		}
		rt, err := core.Start(core.Config{
			NodeID:    i,
			Channel:   remoting.NewMultiplexedChannel(net),
			Placement: placement,
		}, "127.0.0.1:0")
		if err != nil {
			cl.close()
			return nil, fmt.Errorf("start node %d: %w", i, err)
		}
		cl = append(cl, rt)
		addrs[i] = rt.Addr()
	}
	for _, rt := range cl {
		if err := rt.JoinCluster(addrs); err != nil {
			cl.close()
			return nil, fmt.Errorf("join node %d: %w", rt.NodeID(), err)
		}
		RegisterEcho(rt)
		RegisterTracer(rt)
	}
	return cl, nil
}

func (cl nodes) close() {
	for _, rt := range cl {
		rt.Close()
	}
}

// stats sums the runtime counters of every node.
func (cl nodes) stats() core.Stats {
	var s core.Stats
	for _, rt := range cl {
		t := rt.Stats()
		s.SyncCalls += t.SyncCalls
		s.AsyncCalls += t.AsyncCalls
		s.BatchesSent += t.BatchesSent
		s.MailboxSheds += t.MailboxSheds
		s.DeadlineDrops += t.DeadlineDrops
	}
	return s
}
