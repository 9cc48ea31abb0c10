// Package cluster boots multi-node SCOOPP clusters. The paper's testbed was
// a Linux cluster of dual-processor nodes on 100 Mbit Ethernet; the
// reproduction harness runs the same node runtimes either inside one
// process over an in-memory (optionally netsim-shaped) network — the
// configuration used by tests and benchmarks — or as separate OS processes
// over TCP via cmd/parcnode.
package cluster

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/netsim"
	"repro/internal/remoting"
	"repro/internal/transport"
)

// Options configures an in-process cluster.
type Options struct {
	// Nodes is the cluster size (default 1).
	Nodes int
	// Net shapes the inter-node network; zero params mean an ideal
	// network (tests). Use netsim.Ethernet100 for the paper's testbed.
	Net netsim.Params
	// Cost charges per-endpoint software costs: the network every node's
	// channel runs over is wrapped with cost.Network.
	Cost cost.Model
	// MaxInFlight bounds concurrent exchanges per peer connection; 0
	// selects the default.
	MaxInFlight int
	// MuxLanes sets how many connections each node opens per peer; 0
	// selects min(GOMAXPROCS, 4).
	MuxLanes int
	// Config is every node's runtime configuration; New sets its NodeID
	// and Channel.
	Config core.Config
}

// Cluster is a set of in-process node runtimes sharing one network.
type Cluster struct {
	nodes []*core.Runtime
	// Stats exposes the shaped network's traffic counters (nil when the
	// network is unshaped).
	Stats *netsim.Stats
}

// New boots an in-process cluster and joins all nodes.
func New(opts Options) (*Cluster, error) {
	if opts.Nodes <= 0 {
		opts.Nodes = 1
	}
	mem := transport.NewMemNetwork()
	var net transport.Network = mem
	cl := &Cluster{}
	if !opts.Net.Zero() {
		sn := netsim.NewShapedNetwork(mem, opts.Net)
		cl.Stats = sn.Stats
		net = sn
	}
	net = cost.Network(net, opts.Cost)
	addrs := make([]string, opts.Nodes)
	for i := 0; i < opts.Nodes; i++ {
		ch := remoting.NewMultiplexedChannel(net)
		ch.MaxInFlight = opts.MaxInFlight
		ch.MuxLanes = opts.MuxLanes
		cfg := opts.Config
		cfg.NodeID, cfg.Channel = i, ch
		rt, err := core.Start(cfg, fmt.Sprintf("mem://node%d", i))
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("cluster: start node %d: %w", i, err)
		}
		cl.nodes = append(cl.nodes, rt)
		addrs[i] = rt.Addr()
	}
	for _, rt := range cl.nodes {
		if err := rt.JoinCluster(addrs); err != nil {
			cl.Close()
			return nil, err
		}
	}
	return cl, nil
}

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

// Node returns node i's runtime. Node 0 conventionally plays the
// application entry node.
func (c *Cluster) Node(i int) *core.Runtime { return c.nodes[i] }

// RegisterClass registers a parallel-object class on every node, as the
// paper's generated boot code did.
func (c *Cluster) RegisterClass(name string, factory func() any) {
	for _, rt := range c.nodes {
		rt.RegisterClass(name, factory)
	}
}

// RegisterVirtualClass registers a virtual-object class on every node with
// one shared policy — virtual placement requires every node to agree on
// which classes are virtual and how they replicate.
func (c *Cluster) RegisterVirtualClass(name string, factory func() any, cfg core.VirtualConfig) {
	for _, rt := range c.nodes {
		rt.RegisterVirtualClass(name, factory, cfg)
	}
}

// Rebalance triggers one load rebalance on every node in turn, returning
// the total number of objects migrated and the first error encountered —
// one node's failed migration does not stop the pass for the others. It
// is the explicit companion of Config.RebalanceEvery.
func (c *Cluster) Rebalance(ctx context.Context) (int, error) {
	total := 0
	var firstErr error
	for _, rt := range c.nodes {
		n, err := rt.Rebalance(ctx)
		total += n
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return total, firstErr
}

// Close shuts every node down. Each node's Runtime.Close also closes its
// channel's client-side connections, so a torn-down in-process cluster
// leaks nothing.
func (c *Cluster) Close() {
	for _, rt := range c.nodes {
		rt.Close()
	}
}
