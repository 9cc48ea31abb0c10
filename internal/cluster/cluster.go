// Package cluster boots multi-node SCOOPP clusters. The paper's testbed was
// a Linux cluster of dual-processor nodes on 100 Mbit Ethernet; the
// reproduction harness runs the same node runtimes either inside one
// process over one network the caller may shape (netsim) or charge (the
// paper's cost model) — the configuration used by tests and benchmarks — or
// as separate OS processes over TCP via cmd/parcnode.
package cluster

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/remoting"
	"repro/internal/transport"
)

// Options configures an in-process cluster.
type Options struct {
	// Nodes is the cluster size (default 1).
	Nodes int
	// Network carries every node's channel; nil means a fresh
	// transport.MemNetwork. Whoever shapes it keeps its counters.
	Network transport.Network
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
}

// New boots an in-process cluster and joins all nodes.
func New(opts Options) (*Cluster, error) {
	if opts.Nodes <= 0 {
		opts.Nodes = 1
	}
	net := opts.Network
	if net == nil {
		net = transport.NewMemNetwork()
	}
	cl := &Cluster{}
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

// Node returns node i's runtime.
func (c *Cluster) Node(i int) *core.Runtime { return c.nodes[i] }

// Entry returns node 0's runtime, the conventional application entry node.
func (c *Cluster) Entry() *core.Runtime { return c.nodes[0] }

// RegisterClass registers a parallel-object class on every node, as the
// paper's generated boot code did. The factory must return a pointer to a
// fresh instance.
func (c *Cluster) RegisterClass(name string, factory func() any) {
	for _, rt := range c.nodes {
		rt.RegisterClass(name, factory)
	}
}

// RegisterVirtualClass registers a virtual-object class on every node with
// one shared policy — virtual placement requires every node to agree on
// which classes are virtual and how they replicate. A name containing '/'
// panics (see core.Runtime.RegisterVirtualClass).
func (c *Cluster) RegisterVirtualClass(name string, factory func() any, cfg core.VirtualConfig) {
	for _, rt := range c.nodes {
		rt.RegisterVirtualClass(name, factory, cfg)
	}
}

// VirtualOwner reports which node the cluster's consistent-hash ring
// assigns ownership of (class, key) — an observability hook, mainly for
// tests and benchmarks that need to aim a failure at the right node.
func (c *Cluster) VirtualOwner(class, key string) (int, bool) {
	return c.Entry().VirtualOwner(class, key)
}

// Rebalance triggers one load rebalance on every node in turn: nodes
// loaded above the cluster mean live-migrate objects toward the policy's
// picks. It returns the total number of objects migrated and the first
// error encountered — one node's failed migration does not stop the pass
// for the others. It is the explicit companion of Config.RebalanceEvery.
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
