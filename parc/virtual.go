package parc

import (
	"context"

	"repro/internal/core"
)

// VirtualConfig is the per-class policy of a virtual class; build one with
// the VirtualOption helpers.
type VirtualConfig = core.VirtualConfig

// VirtualOption configures a virtual class registration.
type VirtualOption func(*VirtualConfig)

// WithReplicas has the owner of each instance stream passive state
// snapshots to its n ring-successor nodes, so a replica can be promoted
// (state intact) when the owner dies. 0 — the default — disables
// replication: failover re-activates a fresh instance.
func WithReplicas(n int) VirtualOption {
	return func(cfg *VirtualConfig) { cfg.Replicas = n }
}

// WithSnapshotEvery ships a replica snapshot every n applied calls.
// Values <= 1 (the default) replicate synchronously: each call's reply
// waits for at least one replica acknowledgement, so no acknowledged call
// is lost to a failover. Larger values ship asynchronously and replicas
// may trail the owner by up to n calls.
func WithSnapshotEvery(n int) VirtualOption {
	return func(cfg *VirtualConfig) { cfg.SnapshotEvery = n }
}

// RegisterVirtual registers class as a virtual class on every node of the
// cluster: instances are addressed by key through Virtual, live on their
// consistent-hash ring owner, and are activated by their first call — no
// explicit New. Every node of a deployment must register the same virtual
// classes with the same options.
func RegisterVirtual[T any](c *Cluster, class string, opts ...VirtualOption) {
	c.RegisterVirtualClass(class, func() any { return new(T) }, virtualConfig(opts))
}

// RegisterVirtualAt registers a virtual class on a single node runtime;
// multi-process deployments call it on every node.
func RegisterVirtualAt[T any](rt *Runtime, class string, opts ...VirtualOption) {
	rt.RegisterVirtualClass(class, func() any { return new(T) }, virtualConfig(opts))
}

func virtualConfig(opts []VirtualOption) VirtualConfig {
	var cfg VirtualConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// Virtual returns the typed handle of the virtual object (class, key),
// activating it on its ring owner if no live instance exists yet. Handles
// are cheap; the instance itself is cluster-wide singular.
func Virtual[T any](ctx context.Context, c *Cluster, class, key string) (*Object[T], error) {
	return VirtualAt[T](ctx, c.Entry(), class, key)
}

// VirtualAt is Virtual resolved through a specific node's runtime.
func VirtualAt[T any](ctx context.Context, rt *Runtime, class, key string) (*Object[T], error) {
	p, err := rt.VirtualObjectCtx(ctx, class, key)
	if err != nil {
		return nil, err
	}
	return &Object[T]{p: p}, nil
}
