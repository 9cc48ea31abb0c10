package parc

import (
	"context"

	"repro/internal/core"
)

// VirtualOption configures a virtual class registration.
type VirtualOption func(*core.VirtualConfig)

// WithReplicas has the owner of each instance ship a passive state
// snapshot to its n ring-successor nodes after every call, and hold the
// call's reply until a replica acknowledged it, so a replica can be
// promoted (state intact, no acknowledged call lost) when the owner dies.
// 0 — the default — disables replication: failover re-activates a fresh
// instance.
func WithReplicas(n int) VirtualOption {
	return func(cfg *core.VirtualConfig) { cfg.Replicas = n }
}

// RegisterVirtual registers class as a virtual class on every node of the
// cluster: instances are addressed by key through Virtual, live on their
// consistent-hash ring owner, and are activated by their first call — no
// explicit New. Every node of a deployment must register the same virtual
// classes with the same options. A class name must not contain '/' (an
// instance's URI is "virtual/<class>/<key>"); such a name panics.
func RegisterVirtual[T any](c *Cluster, class string, opts ...VirtualOption) {
	c.RegisterVirtualClass(class, func() any { return new(T) }, virtualConfig(opts))
}

// RegisterVirtualAt registers a virtual class on a single node runtime;
// multi-process deployments call it on every node. The class name follows
// RegisterVirtual's rule: no '/'.
func RegisterVirtualAt[T any](rt *Runtime, class string, opts ...VirtualOption) {
	rt.RegisterVirtualClass(class, func() any { return new(T) }, virtualConfig(opts))
}

func virtualConfig(opts []VirtualOption) core.VirtualConfig {
	var cfg core.VirtualConfig
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
