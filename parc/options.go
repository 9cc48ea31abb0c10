package parc

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/remoting"
	"repro/internal/transport"
)

// Option configures StartCluster or ServeNode. Options compose left to
// right; later options override earlier ones.
type Option func(*options)

type options struct {
	// cluster scope
	nodes   int
	network NetworkParams
	// every node's channel and runtime; cfg.NodeID is ServeNode's
	maxInFlight int
	muxLanes    int
	cfg         core.Config
	// node scope
	listen string
}

// WithNodes sets the cluster size (default 1).
func WithNodes(n int) Option { return func(o *options) { o.nodes = n } }

// WithNetwork shapes the simulated inter-node network; the zero value is an
// ideal network. Use Ethernet100 for the paper's testbed.
func WithNetwork(p NetworkParams) Option { return func(o *options) { o.network = p } }

// WithMaxInFlight bounds the number of concurrent in-flight calls per peer
// connection (lane); calls beyond the bound wait in the lane's admission
// queue, in order, until a slot frees. 0 (the default) selects the channel's
// built-in default.
func WithMaxInFlight(n int) Option { return func(o *options) { o.maxInFlight = n } }

// WithMuxLanes sets how many connections (lanes) a node opens per peer.
// A peer's objects are striped across lanes, every call to one object
// riding one lane, so calls to unrelated objects never share a lock or a
// TCP stream — the many-core scaling knob. 0 (the default) selects
// min(GOMAXPROCS, 4); 1 restores the single-connection behaviour.
// WithMaxInFlight bounds each lane independently.
func WithMuxLanes(n int) Option { return func(o *options) { o.muxLanes = n } }

// WithPlacement sets the policy distributing new parallel objects; the
// default is round-robin.
func WithPlacement(p PlacementPolicy) Option { return func(o *options) { o.cfg.Placement = p } }

// WithAggregation enables method-call aggregation: asynchronous calls
// buffer until the batch reaches maxCalls invocations (values <= 1
// disable) or maxDelay elapses (0 means no timer).
func WithAggregation(maxCalls int, maxDelay time.Duration) Option {
	return func(o *options) {
		o.cfg.Aggregation = AggregationConfig{MaxCalls: maxCalls, MaxDelay: maxDelay}
	}
}

// WithLoadCacheTTL bounds staleness of placement load data.
func WithLoadCacheTTL(d time.Duration) Option { return func(o *options) { o.cfg.LoadCacheTTL = d } }

// WithHealthProbe has every node ping its peers at this interval, grading
// unresponsive peers suspect and then down. Down peers are excluded from
// placement and failover resolution until they answer again, so a dead
// node stops attracting new objects instead of costing every placement a
// timeout. 0 (the default) disables probing.
func WithHealthProbe(interval time.Duration) Option {
	return func(o *options) { o.cfg.HealthProbe = interval }
}

// WithRebalance has every node periodically migrate parallel objects away
// while it is loaded above the cluster mean, choosing targets with the
// placement policy over the live load vector. Combine with WithHealthProbe
// so draining avoids down peers. 0 (the default) disables automatic
// rebalancing; Runtime.Rebalance and Cluster.Rebalance remain available
// for explicit triggers.
func WithRebalance(interval time.Duration) Option {
	return func(o *options) { o.cfg.RebalanceEvery = interval }
}

// WithMailboxBound caps the queued (not yet executing) calls of every
// parallel object's mailbox on each node. A full mailbox sheds instead of
// queueing without limit: the shed call fails fast with ErrOverloaded
// (which survives the wire, so remote callers see it too), keeping the
// latency of accepted calls bounded under overload. The arriving call is
// the one shed. 0 (the default) keeps mailboxes unbounded.
func WithMailboxBound(n int) Option { return func(o *options) { o.cfg.MailboxBound = n } }

// RetryPolicy configures transparent retries of transient remote-call
// failures (node down, connection reset, overload sheds) with jittered
// exponential backoff and per-peer circuit breakers. The zero value
// disables retries; DefaultRetryPolicy is a sane starting point.
type RetryPolicy = remoting.RetryPolicy

// DefaultRetryPolicy returns the recommended retry configuration: 4
// attempts, 5ms base delay doubling to a 1s cap with 50% jitter, and
// per-peer breakers opening after 5 consecutive connection failures.
func DefaultRetryPolicy() RetryPolicy { return remoting.DefaultRetryPolicy() }

// WithRetry installs a retry policy on every node's channel: remote calls
// that fail with a retryable error (ErrNodeDown, connection resets,
// ErrOverloaded sheds — never application errors) are retried with
// jittered exponential backoff, honouring server retry-after hints and
// the call context's deadline budget. Per-peer circuit breakers fast-fail
// calls to peers whose connections keep dying, feeding the same health
// grading that routes placement around dead nodes. The zero policy
// (default) keeps the historical single-attempt behaviour.
func WithRetry(p RetryPolicy) Option { return func(o *options) { o.cfg.Retry = p } }

// WithIdempotentCalls makes retried calls effectively-once: every
// outermost proxy call is stamped with an idempotency token that rides
// every wire attempt (channel retries, forward chasing, post-failover
// re-resolution), and hosting nodes remember recent replies per object so
// a retry of an already-executed call replays the recorded reply instead
// of executing again. The reply memory replicates with virtual-object
// state, so failover promotion preserves it. Costs one small LRU per
// hosted object, of 256 replies.
func WithIdempotentCalls() Option { return func(o *options) { o.cfg.IdempotentCalls = true } }

// WithNodeID sets this node's index in the cluster (ServeNode only).
func WithNodeID(id int) Option { return func(o *options) { o.cfg.NodeID = id } }

// WithListen sets the address a node serves on (ServeNode only; default
// "127.0.0.1:0"). The scheme picks the transport: a plain host:port pair
// listens on TCP, "unix://name" on a Unix domain socket, and
// "inproc://name" on the in-process loopback (co-located runtimes in one
// process, no serialization of the frame copy path).
func WithListen(addr string) Option { return func(o *options) { o.listen = addr } }

func buildOptions(opts []Option) options {
	o := options{nodes: 1, listen: "127.0.0.1:0"}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// StartCluster boots an in-process cluster (the test/bench topology; use
// ServeNode in each process for real multi-process TCP clusters):
//
//	cl, err := parc.StartCluster(
//		parc.WithNodes(3),
//		parc.WithNetwork(parc.Ethernet100()),
//		parc.WithAggregation(16, 0),
//	)
func StartCluster(opts ...Option) (*Cluster, error) {
	o := buildOptions(opts)
	var net transport.Network
	if !o.network.Zero() {
		net = netsim.NewShapedNetwork(transport.NewMemNetwork(), o.network)
	}
	return cluster.New(cluster.Options{
		Nodes:       o.nodes,
		Network:     net,
		MaxInFlight: o.maxInFlight,
		MuxLanes:    o.muxLanes,
		Config:      o.cfg,
	})
}

// ServeNode boots one TCP-backed node for multi-process deployments (each
// process calls ServeNode and the processes exchange addresses out of
// band; see cmd/parcnode). Call Runtime.JoinCluster with every node's
// address (same order everywhere) once all nodes are up.
//
//	rt, err := parc.ServeNode(parc.WithNodeID(1), parc.WithListen(":7070"))
func ServeNode(opts ...Option) (*Runtime, error) {
	o := buildOptions(opts)
	// Auto routes by address scheme: unix:// and inproc:// listen
	// addresses select the local transports, anything else is TCP.
	ch := remoting.NewMultiplexedChannel(transport.Auto{})
	ch.MaxInFlight = o.maxInFlight
	ch.MuxLanes = o.muxLanes
	o.cfg.Channel = ch
	return core.Start(o.cfg, o.listen)
}
