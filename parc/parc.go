// Package parc is the public API of the ParC# reproduction: SCOOPP-style
// parallel objects for Go, backed by the remoting runtime described in the
// PACT 2005 paper "ParC#: Parallel Computing with C# in .Net".
//
// # Quick start (typed API)
//
//	cl, err := parc.StartCluster(parc.WithNodes(3))
//	if err != nil { ... }
//	defer cl.Close()
//	parc.Register[Counter](cl, "counter")
//
//	obj, err := parc.New[Counter](cl, "counter")
//	if err != nil { ... }
//	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
//	defer cancel()
//	_ = obj.Send(ctx, "Add", 2)                      // asynchronous method call
//	total, err := parc.Call[int](ctx, obj, "Total")  // synchronous, typed result
//
// Object[T] handles validate method names against T before anything touches
// the wire, every blocking operation honours the context's cancellation and
// deadline (the deadline travels to the hosting node), and failures wrap
// the package's sentinel errors (ErrNoSuchMethod, ErrNodeDown, ErrCanceled,
// ...) for errors.Is branching. cmd/parcgen generates fully typed proxy
// structs on top of this API, restoring the original static signatures of
// annotated classes.
//
// Parallel objects are distributed across nodes by the placement policy and
// communicate through the remoting channel; asynchronous calls to one
// object execute in order. Grain-size adaptation by method-call
// aggregation is enabled through WithAggregation.
//
// # Dynamic API (escape hatch)
//
// The stringly-typed Proxy API remains for dynamic use cases and as the
// compatibility layer under the typed one:
//
//	p := obj.Proxy()
//	p.Post("Add", 2)
//	total, err := p.Invoke("Total")
//
// The facade wraps internal/core (the SCOOPP run-time system),
// internal/remoting (the .NET-remoting analogue), internal/netsim (the
// testbed network model) and internal/cluster (node bootstrap); advanced
// users can reach those packages' types through the aliases below.
package parc

import (
	"context"
	"fmt"
	"reflect"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/netsim"
	"repro/internal/remoting"
	"repro/internal/wire"
)

// As converts a dynamically typed invocation result to T, applying the wire
// layer's canonical conversions (for example []any to []int). Generated
// proxy code (cmd/parcgen) uses it to give remote methods their original
// static signatures. Conversion failures wrap ErrBadConversion.
func As[T any](v any, err error) (T, error) {
	var zero T
	if err != nil {
		return zero, err
	}
	t := reflect.TypeFor[T]()
	av, err := wire.Assign(t, v)
	if err != nil {
		return zero, fmt.Errorf("parc: convert %T result to %s: %v: %w", v, t, err, errs.ErrBadConversion)
	}
	out, ok := av.Interface().(T)
	if !ok {
		return zero, fmt.Errorf("parc: %T result does not satisfy %s: %w", v, t, errs.ErrBadConversion)
	}
	return out, nil
}

// Re-exported core types: these are the objects user code manipulates.
type (
	// Runtime is one node's object manager and hosting server.
	Runtime = core.Runtime
	// Proxy is the handle of a parallel object (the paper's PO).
	Proxy = core.Proxy
	// Future is the result handle of InvokeAsync; Result[R] is its typed
	// counterpart.
	Future = core.Future
	// ProxyRef is a wire-encodable parallel-object reference.
	ProxyRef = core.ProxyRef
	// AggregationConfig tunes method-call aggregation.
	AggregationConfig = core.AggregationConfig
	// PlacementPolicy distributes new objects across nodes.
	PlacementPolicy = core.PlacementPolicy
	// NodeLoad is a node's load snapshot given to placement policies.
	NodeLoad = core.NodeLoad
	// Stats is the coherent read-only snapshot of a node's runtime
	// counters returned by Runtime.Stats(): object/call counts, migration
	// and virtual-object events, mailbox sheds, deadline drops and the
	// node's current overload grade.
	Stats = core.Stats
	// OverloadGrade is a node's admission-control state (None, Busy,
	// Shedding) as reported in Stats and the placement load vector.
	OverloadGrade = core.OverloadGrade
	// ObjLoc is an object-directory entry: the node hosting a parallel
	// object and the migration generation that information was observed
	// at (see Runtime.Lookup).
	ObjLoc = core.ObjLoc
	// PeerStatus grades a peer's observed liveness (see
	// Runtime.PeerStatuses and WithHealthProbe).
	PeerStatus = core.PeerStatus
	// CallToken identifies one logical call for idempotent deduplication
	// (see WithIdempotentCalls); the zero token means "no token".
	CallToken = remoting.CallToken
)

// WithCallToken returns a context carrying tok: every call made under it
// shares the token, so hosting nodes deduplicate retries of the same
// logical call. Mint tokens with Runtime.NewCallToken; most applications
// never need either — WithIdempotentCalls stamps tokens automatically per
// proxy call — but a caller spanning its own retry loop (for example
// re-invoking after a failover error) reuses one token across its
// attempts this way.
func WithCallToken(ctx context.Context, tok CallToken) context.Context {
	return core.WithCallToken(ctx, tok)
}

// WithoutRetry returns a context that forces a single attempt for every
// call made under it, overriding the channel's WithRetry policy — the
// per-call escape hatch for callers that run their own retry loop or
// would rather surface the first transient failure.
func WithoutRetry(ctx context.Context) context.Context {
	return remoting.WithoutRetry(ctx)
}

// Peer liveness grades reported by health probing.
const (
	// PeerAlive: the peer answered its most recent probe.
	PeerAlive = core.PeerAlive
	// PeerSuspect: at least one probe in a row failed.
	PeerSuspect = core.PeerSuspect
	// PeerDown: enough probes failed in a row that the peer is excluded
	// from placement until it answers again.
	PeerDown = core.PeerDown
)

// Overload grades reported in Stats.OverloadGrade and NodeLoad.Overload.
const (
	// OverloadNone: mailboxes have headroom (or no bound is set).
	OverloadNone = core.OverloadNone
	// OverloadBusy: aggregate mailbox occupancy crossed half capacity.
	OverloadBusy = core.OverloadBusy
	// OverloadShedding: the node shed a call within the last second;
	// placement and virtual activation route around it.
	OverloadShedding = core.OverloadShedding
)

// Placement policies.
type (
	// RoundRobin cycles object placement across nodes (default).
	RoundRobin = core.RoundRobin
	// LeastLoaded places on the node hosting the fewest objects.
	LeastLoaded = core.LeastLoaded
	// LocalOnly disables distribution.
	LocalOnly = core.LocalOnly
)

// RegisterType makes a struct type transferable as a method argument or
// result (the analogue of [Serializable]). Call it from an init function
// for every payload struct.
func RegisterType(sample any) { wire.Register(sample) }

// RegisterTypeName registers sample under an explicit wire name.
func RegisterTypeName(name string, sample any) { wire.RegisterName(name, sample) }

// NetworkParams shapes the simulated inter-node network.
type NetworkParams = netsim.Params

// Ethernet100 returns the paper's testbed network model: 100 Mbit/s
// switched Ethernet.
func Ethernet100() NetworkParams { return netsim.Ethernet100() }

// Cluster is a running set of nodes inside this process; StartCluster
// boots one.
type Cluster = cluster.Cluster
