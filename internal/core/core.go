// Package core implements SCOOPP (Scalable Object-Oriented Parallel
// Programming) — the ParC# runtime that is the paper's contribution (§3).
//
// # Programming model
//
// Applications create parallel objects (active objects with their own
// thread of control) through a Runtime. Parallel objects are automatically
// distributed among processing nodes and communicate through asynchronous
// method calls (no result: Proxy.Post) or synchronous calls (result:
// Proxy.Invoke / Proxy.InvokeAsync). Passive objects are plain Go values:
// they live inside the parallel object that created them and only copies
// travel between grains (the wire layer copies by construction).
//
// # Run-time system
//
// The RTS mirrors the paper's Fig. 3 architecture:
//
//   - Proxy (PO) — returned by NewParallelObject; forwards inter-grain
//     calls through remoting and intra-grain calls directly to the local
//     implementation object.
//   - implementation object (IO) — the user's object, wrapped by an
//     ioWrapper that measures method execution time (grain-size
//     estimation) and replays aggregated batches.
//   - server objects (SO) — the paper notes ParC# no longer needs explicit
//     SOs because the remoting dispatch loop plays that role; here the
//     remoting Server does.
//   - ObjectManager (OM) — one per node, published at URI "om"; performs
//     placement (load balancing) and remote creation (the RemoteFactory of
//     Fig. 6).
//
// # Grain-size adaptation
//
// Both SCOOPP run-time optimisations are implemented:
//
//   - method-call aggregation (Fig. 7): Proxy.Post buffers asynchronous
//     calls per method and ships them as a single batch of AggregationConfig
//     MaxCalls invocations;
//   - object agglomeration: when the AgglomerationPolicy decides to remove
//     parallelism, NewParallelObject creates the object locally and the
//     proxy executes calls synchronously and serially in the caller's
//     context.
package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dispatch"
	"repro/internal/errs"
	"repro/internal/metrics"
	"repro/internal/remoting"
	"repro/internal/wire"
)

// ProxyRef is the wire-encodable reference to a parallel object. References
// may be copied and sent as method arguments (the paper's §3.1 notes this
// may create cycles in the dependence graph); the receiving side rebinds
// with Runtime.Attach.
type ProxyRef struct {
	NetAddr string
	URI     string
	Class   string
	// Gen is the object's migration generation at NetAddr when the ref was
	// produced; Attach uses it to prefer fresher directory knowledge.
	Gen uint64
}

func init() {
	wire.RegisterName("core.ProxyRef", ProxyRef{})
}

// AggregationConfig controls method-call aggregation.
type AggregationConfig struct {
	// MaxCalls is the number of buffered asynchronous calls that
	// triggers a batch send (the paper's maxCalls, "calls per message").
	// Values <= 1 disable aggregation.
	MaxCalls int
	// MaxDelay flushes a non-empty buffer this long after its first
	// call, bounding the latency cost of waiting for a full batch.
	// Zero means no timer (explicit Flush or a full/sync call flushes).
	MaxDelay time.Duration
}

// enabled reports whether Posts should buffer.
func (a AggregationConfig) enabled() bool { return a.MaxCalls > 1 }

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

// ClassStats summarises the measured grain size of a class on this node.
type ClassStats struct {
	Calls       int64
	AvgExecTime time.Duration
}

// AgglomerationPolicy decides whether a new object should be agglomerated
// (created as a passive local object, removing parallelism) based on the
// measured grain size of its class and the local load.
type AgglomerationPolicy interface {
	Agglomerate(class string, stats ClassStats, localLoad int) bool
}

// NeverAgglomerate keeps every object parallel.
type NeverAgglomerate struct{}

// Agglomerate implements AgglomerationPolicy.
func (NeverAgglomerate) Agglomerate(string, ClassStats, int) bool { return false }

// AlwaysAgglomerate packs every new object into its creator's grain
// (serial execution); useful for ablation A2 and as the paper's "removing
// excess of parallelism" extreme.
type AlwaysAgglomerate struct{}

// Agglomerate implements AgglomerationPolicy.
func (AlwaysAgglomerate) Agglomerate(string, ClassStats, int) bool { return true }

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
func (a AdaptiveAgglomeration) Agglomerate(class string, stats ClassStats, localLoad int) bool {
	if stats.Calls < int64(a.MinSamples) {
		return false
	}
	return stats.AvgExecTime < a.MinGrain && localLoad >= a.MinLocalLoad
}

// Config configures a node's runtime.
type Config struct {
	// NodeID is this node's index in the cluster.
	NodeID int
	// Channel is the remoting channel for all inter-node traffic. It serves
	// this runtime alone and holds its counters, so every node makes its own.
	Channel *remoting.Channel
	// Placement distributes new parallel objects; default RoundRobin.
	Placement PlacementPolicy
	// Agglomeration packs objects into their creator's grain; default
	// NeverAgglomerate.
	Agglomeration AgglomerationPolicy
	// Aggregation batches asynchronous calls; default disabled.
	Aggregation AggregationConfig
	// LoadCacheTTL bounds how stale placement load information may be.
	// Default 50 ms.
	LoadCacheTTL time.Duration
	// HealthProbe, when non-zero, pings every peer at this interval once
	// the node joins a cluster, marking unresponsive peers suspect and then
	// down. Down peers are excluded from placement and failover
	// resolution until they answer again.
	HealthProbe time.Duration
	// RebalanceEvery, when non-zero, runs Rebalance at this interval once
	// the node joins a cluster, migrating objects away whenever this node
	// is loaded above the cluster mean.
	RebalanceEvery time.Duration
	// MailboxBound, when positive, caps the queued (not yet executing)
	// calls of every actor mailbox on this node. A full mailbox rejects
	// the arriving call with errs.ErrOverloaded instead of queueing without
	// limit. 0 keeps mailboxes unbounded.
	MailboxBound int
	// Retry, when enabled (MaxAttempts > 1), is installed on Channel at
	// Start: remote calls retry transient failures (node-down, overload
	// sheds) with jittered exponential backoff, and per-peer circuit
	// breakers fast-fail calls to peers that keep refusing connections.
	Retry remoting.RetryPolicy
	// IdempotentCalls stamps every outermost remote call that does not
	// already carry one with a fresh idempotency token, making cross-node
	// retries effectively-once against hosts that keep dedup memory (every
	// actor-hosted object does). Callers spanning their own retry loops
	// use WithCallToken to share one token across attempts.
	IdempotentCalls bool
	// DedupPerObject caps each hosted object's dedup LRU (recorded
	// replies for token-bearing calls). 0 selects
	// remoting.DefaultDedupPerObject.
	DedupPerObject int
}

// Stats counts runtime events; all fields are cumulative. It is a view of
// the counters in the channel's registry, each field loaded on its own: not
// one atomic snapshot, so fields read while calls run may disagree.
type Stats struct {
	ObjectsCreated      int64
	ObjectsAgglomerated int64
	ObjectsLocal        int64
	ObjectsRemote       int64
	BatchesSent         int64
	CallsAggregated     int64
	SyncCalls           int64
	AsyncCalls          int64
	ObjectsMigratedIn   int64
	ObjectsMigratedOut  int64
	// VirtualActivations counts on-demand activations of virtual objects
	// on this node; ReplicaPromotions counts the subset that promoted a
	// passive replica after its owner went down; StaleDemotions counts
	// hosted copies this node abandoned on learning of a fresher one.
	VirtualActivations int64
	ReplicaPromotions  int64
	StaleDemotions     int64
	// MailboxSheds counts calls a bounded mailbox rejected with
	// ErrOverloaded. DeadlineDrops counts calls dropped because
	// their deadline had already expired — refused by the server before
	// dispatch, or skipped by a mailbox at dequeue time. Both are zero
	// while MailboxBound is 0 and no caller sets deadlines.
	MailboxSheds  int64
	DeadlineDrops int64
	// OverloadGrade is the node's admission-control state at snapshot
	// time (a gauge, unlike every other field): OverloadNone,
	// OverloadBusy or OverloadShedding.
	OverloadGrade OverloadGrade
}

// Runtime is one node's SCOOPP run-time system: object manager, factories
// and hosting server.
type Runtime struct {
	cfg    Config
	server *remoting.Server

	mu      sync.Mutex
	classes map[string]func() any
	peers   []peer // index = node id; self included
	objSeq  atomic.Int64
	load    atomic.Int64 // live parallel objects hosted here

	loadMu         sync.Mutex
	loadCond       *sync.Cond
	loadCache      []NodeLoad
	loadCached     time.Time
	loadRefreshing bool

	// dir is this node's slice of the cluster-wide object directory: URI →
	// location. Entries for objects hosted here are authoritative (Node ==
	// NodeID); entries pointing elsewhere are tombstones left by
	// migrations away, or cached resolutions.
	dirMu sync.Mutex
	dir   map[string]ObjLoc

	healthMu sync.Mutex
	health   map[int]*peerHealth

	// aborts records, per URI, the highest migration generation whose
	// transfer the source node asked this node to abort: an AcceptObject
	// at or below the marker must not commit, even if it is still in
	// flight when the abort arrives (server dispatch is concurrent, so a
	// compensation can otherwise be outrun by the transfer it undoes).
	// Markers are erased when a newer-generation transfer commits.
	abortMu sync.Mutex
	aborts  map[string]uint64

	stop      chan struct{} // closed by Close; stops probe/rebalance loops
	closeOnce sync.Once
	loopsOnce sync.Once

	// Virtual-object state (see virtual.go): registered virtual classes,
	// the single-flight table serialising concurrent activations of one
	// URI, and the passive replica store (state snapshots shipped by the
	// owners of replicated virtual objects hosted elsewhere).
	virtMu   sync.Mutex
	virtuals map[string]VirtualConfig

	activMu     sync.Mutex
	activations map[string]*activation

	replMu   sync.Mutex
	replicas map[string]*replicaState
	// promised records, per URI, the highest generation this node answered
	// a promotion census (ReplicaAt) for. Snapshots from older lineages are
	// refused from then on: the promoting node read this node's replica as
	// part of choosing its state, so letting a superseded owner deposit —
	// and acknowledge calls against — a fresher-looking copy of the old
	// lineage afterwards would lose those acknowledgements at demotion.
	promised map[string]uint64

	// ringEpoch invalidates the cached consistent-hash ring: it is bumped
	// on every membership change (JoinCluster, a peer crossing the Down
	// boundary in either direction). ring() rebuilds lazily per epoch.
	ringEpoch      atomic.Uint64
	ringMu         sync.Mutex
	ringCache      *hashRing
	ringCacheEpoch uint64

	// The counters a call or an overload path bumps, resolved once in
	// Start from the channel's registry; rarer events count by name
	// (count), and Stats reads every one by name.
	syncCalls, asyncCalls, callsAggregated, batchesSent *metrics.Counter
	mailboxSheds, deadlineDrops                         *metrics.Counter

	// queuedTasks is the aggregate mailbox occupancy across hosted actors
	// (queued, not executing); lastShed is the UnixNano of the most
	// recent mailbox shed. Together they derive OverloadGrade.
	queuedTasks atomic.Int64
	lastShed    atomic.Int64

	actorsMu sync.Mutex
	actors   map[string]*actor

	// destroyMu serialises the unpublish bookkeeping of destroyLocal
	// (tombstone determination, unregister, load decrement), which must
	// be atomic across concurrent destroys of one URI. It is never held
	// while draining an actor.
	destroyMu sync.Mutex
}

type peer struct {
	node int
	addr string
	om   *remoting.ObjRef
}

// omURI is the well-known URI of each node's object manager.
const omURI = "om"

// Start boots a node runtime listening on addr (transport syntax). The
// returned runtime initially knows only itself; call JoinCluster with every
// node's address (same order on every node) to enable distribution.
func Start(cfg Config, addr string) (*Runtime, error) {
	if cfg.Channel == nil {
		return nil, fmt.Errorf("core: Config.Channel is required")
	}
	if cfg.Placement == nil {
		cfg.Placement = &RoundRobin{}
	}
	if cfg.Agglomeration == nil {
		cfg.Agglomeration = NeverAgglomerate{}
	}
	if cfg.LoadCacheTTL == 0 {
		cfg.LoadCacheTTL = 50 * time.Millisecond
	}
	if cfg.Retry.Enabled() {
		cfg.Channel.Retry = cfg.Retry
	}
	rt := &Runtime{
		cfg:         cfg,
		classes:     make(map[string]func() any),
		actors:      make(map[string]*actor),
		dir:         make(map[string]ObjLoc),
		health:      make(map[int]*peerHealth),
		aborts:      make(map[string]uint64),
		virtuals:    make(map[string]VirtualConfig),
		activations: make(map[string]*activation),
		replicas:    make(map[string]*replicaState),
		promised:    make(map[string]uint64),
		stop:        make(chan struct{}),
	}
	m := cfg.Channel.Metrics()
	rt.syncCalls, rt.asyncCalls = m.Counter("sync_calls"), m.Counter("async_calls")
	rt.callsAggregated, rt.batchesSent = m.Counter("calls_aggregated"), m.Counter("batches_sent")
	rt.mailboxSheds, rt.deadlineDrops = m.Counter("mailbox_sheds"), m.Counter("deadline_drops")
	rt.loadCond = sync.NewCond(&rt.loadMu)
	srv, err := cfg.Channel.ListenAndServe(addr)
	if err != nil {
		return nil, err
	}
	rt.server = srv
	srv.RegisterWellKnown(omURI, remoting.Singleton, func() any { return &omService{rt: rt} })
	rt.peers = []peer{{node: cfg.NodeID, addr: srv.Addr()}}
	return rt, nil
}

// Addr returns the node's transport address.
func (rt *Runtime) Addr() string { return rt.server.Addr() }

// NodeID returns this node's cluster index.
func (rt *Runtime) NodeID() int { return rt.cfg.NodeID }

// hasPeers reports whether this node joined a cluster with other members.
func (rt *Runtime) hasPeers() bool { return rt.clusterSize() > 1 }

// clusterSize is the joined cluster's node count (self included).
func (rt *Runtime) clusterSize() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.peers)
}

// JoinCluster installs the full node address list (indexed by node id; this
// node's address must appear at index Config.NodeID).
func (rt *Runtime) JoinCluster(addrs []string) error {
	if rt.cfg.NodeID >= len(addrs) {
		return fmt.Errorf("core: node id %d outside cluster of %d", rt.cfg.NodeID, len(addrs))
	}
	if addrs[rt.cfg.NodeID] != rt.Addr() {
		return fmt.Errorf("core: cluster address %q at index %d is not this node (%q)",
			addrs[rt.cfg.NodeID], rt.cfg.NodeID, rt.Addr())
	}
	peers := make([]peer, len(addrs))
	for i, a := range addrs {
		peers[i] = peer{node: i, addr: a}
		if i != rt.cfg.NodeID {
			peers[i].om = remoting.NewObjRef(rt.cfg.Channel, a, omURI)
		}
	}
	rt.mu.Lock()
	rt.peers = peers
	rt.mu.Unlock()
	rt.ringEpoch.Add(1) // the member set changed; rebuild the ring lazily
	// Background membership loops start once the node knows its peers.
	rt.loopsOnce.Do(func() {
		if rt.cfg.HealthProbe > 0 {
			go rt.healthLoop(rt.cfg.HealthProbe)
		}
		if rt.cfg.RebalanceEvery > 0 {
			go rt.rebalanceLoop(rt.cfg.RebalanceEvery)
		}
	})
	return nil
}

// RegisterClass makes a parallel-object class creatable on this node. All
// nodes must register the same classes (the paper's preprocessor emitted a
// factory per class into every node's boot code, Fig. 6). Class state
// becomes wire-registered on demand when a live migration first snapshots
// an instance (exported fields only, as with any wire payload).
func (rt *Runtime) RegisterClass(name string, factory func() any) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.classes[name] = factory
}

// registerStateType makes a class's state wire-encodable for migration
// snapshots; migration call sites invoke it with the live (or
// freshly made) instance right before encoding or decoding state.
// Non-struct implementation objects (or a name collision with a
// previously registered different type) leave the class non-migratable
// rather than failing.
func registerStateType(obj any) {
	t := reflect.TypeOf(obj)
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t == nil || t.Kind() != reflect.Struct {
		return
	}
	defer func() { _ = recover() }()
	wire.Register(obj)
}

// Close shuts the node down: background probe/rebalance loops stop, local
// actors drain, the server stops, and the channel's client-side
// connections (idle pooled conns, multiplexed peer pipes) are released so
// long-running processes do not leak sockets.
func (rt *Runtime) Close() {
	rt.closeOnce.Do(func() { close(rt.stop) })
	rt.actorsMu.Lock()
	actors := rt.actors
	rt.actors = make(map[string]*actor)
	rt.actorsMu.Unlock()
	for _, a := range actors {
		a.stop()
	}
	rt.server.Close()
	rt.cfg.Channel.Close()
}

// actor returns the actor hosting uri on this node, or nil.
func (rt *Runtime) actor(uri string) *actor {
	rt.actorsMu.Lock()
	defer rt.actorsMu.Unlock()
	return rt.actors[uri]
}

// Stats reads the runtime's counters, one at a time, from its channel's
// registry.
func (rt *Runtime) Stats() Stats {
	m := rt.cfg.Channel.Metrics()
	n := func(name string) int64 { return m.Counter(name).Load() }
	return Stats{
		ObjectsCreated:      n("objects_created"),
		ObjectsAgglomerated: n("objects_agglomerated"),
		ObjectsLocal:        n("objects_local"),
		ObjectsRemote:       n("objects_remote"),
		BatchesSent:         n("batches_sent"),
		CallsAggregated:     n("calls_aggregated"),
		SyncCalls:           n("sync_calls"),
		AsyncCalls:          n("async_calls"),
		ObjectsMigratedIn:   n("objects_migrated_in"),
		ObjectsMigratedOut:  n("objects_migrated_out"),
		VirtualActivations:  n("virtual_activations"),
		ReplicaPromotions:   n("replica_promotions"),
		StaleDemotions:      n("stale_demotions"),
		MailboxSheds:        n("mailbox_sheds"),
		DeadlineDrops:       n("deadline_drops"),
		OverloadGrade:       rt.OverloadGrade(),
	}
}

// count adds one to the channel's counter name, for events too rare to
// hold their counter.
func (rt *Runtime) count(name string) { rt.cfg.Channel.Metrics().Counter(name).Add(1) }

// Load returns the number of live parallel objects hosted on this node.
func (rt *Runtime) Load() int { return int(rt.load.Load()) }

// ClassStatsFor returns the measured grain statistics of a class on this
// node.
func (rt *Runtime) ClassStatsFor(class string) ClassStats {
	calls, nanos := rt.grainCounters(class)
	// The two loads are not a consistent snapshot: a concurrent call can
	// land between them, skewing the average by one call. Grain stats
	// feed heuristics (agglomeration thresholds), so the skew is harmless
	// and not worth a lock on the dispatch path.
	n := calls.Load()
	if n == 0 {
		return ClassStats{}
	}
	return ClassStats{Calls: n, AvgExecTime: time.Duration(nanos.Load() / n)}
}

// grainCounters returns class's grain counters in the channel's registry:
// calls timed, and their total execution time.
func (rt *Runtime) grainCounters(class string) (calls, nanos *metrics.Counter) {
	m := rt.cfg.Channel.Metrics()
	return m.Counter("class/" + class + "/calls"), m.Counter("class/" + class + "/exec_ns")
}

// wrap wraps obj, an instance of class published at uri, holding its
// class's grain counters so a dispatch times itself without a lookup.
func (rt *Runtime) wrap(class string, obj any, uri string) *ioWrapper {
	w := &ioWrapper{rt: rt, class: class, obj: obj, uri: uri,
		dedup: remoting.NewDedupLRU(rt.cfg.DedupPerObject)}
	w.calls, w.execNS = rt.grainCounters(class)
	return w
}

func (rt *Runtime) factoryFor(class string) (func() any, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	f, ok := rt.classes[class]
	if !ok {
		return nil, fmt.Errorf("core: class %q on node %d: %w", class, rt.cfg.NodeID, errs.ErrNoSuchClass)
	}
	return f, nil
}

// createLocalIO instantiates class on this node, wraps it, publishes it and
// returns its URI and the wrapper. spawnActor selects active-object
// semantics (a mailbox goroutine) for objects hosted for remote or
// local-parallel use.
func (rt *Runtime) createLocalIO(class string, spawnActor bool) (string, *ioWrapper, error) {
	factory, err := rt.factoryFor(class)
	if err != nil {
		return "", nil, err
	}
	obj := factory()
	uri := fmt.Sprintf("obj/%s/%d/%d", class, rt.cfg.NodeID, rt.objSeq.Add(1))
	w := rt.wrap(class, obj, uri)
	w.gen.Store(1)
	if spawnActor {
		a := newActor(w)
		rt.actorsMu.Lock()
		rt.actors[uri] = a
		rt.actorsMu.Unlock()
		rt.server.Marshal(uri, &actorEndpoint{a: a})
	} else {
		rt.server.Marshal(uri, w)
	}
	rt.load.Add(1)
	rt.dirUpdate(uri, ObjLoc{Node: rt.cfg.NodeID, Addr: rt.Addr(), Gen: 1})
	return uri, w, nil
}

// destroyLocal unpublishes a hosted object — or the forwarding tombstone a
// migration left at its URI, which carries no load — and reports whether
// it destroyed a live local object (callers use that to decide whether a
// forward still needs chasing: clearing just a tombstone does not destroy
// the object it points at). Unregister reports true to exactly one of
// several concurrent destroys, so the load decrement cannot double. The
// actor drains outside actorsMu: a queued task may itself create a
// parallel object (which takes actorsMu), so blocking on the drain inside
// the lock could deadlock the node.
func (rt *Runtime) destroyLocal(uri string) (destroyedLive bool) {
	for {
		rt.actorsMu.Lock()
		a := rt.actors[uri]
		delete(rt.actors, uri)
		rt.actorsMu.Unlock()
		if a != nil {
			a.stop()
			destroyedLive = true
		}
		// The tombstone determination and the unregister must be atomic
		// across concurrent destroys: a racer observing the directory
		// entry already dropped but the registration still published
		// would otherwise decrement load for a tombstone that never
		// carried any.
		rt.destroyMu.Lock()
		tomb := false
		if loc, ok := rt.dirLookup(uri); ok && loc.Node != rt.cfg.NodeID {
			tomb = true
		}
		rt.dirDrop(uri)
		if rt.server.Unregister(uri) && !tomb {
			rt.load.Add(-1)
			destroyedLive = true
		}
		rt.destroyMu.Unlock()
		// A migration-in (acceptObject) may have committed between the
		// actors check and the unregister above, leaving a fresh actor
		// the cleanup missed; sweep again until the map stays empty so a
		// destroy can never orphan (and later resurrect) a racing
		// arrival.
		if rt.actor(uri) == nil {
			if destroyedLive && isVirtualURI(uri) {
				// A destroyed virtual object must not resurrect from its
				// passive replicas at the next owner failure: drop the
				// local copy and tell the successor replicas to do the
				// same (best effort — an unreachable replica ages out at
				// the next activation's generation bump).
				rt.dropReplicasFor(uri)
			}
			return destroyedLive
		}
	}
}

// loadProbeTimeout bounds one peer load probe: a slow or dead peer costs a
// placement refresh at most this long, not a full call timeout.
const loadProbeTimeout = 200 * time.Millisecond

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

	loads := rt.probeLoads()

	rt.loadMu.Lock()
	rt.loadCache = loads
	rt.loadCached = time.Now()
	rt.loadRefreshing = false
	rt.loadCond.Broadcast()
	rt.loadMu.Unlock()
	return loads
}

// probeLoads measures the live cluster load vector: every peer is probed
// concurrently with a short per-probe deadline. Peers that are marked down
// by health probing, cannot be reached in time, or answer with a mis-typed
// load are excluded from the vector entirely — placement then cannot pick
// them, rather than merely disfavouring them behind a max-int load. The
// vector comes back in node order, which round-robin placement relies on.
func (rt *Runtime) probeLoads() []NodeLoad {
	var mu sync.Mutex
	loads := []NodeLoad{{Node: rt.cfg.NodeID, Load: rt.Load(), Overload: rt.OverloadGrade()}}
	rt.forEachPeer(context.Background(), loadProbeTimeout, true, func(ctx context.Context, p peer) {
		// Load probes double as liveness evidence: their timing is the
		// failure detector's clock, so they must not be stretched (or
		// masked) by retry backoff.
		res, err := p.om.InvokeCtx(remoting.WithoutRetry(ctx), "LoadInfo")
		if err != nil {
			return
		}
		var li LoadInfo
		if err := wire.AssignTo(&li, res); err != nil {
			// A mis-typed reply is as useless as no reply: treating it
			// as load 0 would magnetise traffic onto a broken peer.
			return
		}
		rt.noteOverload(p.node, OverloadGrade(li.Overload))
		mu.Lock()
		loads = append(loads, NodeLoad{Node: p.node, Load: li.Load, Overload: OverloadGrade(li.Overload)})
		mu.Unlock()
	})
	sort.Slice(loads, func(i, j int) bool { return loads[i].Node < loads[j].Node })
	return loads
}

// NewCallToken mints a fresh idempotency token from this node's channel.
// Stamp it on a context with WithCallToken when spanning your own retry
// loop around a logical call; proxies stamp one automatically per call
// when Config.IdempotentCalls is set.
func (rt *Runtime) NewCallToken() remoting.CallToken {
	return rt.cfg.Channel.NewCallToken()
}

// WithCallToken returns a context carrying tok: every remote call made
// under it shares the token, so the hosting object deduplicates retries of
// the same logical call (effectively-once).
func WithCallToken(ctx context.Context, tok remoting.CallToken) context.Context {
	return remoting.ContextWithToken(ctx, tok)
}

// NewParallelObject creates a parallel object of a registered class and
// returns its proxy, implementing the PO constructor of the paper's Fig. 5:
// agglomerate locally, create on this node, or request creation from a
// remote node's factory.
func (rt *Runtime) NewParallelObject(class string) (*Proxy, error) {
	rt.count("objects_created")
	if rt.cfg.Agglomeration.Agglomerate(class, rt.ClassStatsFor(class), rt.Load()) {
		// Intra-grain creation (Fig. 3 call d): passive local object,
		// serial execution, but still published so references to it
		// can travel.
		uri, w, err := rt.createLocalIO(class, false)
		if err != nil {
			return nil, err
		}
		rt.count("objects_agglomerated")
		return &Proxy{rt: rt, class: class, mode: modeAgglomerated, uri: uri, local: w}, nil
	}
	node := rt.cfg.Placement.Pick(rt.cfg.NodeID, rt.nodeLoads())
	if node == rt.cfg.NodeID {
		uri, _, err := rt.createLocalIO(class, true)
		if err != nil {
			return nil, err
		}
		rt.count("objects_local")
		return &Proxy{rt: rt, class: class, mode: modeLocalActive, uri: uri, act: rt.actor(uri)}, nil
	}
	// Inter-grain creation (Fig. 3 call c): ask the remote OM's factory.
	rt.mu.Lock()
	var om *remoting.ObjRef
	var addr string
	for _, p := range rt.peers {
		if p.node == node {
			om, addr = p.om, p.addr
		}
	}
	rt.mu.Unlock()
	if om == nil {
		return nil, fmt.Errorf("core: placement chose unknown node %d", node)
	}
	res, err := om.Invoke("CreateObject", class)
	if err != nil {
		return nil, fmt.Errorf("core: remote creation of %s on node %d: %w", class, node, err)
	}
	uri, _ := res.(string)
	if uri == "" {
		return nil, fmt.Errorf("core: remote factory returned empty URI")
	}
	rt.count("objects_remote")
	rt.dirUpdate(uri, ObjLoc{Node: node, Addr: addr, Gen: 1})
	return newRemoteProxy(rt, class, uri, addr, 1), nil
}

// Attach rebinds a ProxyRef received as a method argument into a usable
// proxy on this node. Objects hosted on this node — including objects that
// migrated here since the ref was produced — bind to the local
// implementation; others become remote proxies routed at this node's best
// directory knowledge of their location.
func (rt *Runtime) Attach(ref ProxyRef) *Proxy {
	if a := rt.actor(ref.URI); a != nil {
		return &Proxy{rt: rt, class: ref.Class, mode: modeLocalActive, uri: ref.URI, act: a}
	}
	addr, gen := ref.NetAddr, ref.Gen
	if loc, ok := rt.dirLookup(ref.URI); ok && loc.Gen > gen {
		addr, gen = loc.Addr, loc.Gen
	}
	return newRemoteProxy(rt, ref.Class, ref.URI, addr, gen)
}

// omService is the object manager's remote interface (Fig. 6's
// RemoteFactory plus load reporting).
type omService struct {
	rt *Runtime
}

// CreateObject instantiates class on this node and returns the new IO's
// URI.
func (s *omService) CreateObject(class string) (string, error) {
	uri, _, err := s.rt.createLocalIO(class, true)
	return uri, err
}

// DestroyObject unpublishes an object hosted on this node. If uri is not
// hosted here, the destruction chases this node's forward knowledge — the
// tombstone's directory entry, or, when even that has been
// garbage-collected, a re-resolution through the peers — to the current
// host, so destroying through a stale location still releases the live
// object instead of silently succeeding against a dead URI. Local state
// is cleared before chasing, which is what makes destroy chains across
// mutually stale caches terminate.
func (s *omService) DestroyObject(ctx context.Context, uri string) error {
	rt := s.rt
	// Snapshot the forward before clearing local state; whether a live
	// actor was removed decides if a forward remains to chase (a
	// migration committing concurrently leaves a tombstone where the
	// actor was — clearing that tombstone alone must not count as
	// destroying the object).
	loc, ok := rt.dirLookup(uri)
	if rt.destroyLocal(uri) {
		return nil
	}
	if !ok || loc.Node == rt.cfg.NodeID {
		loc, ok = rt.resolveRemote(ctx, uri, rt.Addr())
	}
	if ok && loc.Node != rt.cfg.NodeID {
		om := remoting.NewObjRef(rt.cfg.Channel, loc.Addr, omURI)
		if _, err := om.InvokeCtx(ctx, "DestroyObject", uri); err != nil {
			return err
		}
		rt.dirDrop(uri)
	}
	// No local trace and no resolvable forward: treated as already
	// destroyed. This keeps destroy idempotent (double-destroys must
	// succeed), at the price that a destroy routed through a node whose
	// tombstone aged out, while every resolution probe transiently
	// failed, reports success without reaching the live copy — the same
	// information horizon any caller of a fully decentralised directory
	// has.
	return nil
}

// AbortAccept is the compensation half of a failed migration; see
// Runtime.abortAccept.
func (s *omService) AbortAccept(uri string, gen uint64) {
	s.rt.abortAccept(uri, gen)
}

// Load reports the node's live object count for placement decisions.
func (s *omService) Load() int { return s.rt.Load() }

// Ping lets peers probe liveness.
func (s *omService) Ping() string { return "pong" }

// Resolve reports this node's directory knowledge of uri: authoritative
// for hosted objects and tombstones, best-effort for cached locations.
func (s *omService) Resolve(uri string) ResolveReply {
	if loc, ok := s.rt.dirLookup(uri); ok {
		return ResolveReply{Found: true, Node: loc.Node, Addr: loc.Addr, Gen: loc.Gen}
	}
	return ResolveReply{}
}

// AcceptObject is the receiving half of a live migration: re-create class
// under uri at generation gen from the snapshotted state, returning this
// node's transport address.
func (s *omService) AcceptObject(class, uri string, gen uint64, state []byte) (string, error) {
	return s.rt.acceptObject(class, uri, gen, state)
}

// Migrate moves an object hosted on this node to toNode, returning its new
// location. A *errs.MovedError (object already elsewhere) travels back
// with the forward so the caller can chase it.
func (s *omService) Migrate(ctx context.Context, uri string, toNode int) (ResolveReply, error) {
	if err := s.rt.MigrateCtx(ctx, uri, toNode); err != nil {
		return ResolveReply{}, err
	}
	loc, ok := s.rt.dirLookup(uri)
	if !ok {
		return ResolveReply{}, fmt.Errorf("core: migrate %s: directory entry lost", uri)
	}
	return ResolveReply{Found: true, Node: loc.Node, Addr: loc.Addr, Gen: loc.Gen}, nil
}

// Rebalance triggers a load rebalance on this node, returning the number
// of objects migrated away.
func (s *omService) Rebalance(ctx context.Context) (int, error) {
	return s.rt.Rebalance(ctx)
}

// ioWrapper wraps an implementation object, measuring execution times for
// grain-size estimation and replaying batches (the processN method the
// preprocessor adds in Fig. 7). Its methods take the caller's context first
// so the remoting dispatcher injects the request context, which in turn is
// injected into context-aware implementation methods.
type ioWrapper struct {
	rt    *Runtime
	class string
	obj   any
	uri   string

	// calls and execNS are the class's grain counters (Runtime.wrap).
	calls, execNS *metrics.Counter

	// virt is set on actor-hosted virtual objects of a replicated class:
	// after each call (or each SnapshotEvery-th), the wrapper snapshots
	// obj and ships the state to the ring-successor replicas (virtual.go).
	// Invoke1/InvokeBatch run in the actor goroutine for these objects,
	// so the snapshot reads quiesced state. seq counts applied calls;
	// replicas order snapshots by (generation, seq).
	virt      *VirtualConfig
	seq       atomic.Uint64
	sinceShip int // calls since the last shipped snapshot; actor goroutine only

	// gen is the directory generation THIS copy was activated at. Snapshot
	// ships must stamp this — never the directory's current generation: a
	// promotion census can demote this copy and repoint the directory at
	// the winning lineage's generation while a call is still executing
	// here, and a ship stamped with the directory's new generation would
	// smuggle the doomed lineage's state into the winner's replica chain.
	gen atomic.Uint64

	// snapMu guards the last shipped snapshot, re-shipped by the
	// reconciliation pass when a partitioned peer recovers.
	snapMu   sync.Mutex
	lastSnap []byte
	lastSeq  uint64

	// dedup remembers replies of executed token-bearing calls so a retry
	// of an already-executed call replays the recorded reply instead of
	// executing again. An agglomerated object's proxy calls through this
	// same wrapper; those calls never leave the caller, never retry and
	// carry no token, so they never consult it.
	dedup *remoting.DedupLRU

	// fenced is set by a promotion census that read this copy's last
	// snapshot while promoting the object elsewhere (replicaAt): from that
	// point on, calls here must not be acknowledged — the promoted lineage
	// was built without them and an acknowledgement would be lost when this
	// copy demotes. Callers re-resolve to the promoted copy instead.
	fenced atomic.Bool

	// shipAck tracks, per replica address, the dedup write counter that
	// replica acknowledged, so synchronous snapshot ships carry only the
	// dedup records added since (virtual.go shipTo) instead of the whole
	// LRU on every call. Reset to zero (full resend) when a receiver
	// reports it cannot extend its chain.
	shipMu  sync.Mutex
	shipAck map[string]uint64
}

func (w *ioWrapper) shipAckFor(addr string) uint64 {
	w.shipMu.Lock()
	defer w.shipMu.Unlock()
	return w.shipAck[addr]
}

func (w *ioWrapper) setShipAck(addr string, stamp uint64) {
	w.shipMu.Lock()
	defer w.shipMu.Unlock()
	if w.shipAck == nil {
		w.shipAck = make(map[string]uint64)
	}
	w.shipAck[addr] = stamp
}

// errFenced is the refusal a fenced stale copy answers every call with. It
// wraps ErrNodeDown so callers take the same re-resolve path an owner death
// does — the promoted lineage is where their calls must land.
func errFenced(uri string) error {
	return fmt.Errorf("core: %s: this copy is fenced pending promotion elsewhere: %w", uri, errs.ErrNodeDown)
}

// Invoke1 executes one method invocation on the IO. Calls carrying an
// idempotency token are deduplicated: a token already recorded means the
// call executed here before (a retry whose reply was lost), so the recorded
// reply is replayed instead of executing again.
func (w *ioWrapper) Invoke1(ctx context.Context, method string, args []any) (any, error) {
	if w.fenced.Load() {
		return nil, errFenced(w.uri)
	}
	tok, hasTok := remoting.TokenFromContext(ctx)
	if hasTok {
		if rep, ok := w.dedup.Get(tok); ok {
			// The recorded call may have executed and then failed its
			// synchronous replication ack: re-ship the current state before
			// replaying, so the replayed acknowledgement is as durable as
			// the original success would have been.
			if w.virt != nil {
				if rerr := w.rt.reshipForDedup(ctx, w); rerr != nil {
					return nil, rerr
				}
			}
			return rep.Result, dedupReplayError(rep)
		}
	}
	start := time.Now()
	res, err := dispatch.InvokeCtx(ctx, w.obj, method, args)
	w.grain(time.Since(start))
	record := hasTok && dedupRecordable(err)
	rep := remoting.DedupReply{
		Result:  res,
		ErrMsg:  errMsg(err),
		ErrCode: errs.Code(err),
		IsErr:   err != nil,
	}
	if err == nil && w.virt != nil {
		// The dedup record is committed by replicateAfterCalls, inside the
		// same critical section that publishes the snapshot it is embedded
		// in: a promotion census reading (snapshot, dedup memory) under that
		// lock sees this call in both or in neither — a record without its
		// effects would replay an acknowledgement for state the promoted
		// lineage does not have, and effects without their record would
		// re-execute the retry of a call refused by the fence below.
		var rec *pendingRecord
		if record {
			rec = &pendingRecord{tok: tok, rep: rep}
			record = false
		}
		if rerr := w.rt.replicateAfterCalls(ctx, w, 1, rec); rerr != nil {
			// Synchronous replication failed: surface it so the caller
			// retries (and its retry re-replicates) instead of receiving an
			// acknowledgement for state no replica has.
			return nil, rerr
		}
	}
	if record {
		// Non-replicated path (plain objects, application errors): no
		// snapshot to pair with, record directly.
		w.dedup.Put(tok, rep)
	}
	if w.fenced.Load() {
		// A promotion census fenced this copy while the call was in
		// flight. The census reads the (snapshot, dedup) pair after setting
		// the fence, and this call committed its pair before replicating —
		// so a call refused here either made it into the promoted lineage
		// whole (its retry replays the recorded reply) or not at all (its
		// retry executes there once).
		return nil, errFenced(w.uri)
	}
	return res, err
}

// grain counts one call of d into the class's grain counters; a batch
// counts as one call of its mean time.
func (w *ioWrapper) grain(d time.Duration) {
	w.calls.Add(1)
	w.execNS.Add(d.Nanoseconds())
}

// dedupRecordable reports whether an invocation outcome is worth
// remembering for replay. Outcomes that never executed the method body
// (refusals and cut-offs) are not: replaying them would pin a transient
// failure onto every retry of the token.
func dedupRecordable(err error) bool {
	if err == nil {
		return true
	}
	return !errors.Is(err, context.DeadlineExceeded) &&
		!errors.Is(err, context.Canceled) &&
		!errors.Is(err, errs.ErrOverloaded) &&
		!errors.Is(err, errs.ErrObjectMoved) &&
		!errors.Is(err, errs.ErrObjectDestroyed) &&
		!errors.Is(err, errs.ErrNodeDown)
}

func errMsg(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// dedupReplayError rebuilds the error of a recorded outcome, re-rooting it
// at the matching sentinel so errors.Is classification survives the replay.
func dedupReplayError(rep remoting.DedupReply) error {
	if !rep.IsErr {
		return nil
	}
	if sent := errs.Sentinel(rep.ErrCode); sent != nil {
		return fmt.Errorf("%s: %w", rep.ErrMsg, sent)
	}
	return errors.New(rep.ErrMsg)
}

// InvokeBatch replays an aggregate message: calls is a list of argument
// lists for method. It returns the number of calls applied.
func (w *ioWrapper) InvokeBatch(ctx context.Context, method string, calls []any) (int, error) {
	if w.fenced.Load() {
		return 0, errFenced(w.uri)
	}
	start := time.Now()
	for i, c := range calls {
		args, ok := c.([]any)
		if !ok {
			return i, fmt.Errorf("core: batch element %d is %T, want argument list", i, c)
		}
		if _, err := dispatch.InvokeCtx(ctx, w.obj, method, args); err != nil {
			return i, err
		}
	}
	if n := len(calls); n > 0 {
		w.grain(time.Since(start) / time.Duration(n))
		if w.virt != nil {
			if rerr := w.rt.replicateAfterCalls(ctx, w, n, nil); rerr != nil {
				return 0, rerr
			}
		}
	}
	return len(calls), nil
}
