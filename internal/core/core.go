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
//   - method-call aggregation (Fig. 7): a remote proxy's posts are
//     stop-and-wait, and the posts of one method queued behind the one in
//     flight leave together, as one batch, when it finishes (callOrder);
//   - object agglomeration: when the AgglomerationPolicy decides to remove
//     parallelism, NewParallelObject creates the object locally and the
//     proxy executes calls synchronously and serially in the caller's
//     context.
package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

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
	// sheds) with jittered exponential backoff. With or without it, the
	// channel's per-peer dial backoff fails calls fast at a peer that
	// just refused a connection.
	Retry remoting.RetryPolicy
	// IdempotentCalls stamps every outermost remote call that does not
	// already carry one with a fresh idempotency token, making cross-node
	// retries effectively-once against hosts that keep dedup memory (every
	// actor-hosted object does). Callers spanning their own retry loops
	// use WithCallToken to share one token across attempts.
	IdempotentCalls bool
	// DedupPerObject caps each hosted object's dedup LRU (recorded
	// replies for token-bearing calls). 0 selects
	// remoting's default, 256.
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

	// Virtual-object state (see virtual.go and replicate.go): registered
	// virtual classes, the single-flight table serialising concurrent
	// activations of one URI, and the passive replica store (state snapshots
	// shipped by the owners of replicated virtual objects hosted elsewhere).
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
	srv.Marshal(omURI, &omService{rt: rt})
	rt.peers = []peer{{node: cfg.NodeID, addr: srv.Addr()}}
	return rt, nil
}

// Addr returns the node's transport address.
func (rt *Runtime) Addr() string { return rt.server.Addr() }

// NodeID returns this node's cluster index.
func (rt *Runtime) NodeID() int { return rt.cfg.NodeID }

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

// closed reports whether Close has begun.
func (rt *Runtime) closed() bool {
	select {
	case <-rt.stop:
		return true
	default:
		return false
	}
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

// classStatsFor returns the measured grain statistics of a class on this
// node.
func (rt *Runtime) classStatsFor(class string) classStats {
	calls, nanos := rt.grainCounters(class)
	// The two loads are not a consistent snapshot: a concurrent call can
	// land between them, skewing the average by one call. Grain stats
	// feed heuristics (agglomeration thresholds), so the skew is harmless
	// and not worth a lock on the dispatch path.
	n := calls.Load()
	if n == 0 {
		return classStats{}
	}
	return classStats{Calls: n, AvgExecTime: time.Duration(nanos.Load() / n)}
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
	if rt.cfg.Agglomeration.Agglomerate(class, rt.classStatsFor(class), rt.Load()) {
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
	uri, err := omCreateObject(class).on(context.Background(), om)
	if err != nil {
		return nil, fmt.Errorf("core: remote creation of %s on node %d: %w", class, node, err)
	}
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
