package core

// This file implements virtual objects — the Orleans-style activation
// model, built on directory generations, state snapshots, health grading
// and forwarding tombstones. The protocol's decisions (the snapshot order,
// the activation generation, the census quorum and fence, and a replica's
// verdict on a ship) are pure functions in promote.go; this file runs the
// RPCs, timeouts and locks around them:
//
//   - identity: a virtual object is its URI ("virtual/<class>/<key>"),
//     not a host. Nobody creates it; the first call activates it.
//   - placement: the consistent-hash ring over live members (ring.go)
//     gives every node the same owner for a URI with no coordination.
//     Activation is single-flight per URI on the owner, and an owner
//     whose membership view disagrees redirects the caller instead of
//     activating — racing activations on different nodes converge on one
//     live instance through the pre-activation resolve plus ring order.
//   - replication: classes registered with VirtualConfig.Replicas > 0
//     ship state snapshots from the owner to its ring successors after
//     every call, synchronously: the reply waits for a replica ack, so an
//     acknowledged call survives the owner.
//   - failover: when health grading marks the owner down, each replica
//     holder checks the rebuilt ring; the holder that now owns the key —
//     by the successor invariant, the replica's own node — promotes its
//     freshest snapshot at a bumped generation. Callers re-resolve
//     through the existing ErrNodeDown retry path; a recovered stale
//     owner demotes itself into the same forwarding tombstone a
//     migration leaves, so no new client logic exists anywhere.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/errs"
	"repro/internal/remoting"
	"repro/internal/wire"
)

// VirtualConfig is the per-class policy of a virtual class.
type VirtualConfig struct {
	// Replicas is the number of ring-successor nodes that receive passive
	// state snapshots. 0 disables replication: failover re-activates the
	// object from a fresh instance (state is lost with the owner).
	// Every call on a replicated object ships a snapshot to the replicas,
	// and the caller's reply is withheld until at least one replica
	// acknowledged, so no acknowledged call is lost when the owner dies.
	Replicas int
}

// virtualURIPrefix namespaces virtual objects in the directory and on the
// wire; ownership, replication and demotion only ever apply inside it.
const virtualURIPrefix = "virtual/"

// virtualURI returns the cluster-wide identity of the virtual object
// (class, key).
func virtualURI(class, key string) string { return virtualURIPrefix + class + "/" + key }

// isVirtualURI reports whether uri names a virtual object.
func isVirtualURI(uri string) bool { return strings.HasPrefix(uri, virtualURIPrefix) }

// classOfVirtualURI extracts the class component of a virtual URI.
func classOfVirtualURI(uri string) string {
	rest := strings.TrimPrefix(uri, virtualURIPrefix)
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		return rest[:i]
	}
	return rest
}

// RegisterVirtualClass registers class as a virtual class: instances are
// addressed by key through VirtualObject and activated on demand on their
// ring owner. Every node must register the same virtual classes with the
// same config (exactly like RegisterClass). It panics if class contains
// '/': a virtual URI is "virtual/<class>/<key>", so such a class would
// share URIs with another class's keys.
func (rt *Runtime) RegisterVirtualClass(class string, factory func() any, cfg VirtualConfig) {
	if strings.Contains(class, "/") {
		panic(fmt.Sprintf("core: virtual class name %q contains '/'", class))
	}
	rt.RegisterClass(class, factory)
	rt.virtMu.Lock()
	rt.virtuals[class] = cfg
	rt.virtMu.Unlock()
}

// virtualConfig returns the class's virtual policy, if registered virtual.
func (rt *Runtime) virtualConfig(class string) (VirtualConfig, bool) {
	rt.virtMu.Lock()
	defer rt.virtMu.Unlock()
	cfg, ok := rt.virtuals[class]
	return cfg, ok
}

// liveMembers snapshots the node ids this runtime considers part of the
// cluster right now: every known peer not graded Down — and not currently
// Shedding, so virtual-object activation routes around hot nodes the same
// way it routes around dead ones — self included. Excluding self is never
// allowed (the ring must not empty), which also gives a shedding node a
// self-view where it still owns its keys: views diverge briefly, exactly
// the tolerance the activation/demotion machinery already absorbs for
// Down transitions. If every peer is hot the peers stay in (there is no
// cooler node to prefer).
func (rt *Runtime) liveMembers() []int {
	rt.mu.Lock()
	peers := rt.peers
	rt.mu.Unlock()
	members := make([]int, 0, len(peers))
	hot := 0
	for _, p := range peers {
		if p.node != rt.cfg.NodeID {
			if rt.peerDown(p.node) {
				continue
			}
			if rt.peerShedding(p.node) {
				hot++
				continue
			}
		}
		members = append(members, p.node)
	}
	if hot > 0 && len(members) <= 1 {
		// Only self is cool: re-admit the shedding peers rather than
		// collapsing the whole key space onto one node.
		members = members[:0]
		for _, p := range peers {
			if p.node != rt.cfg.NodeID && rt.peerDown(p.node) {
				continue
			}
			members = append(members, p.node)
		}
	}
	return members
}

// ring returns the consistent-hash ring over the live members, rebuilt
// lazily whenever the membership epoch moved (JoinCluster, a peer
// crossing the Down boundary).
func (rt *Runtime) ring() *hashRing {
	epoch := rt.ringEpoch.Load()
	rt.ringMu.Lock()
	defer rt.ringMu.Unlock()
	if rt.ringCache == nil || rt.ringCacheEpoch != epoch {
		rt.ringCache = buildRing(rt.liveMembers())
		rt.ringCacheEpoch = epoch
	}
	return rt.ringCache
}

// VirtualOwner reports which node this runtime's membership view assigns
// ownership of the virtual object (class, key) — an observability and
// test hook, not a routing guarantee (views converge, they are not
// atomic).
func (rt *Runtime) VirtualOwner(class, key string) (int, bool) {
	return rt.ring().owner(virtualURI(class, key))
}

// VirtualObject returns a proxy for the virtual object (class, key),
// activating it on its ring owner if no live instance exists yet.
func (rt *Runtime) VirtualObject(class, key string) (*Proxy, error) {
	return rt.VirtualObjectCtx(context.Background(), class, key)
}

// VirtualObjectCtx is VirtualObject bounded by ctx. The returned proxy
// re-routes itself through the ordinary moved/ErrNodeDown retry paths;
// after a failover callers obtain a working route either transparently
// (one retry) or by calling VirtualObjectCtx again.
func (rt *Runtime) VirtualObjectCtx(ctx context.Context, class, key string) (*Proxy, error) {
	if _, ok := rt.virtualConfig(class); !ok {
		return nil, fmt.Errorf("core: class %q is not registered virtual on node %d: %w",
			class, rt.cfg.NodeID, errs.ErrNoSuchClass)
	}
	uri := virtualURI(class, key)
	if a := rt.actor(uri); a != nil {
		return &Proxy{rt: rt, class: class, mode: modeLocalActive, uri: uri, act: a}, nil
	}
	if loc, ok := rt.dirLookup(uri); ok && loc.Node != rt.cfg.NodeID && !rt.peerDown(loc.Node) {
		return newRemoteProxy(rt, class, uri, loc.Addr, loc.Gen), nil
	}
	return rt.activateAndRoute(ctx, class, uri)
}

// activateHops bounds how many ownership redirects one activation chases:
// membership views converge quickly, so a redirect chain longer than this
// means the cluster is still sorting itself out — fail and let the caller
// retry rather than ping-pong.
const activateHops = 3

// activateAndRoute drives an activation to whatever node currently owns
// uri: activate locally when this node is the owner, otherwise ask the
// owner's object manager, following its redirect when its membership view
// names someone else and skipping owners that cannot be reached.
func (rt *Runtime) activateAndRoute(ctx context.Context, class, uri string) (*Proxy, error) {
	exclude := make(map[int]bool)
	forced := -1
	var lastErr error
	for hop := 0; hop < activateHops; hop++ {
		owner := forced
		forced = -1
		if owner < 0 {
			o, ok := rt.ringOwnerExcluding(uri, exclude)
			if !ok {
				return nil, fmt.Errorf("core: activate %s: no live members", uri)
			}
			owner = o
		}
		var rr resolveReply
		var err error
		if owner == rt.cfg.NodeID {
			rr, err = rt.activateVirtual(ctx, class, uri)
			if err != nil {
				return nil, err
			}
		} else {
			p, ok := rt.peerFor(owner)
			if !ok || p.om == nil {
				exclude[owner] = true
				continue
			}
			call := omActivateVirtual(class, uri)
			res, ierr := call.remoteCall.on(ctx, p.om)
			if ierr != nil {
				if ctx.Err() != nil {
					return nil, ierr
				}
				// An unreachable owner is excluded and the next member in
				// ring order tried — the same degraded view its failure
				// will shortly push into the health grades.
				lastErr = ierr
				exclude[owner] = true
				continue
			}
			if rr, err = call.reply(res); err != nil {
				return nil, fmt.Errorf("core: activate %s: bad reply from node %d: %w", uri, owner, err)
			}
		}
		if rr.Found {
			rt.dirUpdate(uri, ObjLoc{Node: rr.Node, Addr: rr.Addr, Gen: rr.Gen})
			return rt.proxyAt(class, uri, rr), nil
		}
		if rr.Addr != "" && rr.Node != owner && !exclude[rr.Node] {
			// The callee's membership view names a different owner; chase
			// it once per hop.
			forced = rr.Node
			continue
		}
		lastErr = fmt.Errorf("core: node %d declined to activate %s", owner, uri)
		exclude[owner] = true
	}
	if lastErr == nil {
		lastErr = errors.New("ownership did not converge")
	}
	return nil, fmt.Errorf("core: activate %s: gave up after %d hops: %w", uri, activateHops, lastErr)
}

// ringOwnerExcluding is the ring owner of uri after pretending the
// excluded nodes are gone — the first non-excluded member in ring order,
// exactly where the key would fall if they were down.
func (rt *Runtime) ringOwnerExcluding(uri string, exclude map[int]bool) (int, bool) {
	r := rt.ring()
	if len(exclude) == 0 {
		return r.owner(uri)
	}
	nodes := r.walk(uri, 1, func(node int) bool { return !exclude[node] })
	if len(nodes) == 0 {
		return 0, false
	}
	return nodes[0], true
}

// proxyAt builds the proxy for an activation reply: the local actor when
// the instance lives here, a remote proxy otherwise.
func (rt *Runtime) proxyAt(class, uri string, rr resolveReply) *Proxy {
	if rr.Node == rt.cfg.NodeID {
		if a := rt.actor(uri); a != nil {
			return &Proxy{rt: rt, class: class, mode: modeLocalActive, uri: uri, act: a}
		}
	}
	return newRemoteProxy(rt, class, uri, rr.Addr, rr.Gen)
}

// activation is one in-flight single-flight activation of a URI.
type activation struct {
	done  chan struct{}
	reply resolveReply
	err   error
}

// activateVirtual ensures a live instance of uri exists, activating it
// here if this node owns it. Concurrent activations of one URI are
// single-flight: one leader runs doActivate, followers wait and share its
// outcome — the server-side half of serialising the first-call duel (the
// client-side half is that every caller's ring names the same owner).
func (rt *Runtime) activateVirtual(ctx context.Context, class, uri string) (resolveReply, error) {
	if rt.actor(uri) != nil {
		return rt.hostedReply(uri), nil
	}
	rt.activMu.Lock()
	if act := rt.activations[uri]; act != nil {
		rt.activMu.Unlock()
		select {
		case <-act.done:
			return act.reply, act.err
		case <-ctx.Done():
			return resolveReply{}, ctx.Err()
		}
	}
	act := &activation{done: make(chan struct{})}
	rt.activations[uri] = act
	rt.activMu.Unlock()
	act.reply, act.err = rt.doActivate(ctx, class, uri)
	rt.activMu.Lock()
	delete(rt.activations, uri)
	rt.activMu.Unlock()
	close(act.done)
	return act.reply, act.err
}

// doActivate is the single-flight body: verify ownership (or redirect),
// converge on an existing live instance anywhere in the cluster, and only
// then create one — from the freshest local replica snapshot when one
// exists (failover promotion), from the factory otherwise — at a
// generation above everything the cluster has seen for this URI.
func (rt *Runtime) doActivate(ctx context.Context, class, uri string) (resolveReply, error) {
	cfg, ok := rt.virtualConfig(class)
	if !ok {
		return resolveReply{}, fmt.Errorf("core: class %q is not registered virtual on node %d: %w",
			class, rt.cfg.NodeID, errs.ErrNoSuchClass)
	}
	owner, ok := rt.ring().owner(uri)
	if !ok {
		return resolveReply{}, fmt.Errorf("core: activate %s: no live members", uri)
	}
	if owner != rt.cfg.NodeID {
		p, ok := rt.peerFor(owner)
		if !ok {
			return resolveReply{}, fmt.Errorf("core: activate %s: owner node %d unknown here", uri, owner)
		}
		return resolveReply{Found: false, Node: owner, Addr: p.addr}, nil
	}

	// Converge before creating: a racing activation may have landed
	// elsewhere while this node's view was stale, or the instance may
	// simply still be alive from before a membership flap. Any live copy
	// wins over creating a second one; entries at down nodes only raise
	// the generation floor.
	var dirGen, remoteGen uint64
	excludeAddr := ""
	if loc, ok := rt.dirLookup(uri); ok {
		if loc.Node != rt.cfg.NodeID && !rt.peerDown(loc.Node) {
			return resolveReply{Found: true, Node: loc.Node, Addr: loc.Addr, Gen: loc.Gen}, nil
		}
		dirGen = loc.Gen
		if loc.Node != rt.cfg.NodeID {
			excludeAddr = loc.Addr
		}
	}
	if loc, ok := rt.resolveRemote(ctx, uri, excludeAddr); ok {
		if loc.Node != rt.cfg.NodeID && !rt.peerDown(loc.Node) {
			return resolveReply{Found: true, Node: loc.Node, Addr: loc.Addr, Gen: loc.Gen}, nil
		}
		remoteGen = loc.Gen
	}
	rt.replMu.Lock()
	cand := rt.replicas[uri].info()
	rt.replMu.Unlock()
	if cfg.Replicas > 0 {
		// Replica census: an owner that lost a replica target behind a
		// partition reroutes its synchronous ships to another successor, so
		// the freshest acknowledged snapshot may sit on a peer rather than
		// here. Ask every peer before activating and adopt the freshest
		// (generation, seq); each answering peer promises the candidate
		// generation — refusing later deposits from superseded lineages and
		// fencing a stale live copy it still hosts — so no acknowledgement
		// slips in behind the census. The census must reach a majority
		// (censusQuorum): consistency over minority availability, bounded
		// by the partition itself.
		var reached int
		cand, reached = rt.replicaCensus(ctx, uri, activationGen(dirGen, remoteGen, cand.Gen), cand)
		if n := rt.clusterSize(); !censusQuorum(reached, n) {
			return resolveReply{}, fmt.Errorf("core: activate %s: promotion census reached %d of %d nodes (majority required)",
				uri, reached, n)
		}
	}
	rt.abortMu.Lock()
	newGen := activationGen(dirGen, remoteGen, cand.Gen, rt.aborts[uri])
	rt.abortMu.Unlock()

	factory, err := rt.factoryFor(class)
	if err != nil {
		return resolveReply{}, err
	}
	obj := factory()
	registerStateType(obj)
	promoted := false
	if len(cand.State) > 0 {
		// A snapshot that no longer decodes (class changed shape across a
		// rolling upgrade) falls back to a fresh instance: availability
		// over a snapshot nothing can read.
		if snap, derr := (wire.BinFmt{}).Unmarshal(cand.State); derr == nil {
			if adopted, aerr := adoptState(obj, snap); aerr == nil {
				obj = adopted
				promoted = true
			}
		}
	}
	w := rt.wrap(class, obj, uri)
	wcfg := cfg
	w.virt = &wcfg
	w.gen.Store(newGen)
	if promoted {
		w.seq.Store(cand.Seq)
		w.snapMu.Lock()
		w.lastSnap, w.lastSeq = cand.State, cand.Seq
		w.snapMu.Unlock()
		// Inherit the dead owner's executed-call memory — only alongside
		// its state: importing records without the matching state would
		// acknowledge effects this instance does not have.
		w.dedup.Import(cand.Dedup)
	}
	a := newActor(w)
	rt.actorsMu.Lock()
	if rt.actors[uri] != nil {
		// An AcceptObject (migration in) committed while this activation
		// was resolving; the committed copy wins.
		rt.actorsMu.Unlock()
		a.stop()
		return rt.hostedReply(uri), nil
	}
	rt.actors[uri] = a
	rt.server.Marshal(uri, &actorEndpoint{a: a})
	rt.load.Add(1)
	rt.dirUpdate(uri, ObjLoc{Node: rt.cfg.NodeID, Addr: rt.Addr(), Gen: newGen})
	rt.actorsMu.Unlock()
	rt.replMu.Lock()
	delete(rt.replicas, uri) // the live copy supersedes the passive one
	rt.replMu.Unlock()
	rt.count("virtual_activations")
	if promoted {
		rt.count("replica_promotions")
		if cfg.Replicas > 0 {
			// Restore redundancy right away: the promoted state's previous
			// replica set centred on the dead owner, not on this node.
			_ = rt.shipSnapshot(w, cand.State, newGen, cand.Seq, false) //nolint:errcheck // async re-ship
		}
	}
	return resolveReply{Found: true, Node: rt.cfg.NodeID, Addr: rt.Addr(), Gen: newGen}, nil
}

// hostedReply is the activation reply for a copy of uri hosted here, at
// the generation the directory knows it by.
func (rt *Runtime) hostedReply(uri string) resolveReply {
	gen := uint64(1)
	if loc, ok := rt.dirLookup(uri); ok {
		gen = loc.Gen
	}
	return resolveReply{Found: true, Node: rt.cfg.NodeID, Addr: rt.Addr(), Gen: gen}
}

// replicaInfo is one peer's answer to a promotion census (ReplicaAt): its
// passive replica of the URI, if it holds one.
type replicaInfo struct {
	Has   bool
	Gen   uint64
	Seq   uint64
	State []byte
	Dedup []remoting.DedupRecord
}

func init() { wire.RegisterName("core.ReplicaInfo", replicaInfo{}) }

// replicaCensus queries every peer for its freshest knowledge of uri
// (passive replica or fenced live copy) and returns the freshest
// (generation, seq) snapshot, have (this node's own copy) included, and
// how many nodes, self included, answered. Every peer is asked at once, in
// one fan-out round, and the census decides once every peer has answered
// or replicaCensusTimeout has passed, so k unreachable peers cost a
// promotion one timeout, not k; the caller enforces the majority quorum.
// candidateGen is promised to every answering peer, which from then on
// refuses deposits from older lineages — and fences a live stale copy it
// still hosts — so no acknowledgement can slip in behind the census.
func (rt *Runtime) replicaCensus(ctx context.Context, uri string, candidateGen uint64, have replicaInfo) (freshest replicaInfo, reached int) {
	// WithoutBreaker: the census must make a GENUINE attempt at every
	// peer, dialling one the channel's dial backoff still has open after
	// a refused dial. A breaker left open by a transient fault would mark
	// the freshest replica holder unreachable while quorum is still met
	// via emptier peers — promoting stale state past acknowledged calls.
	// With real attempts the quorum math is airtight for N=3: the two
	// fresh copies (owner, sync replica) plus the initiator overlap any
	// two reachable nodes. The round's one timeout bounds the cost.
	ctx = remoting.WithoutBreaker(remoting.WithoutRetry(ctx))
	census := omReplicaAt(uri, candidateGen, rt.cfg.NodeID, rt.Addr())
	f := newFanout(ctx, replicaCensusTimeout, rt.otherPeers(false)).sendAll(census.remoteCall)
	freshest, reached = have, 1 // self
	for c := range f.each {
		if c.err != nil {
			continue
		}
		reached++
		info, aerr := census.reply(c.v)
		if aerr != nil || !info.Has || !fresher(info.Gen, info.Seq, freshest.Gen, freshest.Seq) {
			continue
		}
		// The reply's byte slices may alias the transport frame; the
		// adopted snapshot outlives the call, so copy.
		freshest = replicaInfo{Has: true, Gen: info.Gen, Seq: info.Seq,
			State: append([]byte(nil), info.State...), Dedup: copyDedupRecords(info.Dedup)}
	}
	return freshest, reached
}

// copyDedupRecords deep-copies dedup records, including []byte results that
// may alias a transport receive frame.
func copyDedupRecords(recs []remoting.DedupRecord) []remoting.DedupRecord {
	out := append([]remoting.DedupRecord(nil), recs...)
	for i := range out {
		if b, ok := out[i].Result.([]byte); ok {
			out[i].Result = append([]byte(nil), b...)
		}
	}
	return out
}

// replicaAt answers a promotion census with this node's freshest knowledge
// of uri, and promises candidateGen — deposits from generations below the
// promise are refused from now on (see Runtime.promised). Besides the
// passive replica store, a live copy hosted HERE at a generation below the
// candidate is reported too, from its last shipped snapshot — and fenced
// first: the census is promoting past this copy (this node was an owner
// the promoting node's view lost), so acknowledging further calls here
// would lose them at demotion. The fence-then-read order makes the
// guarantee airtight: any call that passed its fence check committed its
// (snapshot, dedup record) pair before replicating, so the census read —
// which follows the fence write and takes the same snapMu the pair was
// committed under — includes it whole. A call refused by the fence is
// adopted whole or not at all for the same reason: whole, its retry
// replays the recorded reply; absent, its retry executes on the promoted
// lineage exactly once.
//
// A fenced copy is then fully demoted, forwarding to the census initiator
// (fromNode/fromAddr): a copy left merely fenced would refuse calls
// forever if the winner's snapshot ships never reach this node, and —
// worse — directory entries still naming it would route callers into that
// dead end with nothing to repair them. Its final state is deposited in
// the local replica store first, so even a census that subsequently fails
// its majority quorum (and so never promotes anyone) leaves the state
// findable by the retry census.
func (rt *Runtime) replicaAt(uri string, candidateGen uint64, fromNode int, fromAddr string) replicaInfo {
	rt.replMu.Lock()
	rt.promised[uri] = max(rt.promised[uri], candidateGen)
	info := rt.replicas[uri].info()
	rt.replMu.Unlock()

	a := rt.actor(uri)
	if a == nil || a.w.virt == nil {
		return info
	}
	gen := a.w.gen.Load()
	if !censusFence(gen, candidateGen) {
		return info
	}
	a.w.fenced.Store(true)
	a.w.snapMu.Lock()
	snap, seq := a.w.lastSnap, a.w.lastSeq
	recs := a.w.dedup.Export()
	a.w.snapMu.Unlock()
	if snap != nil && fresher(gen, seq, info.Gen, info.Seq) {
		info = replicaInfo{Has: true, Gen: gen, Seq: seq, State: snap, Dedup: recs}
		rt.replMu.Lock()
		if cur := rt.replicas[uri]; cur == nil || !fresher(cur.gen, cur.seq, gen, seq) {
			rt.replicas[uri] = rt.newReplica(gen, seq, snap, recs)
		}
		rt.replMu.Unlock()
	}
	rt.demoteStale(uri, ObjLoc{Node: fromNode, Addr: fromAddr, Gen: candidateGen})
	return info
}

const (
	// replicateSyncTimeout bounds the per-call synchronous replication
	// fan-out; a replica slower than this fails the ack (the call errors
	// and the caller retries) rather than wedging the owner's mailbox.
	replicateSyncTimeout = 2 * time.Second
	// replicaCensusTimeout bounds a promotion census, all its queries.
	replicaCensusTimeout = 500 * time.Millisecond
	// replicateShipTimeout bounds one asynchronous snapshot ship.
	replicateShipTimeout = time.Second
	// promoteTimeout bounds one failover promotion attempt.
	promoteTimeout = 5 * time.Second
)

// onPeerDown runs (async) when health grading marks a peer Down: every
// passive replica held here whose key now falls to this node — by the
// ring successor invariant, exactly the keys the dead peer owned and
// replicated here — is promoted through the ordinary single-flight
// activation path, which folds in directory knowledge, racing promotions
// on other nodes, and generation bumping.
func (rt *Runtime) onPeerDown(node int) {
	var uris []string
	rt.replMu.Lock()
	for uri := range rt.replicas {
		uris = append(uris, uri)
	}
	rt.replMu.Unlock()
	for _, uri := range uris {
		if owner, ok := rt.ring().owner(uri); !ok || owner != rt.cfg.NodeID {
			continue
		}
		if loc, ok := rt.dirLookup(uri); ok && loc.Node != rt.cfg.NodeID && loc.Node != node && !rt.peerDown(loc.Node) {
			continue // still live on a node unaffected by this failure
		}
		ctx, cancel := context.WithTimeout(context.Background(), promoteTimeout)
		_, _ = rt.activateVirtual(ctx, classOfVirtualURI(uri), uri) //nolint:errcheck // lazy activation redoes it on demand
		cancel()
	}
}

// onPeerUp runs (async) when a Down peer recovers. A peer that was
// partitioned away (rather than restarted) may still host stale copies of
// objects promoted past it, and it cannot know that yet. Re-shipping the
// last snapshot of every replicated virtual object hosted here makes the
// recovered node either store it as a replica or — if it still hosts the
// object at a lower generation — demote its stale copy (replicateVirtual
// does both), bounding the split-brain window to one probe recovery.
func (rt *Runtime) onPeerUp(int) {
	rt.actorsMu.Lock()
	var ws []*ioWrapper
	for uri, a := range rt.actors {
		if isVirtualURI(uri) && a.w.virt != nil && a.w.virt.Replicas > 0 {
			ws = append(ws, a.w)
		}
	}
	rt.actorsMu.Unlock()
	for _, w := range ws {
		w.snapMu.Lock()
		snap, seq := w.lastSnap, w.lastSeq
		w.snapMu.Unlock()
		if snap == nil {
			continue
		}
		_ = rt.shipSnapshot(w, snap, w.gen.Load(), seq, false) //nolint:errcheck // reconciliation is best effort
	}
}
