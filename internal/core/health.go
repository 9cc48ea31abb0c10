package core

// This file implements failure-aware membership: each runtime can probe
// its peers' object managers periodically, grading them Alive → Suspect →
// Down on consecutive failures and recovering them after
// peerRecoverAfter consecutive successes (a one-off lucky probe against
// a flapping peer must not re-admit it — and, since down transitions
// promote virtual-object replicas, must not be allowed to trigger a
// spurious promote/demote cycle). Down peers are excluded from placement
// load vectors and failover resolution, so a dead node stops attracting
// traffic instead of costing every placement a timeout. Status
// transitions across the Down boundary invalidate the consistent-hash
// ring and fire the virtual-object failover hooks (see virtual.go).
// Rebalance (periodic or explicit) migrates objects off this node when
// it is loaded above the cluster mean, using the configured
// PlacementPolicy to choose targets among the live peers.

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/remoting"
)

// PeerStatus grades a peer's observed liveness.
type PeerStatus int

const (
	// PeerAlive: the peer answered its most recent probe (or was never
	// probed — peers are presumed alive until proven otherwise).
	PeerAlive PeerStatus = iota
	// PeerSuspect: at least one probe in a row failed.
	PeerSuspect
	// PeerDown: peerDownAfter probes in a row failed; the peer is excluded
	// from placement and resolution until it answers again.
	PeerDown
)

// String names the status.
func (s PeerStatus) String() string {
	switch s {
	case PeerAlive:
		return "alive"
	case PeerSuspect:
		return "suspect"
	case PeerDown:
		return "down"
	}
	return fmt.Sprintf("PeerStatus(%d)", int(s))
}

const (
	// peerSuspectAfter / peerDownAfter are the consecutive-failure
	// thresholds of the probe loop.
	peerSuspectAfter = 1
	peerDownAfter    = 3
	// peerRecoverAfter is the recovery hysteresis: a suspect or down peer
	// must answer this many probes in a row before it is graded alive
	// again.
	peerRecoverAfter = 2
	// probeTimeout bounds a round of health or load probes: a slow or dead
	// peer costs it this long, not a full call timeout.
	probeTimeout = 200 * time.Millisecond
)

// peerHealth is one peer's probe record.
type peerHealth struct {
	status PeerStatus
	fails  int
	oks    int // consecutive successes while not alive
	// overload is the peer's admission-control grade from its most
	// recent successful probe (load or health); see overload.go.
	overload OverloadGrade
}

// PeerStatusOf reports the current liveness grade of a peer. Unknown nodes
// (and this node itself) are alive.
func (rt *Runtime) PeerStatusOf(node int) PeerStatus {
	rt.healthMu.Lock()
	defer rt.healthMu.Unlock()
	if h, ok := rt.health[node]; ok {
		return h.status
	}
	return PeerAlive
}

// PeerStatuses snapshots the liveness grade of every known peer.
func (rt *Runtime) PeerStatuses() map[int]PeerStatus {
	rt.mu.Lock()
	peers := rt.peers
	rt.mu.Unlock()
	out := make(map[int]PeerStatus, len(peers))
	for _, p := range peers {
		out[p.node] = rt.PeerStatusOf(p.node)
	}
	return out
}

// peerDown reports whether a peer is currently graded Down.
func (rt *Runtime) peerDown(node int) bool { return rt.PeerStatusOf(node) == PeerDown }

// noteProbe folds one probe outcome into a peer's record and fires the
// membership transition hooks (outside healthMu — a hook may probe the
// health map itself).
func (rt *Runtime) noteProbe(node int, ok bool) {
	rt.healthMu.Lock()
	h := rt.health[node]
	if h == nil {
		h = &peerHealth{}
		rt.health[node] = h
	}
	was := h.status
	if ok {
		h.fails = 0
		h.oks++
		if h.status == PeerAlive || h.oks >= peerRecoverAfter {
			h.status, h.oks = PeerAlive, 0
		}
	} else {
		h.oks = 0
		h.fails++
		switch {
		case h.fails >= peerDownAfter:
			h.status = PeerDown
		case h.fails >= peerSuspectAfter && h.status != PeerDown:
			// Failures never downgrade Down to Suspect: a peer that earned
			// Down stays there until the recovery streak clears it, even
			// when an interleaved success reset the failure counter.
			h.status = PeerSuspect
		}
	}
	now := h.status
	rt.healthMu.Unlock()
	if was != now && (was == PeerDown || now == PeerDown) {
		// The live member set changed: every node computes placement from
		// it, so the cached ring is stale.
		rt.ringEpoch.Add(1)
		if now == PeerDown {
			go rt.onPeerDown(node)
		} else {
			go rt.onPeerUp(node)
		}
	}
}

// fanout is one round of calls from this node to its peers' object
// managers (probes, the promotion census, snapshot ships and drops): a
// completion-driven call per peer, one attempt each, on one slab of records,
// under one deadline on the records' context. The round watches it once: a
// hook on the context cancels the calls still out when it ends (expire), and
// the lanes put none on it per call. No goroutine waits on a call, a dead
// peer costs the round one timeout, and the last call to complete ends the
// round: it runs then, or closes done for a caller that waits (each). A
// probe makes one attempt: a retry's backoff would stretch the failure
// detector's clock.
type fanout struct {
	ctx     context.Context
	cancel  context.CancelFunc
	unwatch func() bool // detaches expire from ctx
	calls   []peerCall
	left    atomic.Int32
	done    chan struct{}
	then    func(*fanout)
	// w and ship are a synchronous ship round's: the object shipped, and
	// the request every target's ship starts from, boxed once (shipTo).
	w    *ioWrapper
	ship omCall[bool]
}

// peerCall is one call of a round, and its outcome once complete. It is sent
// on recs[0], and a ship's full resend on recs[1] (reship); sent[i] says
// recs[i] was submitted, so the round's hook may cancel it. base and upTo are
// a ship's (shipTo).
type peerCall struct {
	recs       [2]remoting.CallRecord
	sent       [2]atomic.Bool
	f          *fanout
	p          peer
	v          any
	err        error
	base, upTo uint64
}

// newFanout readies a round to peers under ctx and timeout, whose end its
// caller waits for (each).
func newFanout(ctx context.Context, timeout time.Duration, peers []peer) *fanout {
	return newRound(ctx, timeout, peers, nil)
}

// newRound readies a round to peers under ctx and timeout whose last
// completion runs then; with none (then nil), done is closed instead.
func newRound(ctx context.Context, timeout time.Duration, peers []peer, then func(*fanout)) *fanout {
	f := &fanout{calls: make([]peerCall, len(peers)), then: then}
	if then == nil {
		f.done = make(chan struct{})
	}
	f.ctx, f.cancel = context.WithTimeout(ctx, timeout)
	f.left.Store(int32(len(peers)))
	for i, p := range peers {
		f.calls[i].f, f.calls[i].p = f, p
	}
	if len(peers) == 0 {
		f.cancel()
		f.end()
		return f
	}
	f.unwatch = context.AfterFunc(f.ctx, f.expire)
	return f
}

// end ends the round: then runs, or done closes.
func (f *fanout) end() {
	if f.then != nil {
		f.then(f)
		return
	}
	close(f.done)
}

// expire cancels every call of the round still out, as its deadline passes or
// its context ends otherwise: each completes with the context's error.
func (f *fanout) expire() {
	for i := range f.calls {
		c := &f.calls[i]
		for r := range c.recs {
			if c.sent[r].Load() {
				c.recs[r].Cancel()
			}
		}
	}
}

// sendAll starts every call of the round as call.
func (f *fanout) sendAll(call remoteCall) *fanout {
	for i := range f.calls {
		f.calls[i].send(0, call)
	}
	return f
}

// each waits for the round to end, then yields its calls in peer order.
func (f *fanout) each(yield func(*peerCall) bool) {
	<-f.done
	for i := range f.calls {
		if !yield(&f.calls[i]) {
			return
		}
	}
}

// send starts c as call on recs[r], a record no submission used yet; a call
// its connection refuses completes at once. Once it is submitted the round's
// hook may cancel it (expire), and send cancels it itself when the round's
// context ended meanwhile, so a call sent as the hook runs is cancelled too.
func (c *peerCall) send(r int, call remoteCall) {
	rec := &c.recs[r]
	rec.CallerWatches()
	if err := c.p.om.InvokeAsyncCb(c.f.ctx, rec, call.call, call.args, c); err != nil {
		c.Complete(nil, err)
		return
	}
	c.sent[r].Store(true)
	if c.f.ctx.Err() != nil {
		rec.Cancel()
	}
}

// Complete is remoting.Completer: c's outcome, on the completion path.
func (c *peerCall) Complete(v any, err error) {
	c.v, c.err = v, err
	if c.f.w != nil && c.reship() {
		return
	}
	if c.f.left.Add(-1) == 0 {
		c.f.unwatch()
		c.f.cancel()
		c.f.end()
	}
}

// otherPeers lists the peers a round asks: every other node with an object
// manager, less those graded down when skipDown.
func (rt *Runtime) otherPeers(skipDown bool) []peer {
	rt.mu.Lock()
	peers := slices.Clone(rt.peers)
	rt.mu.Unlock()
	return slices.DeleteFunc(peers, func(p peer) bool {
		return p.node == rt.cfg.NodeID || p.om == nil || skipDown && rt.peerDown(p.node)
	})
}

// healthLoop drives periodic peer probes until the runtime closes.
func (rt *Runtime) healthLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.ProbePeers()
		}
	}
}

// ProbePeers probes every peer's object manager once, in one fan-out round
// under a short deadline, and updates the membership grades. Down peers
// are deliberately probed too — that is how recovery is detected. The
// probe is a load probe (probeLoads), so the same round trip that proves
// liveness also refreshes the peer's overload grade (a node rejecting
// calls is routed around like a slow one, without waiting for the next
// placement load probe). It is called by the periodic health loop
// (Config.HealthProbe) and may be called explicitly by operators or tests.
func (rt *Runtime) ProbePeers() { rt.probeLoads(true) }

// Rebalance migrates parallel objects off this node until its hosted load
// is no higher than the cluster mean, choosing each target with the
// configured PlacementPolicy over the live load vector (down and
// unreachable peers excluded). It returns the number of objects migrated.
// Objects whose migration fails are skipped, not retried.
func (rt *Runtime) Rebalance(ctx context.Context) (int, error) {
	loads := rt.probeLoads(false)
	if len(loads) <= 1 {
		return 0, nil
	}
	total := 0
	for _, l := range loads {
		total += l.Load
	}
	mean := (total + len(loads) - 1) / len(loads)
	excess := rt.Load() - mean
	if excess <= 0 {
		return 0, nil
	}
	return rt.migrateExcess(ctx, loads, excess, mean)
}

// Drain migrates every actor-hosted object off this node — the graceful
// step before taking a node out of service. Targets are chosen like
// Rebalance's.
func (rt *Runtime) Drain(ctx context.Context) (int, error) {
	loads := rt.probeLoads(false)
	if len(loads) <= 1 {
		return 0, fmt.Errorf("core: drain node %d: no live peers to migrate to", rt.cfg.NodeID)
	}
	return rt.migrateExcess(ctx, loads, rt.Load(), int(^uint(0)>>1))
}

// migrateExcess moves up to excess hosted objects to policy-picked peers,
// updating its working copy of the load vector as it goes so consecutive
// picks spread instead of dogpiling one target. Only peers below the
// loadCap are offered to the policy: a rebalance must not ship objects to
// a peer already at the mean (a load-blind policy like RoundRobin would
// otherwise just relocate the overload, and two such nodes would churn
// objects back and forth forever). Drain passes an unbounded cap.
func (rt *Runtime) migrateExcess(ctx context.Context, loads []NodeLoad, excess, loadCap int) (int, error) {
	// Work on the peers' entries only: the policy must not pick this node.
	others := make([]NodeLoad, 0, len(loads))
	for _, l := range loads {
		if l.Node != rt.cfg.NodeID {
			others = append(others, l)
		}
	}
	uris := rt.hostedURIs(excess)
	migrated := 0
	var firstErr error
	for _, uri := range uris {
		cands := make([]NodeLoad, 0, len(others))
		for _, l := range others {
			if l.Load < loadCap {
				cands = append(cands, l)
			}
		}
		if len(cands) == 0 {
			break
		}
		target := rt.cfg.Placement.Pick(rt.cfg.NodeID, cands)
		if target == rt.cfg.NodeID || indexOfNode(cands, target) < 0 {
			// A degenerate pick (LocalOnly, or a node outside the live
			// vector): fall back to the least-loaded live peer so drains
			// and rebalances still make progress.
			target = (LeastLoaded{}).Pick(rt.cfg.NodeID, cands)
			if indexOfNode(cands, target) < 0 {
				break
			}
		}
		if err := rt.MigrateCtx(ctx, uri, target); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		others[indexOfNode(others, target)].Load++
		migrated++
	}
	if migrated == 0 && firstErr != nil {
		return 0, firstErr
	}
	return migrated, nil
}

// indexOfNode finds a node's entry in a load vector.
func indexOfNode(loads []NodeLoad, node int) int {
	for i, l := range loads {
		if l.Node == node {
			return i
		}
	}
	return -1
}

// hostedURIs snapshots up to n URIs of actor-hosted objects.
func (rt *Runtime) hostedURIs(n int) []string {
	rt.actorsMu.Lock()
	defer rt.actorsMu.Unlock()
	uris := make([]string, 0, n)
	for uri := range rt.actors {
		if len(uris) == n {
			break
		}
		uris = append(uris, uri)
	}
	return uris
}

// rebalanceLoop drives periodic rebalances until the runtime closes.
func (rt *Runtime) rebalanceLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), interval)
			_, _ = rt.Rebalance(ctx)
			cancel()
		}
	}
}
