package core

import (
	"context"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/errs"
	"repro/internal/remoting"
	"repro/internal/wire"
)

// ObjLoc is one object-directory entry: the node currently hosting a
// parallel object and the migration generation that information was
// observed at. Generations start at 1 when an object is created and are
// bumped on every migration, so stale entries (and stale forwards) are
// recognisable: an entry never overwrites one with a higher generation.
type ObjLoc struct {
	Node int
	Addr string
	Gen  uint64
}

// resolveReply is the object manager's answer to a directory lookup.
type resolveReply struct {
	Found bool
	Node  int
	Addr  string
	Gen   uint64
}

func init() {
	wire.RegisterName("core.ResolveReply", resolveReply{})
}

// resolveProbeTimeout bounds one peer directory lookup during failover
// re-resolution, so a second dead peer cannot stall the retry path.
const resolveProbeTimeout = 300 * time.Millisecond

// dirLookup returns this node's directory entry for uri: authoritative for
// objects hosted here and for tombstones left by migrations away, a cache
// for remote objects this node has routed to.
func (rt *Runtime) dirLookup(uri string) (ObjLoc, bool) {
	rt.dirMu.Lock()
	defer rt.dirMu.Unlock()
	loc, ok := rt.dir[uri]
	return loc, ok
}

// dirUpdate merges a location into the directory, keeping the entry with
// the highest generation (ties keep the newcomer: same generation means
// same location).
func (rt *Runtime) dirUpdate(uri string, loc ObjLoc) {
	rt.dirMu.Lock()
	if cur, ok := rt.dir[uri]; !ok || loc.Gen >= cur.Gen {
		rt.dir[uri] = loc
	}
	rt.dirMu.Unlock()
}

// dirDrop forgets uri.
func (rt *Runtime) dirDrop(uri string) {
	rt.dirMu.Lock()
	delete(rt.dir, uri)
	rt.dirMu.Unlock()
}

// dirDropForward forgets uri only while it points away from this node —
// the cleanup of an idle forward (leaveForward), which must not discard the
// entry of an object that has since migrated back here.
func (rt *Runtime) dirDropForward(uri string) {
	rt.dirMu.Lock()
	if loc, ok := rt.dir[uri]; ok && loc.Node != rt.cfg.NodeID {
		delete(rt.dir, uri)
	}
	rt.dirMu.Unlock()
}

// Lookup reports this node's best knowledge of where uri lives. It is the
// observability companion of the proxies' internal routing: hosted objects
// report this node, tombstones report the forward target.
func (rt *Runtime) Lookup(uri string) (ObjLoc, bool) { return rt.dirLookup(uri) }

// resolveRemote finds the current location of uri for failover and waits
// for it: see resolve.
func (rt *Runtime) resolveRemote(ctx context.Context, uri, excludeAddr string) (loc ObjLoc, ok bool) {
	done := make(chan struct{})
	rt.resolve(ctx, uri, excludeAddr, func(l ObjLoc, found bool) { loc, ok = l, found; close(done) })
	<-done
	return loc, ok
}

// resolve finds the current location of uri for failover and hands it to
// then: first the local directory cache, then every reachable peer's object
// manager, probed in one fan-out round under a short deadline, whose last
// completion runs then. excludeAddr is the address that just failed —
// cached or reported entries still pointing at it are useless and are
// skipped. The best (highest-generation) answer wins and is cached.
func (rt *Runtime) resolve(ctx context.Context, uri, excludeAddr string, then func(ObjLoc, bool)) {
	if loc, ok := rt.dirLookup(uri); ok && loc.Addr != excludeAddr {
		then(loc, true)
		return
	}
	peers := slices.DeleteFunc(rt.otherPeers(true), func(p peer) bool { return p.addr == excludeAddr })
	resolve := omResolve(uri)
	newRound(ctx, resolveProbeTimeout, peers, func(f *fanout) {
		var best ObjLoc
		ok := false
		for i := range f.calls {
			c := &f.calls[i]
			rr, err := resolve.reply(c.v)
			if c.err != nil || err != nil || !rr.Found || rr.Addr == excludeAddr {
				continue
			}
			if !ok || rr.Gen > best.Gen {
				best, ok = ObjLoc{Node: rr.Node, Addr: rr.Addr, Gen: rr.Gen}, true
			}
		}
		if ok {
			rt.dirUpdate(uri, best)
		}
		then(best, ok)
	}).sendAll(resolve.remoteCall)
}

// forwardIdle is how long a forward may go without a call before it is
// unpublished (leaveForward).
var forwardIdle = 5 * time.Minute

// tombstone is the forwarding endpoint a migration leaves behind at the
// moved object's URI: every invocation fails with the *errs.MovedError
// carrying the new location, which proxies consume to re-route and retry
// transparently. It is published through the server's ordinary
// registration path, so the registration-generation bump invalidates bound
// call handles cached against the old actor endpoint — their next call
// re-resolves to the tombstone and observes the forward.
type tombstone struct {
	mv   errs.MovedError
	used atomic.Bool // a call was forwarded since the timer was armed
}

// Enqueue answers a runtime call with the forward, on the server's read
// loop. Nothing of the call ran, so a refused batch is replayed whole at
// the new location.
func (t *tombstone) Enqueue(context.Context, string, string, []any, remoting.Completer) error {
	t.used.Store(true)
	return &t.mv
}

// leaveForward publishes at uri the tombstone forwarding to mv and arms its
// timer. Every object the runtime hosts stays published until it is
// destroyed or moves; a forward is the one thing that ages. When the timer
// fires it re-arms if the forward was used since it was armed; otherwise it
// unpublishes the tombstone, only while it is still what uri holds (the
// object may have migrated back), and drops its directory forward.
func (rt *Runtime) leaveForward(uri string, mv *errs.MovedError) {
	t := &tombstone{mv: *mv}
	idle := forwardIdle
	var age func()
	age = func() {
		if t.used.Swap(false) {
			time.AfterFunc(idle, age)
		} else if rt.server.UnregisterIf(uri, t) {
			rt.dirDropForward(uri)
		}
	}
	rt.server.Marshal(uri, t)
	time.AfterFunc(idle, age)
}
