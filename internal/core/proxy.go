package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/errs"
	"repro/internal/keep"
	"repro/internal/remoting"
)

// proxyMode distinguishes the three call paths of the RTS.
type proxyMode int

const (
	// modeAgglomerated: object packed into the creator's grain; calls
	// execute synchronously and serially in the caller (Fig. 3 call b
	// after a call-d creation).
	modeAgglomerated proxyMode = iota
	// modeLocalActive: object on this node with its own thread of
	// control (mailbox).
	modeLocalActive
	// modeRemote: object on another node, reached through remoting
	// (Fig. 3 calls a).
	modeRemote
)

// Proxy is the PO of the paper: it has the same interface role as the
// object it represents (dynamically, via method names) and transparently
// forwards invocations to the implementation object, applying grain-size
// adaptations on the way.
//
// Location is resolved through the runtime's object directory rather than
// burned in at creation: when the object live-migrates, remote calls that
// hit the forwarding tombstone (or a dead node) transparently re-route and
// go again, as the proxy's one rule for sending a call again says
// (attempt.again), and a local proxy whose object moved away upgrades itself
// to a remote proxy at the new location. Per-object call ordering survives
// the move because the proxy's one call-order rule (callOrder) counts every
// remote call, blocking or not, sends again the ones that must go again in
// issue order before anything issued after them, and starts queued calls
// against the endpoint current at their turn.
type Proxy struct {
	rt    *Runtime
	class string
	uri   string

	// mu guards the location state: mode (modeLocalActive can become
	// modeRemote after a migration), the local actor, and the remote
	// endpoint (address + directory generation + lazily built ObjRef).
	mu      sync.Mutex
	mode    proxyMode
	local   *ioWrapper // agglomerated IO as published (immutable once set)
	act     *actor     // local active IO while hosted on this node
	netaddr string     // remote endpoint address
	gen     uint64     // directory generation netaddr was learned at
	ref     *remoting.ObjRef

	calls callOrder // the order of remote calls

	// args holds the argument lists of the proxy's blocking calls between
	// calls, tries the attempts of its remote and asynchronous ones
	// (attempt), and waits the records its blocking callers wait on (waiter),
	// which a collection does not take from it.
	args  keep.Store[[]any]
	tries keep.Store[attempt]
	waits keep.Store[waiter]

	errMu   sync.Mutex
	asyncEr error

	// deadEndAt (unix nanoseconds, 0 = unset) caches a failed
	// destroyed-object re-resolution: after a call got
	// ErrObjectDestroyed and the cluster-wide resolve found nothing
	// fresher, later calls surface the error immediately instead of
	// paying the peer fan-out again — but only for deadEndTTL, so a
	// resolution that failed transiently (target briefly down or slow)
	// is retried rather than pinning the proxy dead forever. Cleared
	// whenever the proxy is redirected.
	deadEndAt atomic.Int64
}

// deadEndTTL bounds how long a failed destroyed-object resolution is
// trusted before the next call re-probes the cluster.
const deadEndTTL = 5 * time.Second

// newRemoteProxy builds a remote-mode proxy routed at addr/gen.
func newRemoteProxy(rt *Runtime, class, uri, addr string, gen uint64) *Proxy {
	return &Proxy{rt: rt, class: class, mode: modeRemote, uri: uri, netaddr: addr, gen: gen}
}

// Class returns the object's registered class name.
func (p *Proxy) Class() string { return p.class }

// URI returns the object's published URI.
func (p *Proxy) URI() string { return p.uri }

// IsLocal reports whether calls currently execute on this node.
func (p *Proxy) IsLocal() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.mode != modeRemote
}

// IsAgglomerated reports whether the object was packed into its creator's
// grain (parallelism removed).
func (p *Proxy) IsAgglomerated() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.mode == modeAgglomerated
}

// Ref returns a wire-encodable reference that other nodes can Attach,
// stamped with the location generation this proxy currently routes at.
// Local-mode proxies (which do not track a location of their own) stamp
// the runtime directory's entry wholesale — address and generation as one
// pair, so a handle whose object has already migrated away mints a ref to
// the forward target, never the poisoned combination of the old address
// with the new generation.
func (p *Proxy) Ref() ProxyRef {
	p.mu.Lock()
	addr, gen := p.netaddr, p.gen
	p.mu.Unlock()
	if gen == 0 {
		if loc, ok := p.rt.dirLookup(p.uri); ok {
			addr, gen = loc.Addr, loc.Gen
		}
	}
	if addr == "" {
		addr = p.rt.Addr()
	}
	return ProxyRef{NetAddr: addr, URI: p.uri, Class: p.class, Gen: gen}
}

// state snapshots the location fields.
func (p *Proxy) state() (proxyMode, *actor) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.mode, p.act
}

// endpoint returns the current remote ObjRef, building it on first use
// after a redirect.
func (p *Proxy) endpoint() *remoting.ObjRef {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ref == nil {
		p.ref = remoting.NewObjRef(p.rt.cfg.Channel, p.netaddr, p.uri)
	}
	return p.ref
}

// redirect routes the proxy at a new location, upgrading a local proxy to
// remote mode, and reports whether it applied. A forward older than what
// the proxy already routes at is ignored (generations are monotonic per
// object).
//
// An object that migrates onto this very node is deliberately still
// reached through remoting (a loopback hop): flipping an in-use proxy
// back to mailbox mode could reorder calls already counted in its call
// order against new local posts. Fresh local handles come from Attach,
// which does bind to the local actor.
func (p *Proxy) redirect(loc ObjLoc) bool {
	p.rt.dirUpdate(p.uri, loc)
	p.deadEndAt.Store(0)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.mode == modeRemote && loc.Gen < p.gen {
		return false
	}
	p.mode = modeRemote
	p.act = nil
	p.netaddr, p.gen = loc.Addr, loc.Gen
	p.ref = nil // a fresh ref, which ends a run of calls sent straight at this one
	return true
}

// redirectMoved is redirect at the location a forward names.
func (p *Proxy) redirectMoved(mv *errs.MovedError) bool {
	return p.redirect(ObjLoc{Node: mv.Node, Addr: mv.Addr, Gen: mv.Gen})
}

// movedOf extracts a usable migration forward for uri from err. The URI
// match is essential: a MovedError about some *other* object — one
// propagated unhandled out of a method that itself called a moved/broken
// proxy — must not re-route (and re-execute) this object's calls, nor
// poison the directory under this object's URI.
func movedOf(err error, uri string) (*errs.MovedError, bool) {
	if err == nil {
		// Before errors.As, which makes &mv escape: a successful call
		// pays no allocation here.
		return nil, false
	}
	var mv *errs.MovedError
	if errors.As(err, &mv) && mv.Addr != "" && mv.URI == uri {
		return mv, true
	}
	return nil, false
}

// withToken returns ctx with an idempotency token, and whether it stamped a
// fresh one: it does when the runtime's calls are idempotent and ctx carries
// none yet. One token per logical call, stamped at the outermost scope:
// every submission of the call (a resend, a retry, forward chasing, the
// post-failover re-resolve) carries it, so a host that already executed the
// call replays its recorded reply.
func (p *Proxy) withToken(ctx context.Context) (_ context.Context, stamped bool) {
	if !p.rt.cfg.IdempotentCalls {
		return ctx, false
	}
	if _, ok := remoting.TokenFromContext(ctx); ok {
		return ctx, false
	}
	return remoting.ContextWithToken(ctx, p.rt.cfg.Channel.NewCallToken()), true
}

// currentGen reads the generation the proxy currently routes at.
func (p *Proxy) currentGen() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gen
}

// remoteCall is one invocation: call with args or, for a call on the object
// itself, the runtime-call shape call(method, args), which remoting carries
// without the two-element list.
type remoteCall struct {
	call, method string
	args         []any
}

// on makes the call on ref, a bare ObjRef, and waits for its reply: the
// runtime's own calls to a node's object manager.
func (c remoteCall) on(ctx context.Context, ref *remoting.ObjRef) (any, error) {
	return ref.InvokeNestedCtx(ctx, c.call, c.method, c.args)
}

// noteAsyncError records the first asynchronous failure for AsyncErr.
func (p *Proxy) noteAsyncError(err error) {
	p.errMu.Lock()
	if p.asyncEr == nil {
		p.asyncEr = err
	}
	p.errMu.Unlock()
}

// AsyncErr returns the first error produced by an asynchronous call, if
// any. Call after Flush/Wait to check a stream of Posts.
func (p *Proxy) AsyncErr() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.asyncEr
}

// Invoke performs a synchronous method call (the paper's "synchronous
// method calls (when a value is returned)"). It is ordered after every
// call (Post, InvokeAsync, Invoke) issued before it on this proxy.
func (p *Proxy) Invoke(method string, args ...any) (any, error) {
	return p.InvokeCtx(context.Background(), method, args...)
}

// InvokeCtx is Invoke bounded by ctx: cancellation aborts the in-flight
// exchange (or the mailbox wait, for local objects) and the deadline
// travels to the hosting node. It is ordered after every asynchronous call
// issued before it on this proxy.
func (p *Proxy) InvokeCtx(ctx context.Context, method string, args ...any) (any, error) {
	return p.InvokeInto(ctx, nil, method, args)
}

// InvokeInto is InvokeCtx with a typed slot for the result
// (remoting.ResultSink), as StartAsync gives one to an asynchronous call: a
// remote reply whose result is exactly what sink takes is decoded into it,
// whichever submission of the call it answers, and the call then returns
// sink itself as its value. Every other way the call can finish (a local or
// agglomerated object, a result of another type, an error) returns what
// InvokeCtx returns. After a call that returned an error, the connection's
// reader may still be writing into sink.
//
// The caller's args is never kept: the call copies it into a list its proxy
// keeps (Proxy.args), and only that copy reaches a mailbox, the connection or
// the object, so a caller's variadic list can live on the caller's stack.
func (p *Proxy) InvokeInto(ctx context.Context, sink remoting.ResultSink, method string, args []any) (any, error) {
	p.rt.syncCalls.Add(1)
	if ctx == nil {
		ctx = context.Background()
	}
	if len(args) == 0 {
		return p.invokeKept(ctx, sink, method, nil)
	}
	// A variable of its own: assigned to args, the copy would make the
	// caller's list escape.
	kept := p.args.Get(argLists)
	*kept = append(*kept, args...)
	res, err := p.invokeKept(ctx, sink, method, *kept)
	if err == nil {
		// After an error a mailbox or a lost record may still read the
		// list, so only a call that succeeded gives it back.
		p.args.Put(argLists, kept)
	}
	return res, err
}

// maxKeptArgs is the longest argument list a proxy keeps for its next
// blocking call; a longer one goes to the pool after its call.
const maxKeptArgs = 16

// argLists is the kind of the blocking calls' argument lists, which proxies
// keep (Proxy.args): one goes back emptied, so it pins none of the caller's
// values.
var argLists = keep.NewKind(func(l *[]any) bool {
	clear(*l)
	*l = (*l)[:0]
	return cap(*l) <= maxKeptArgs
})

// invokeKept runs a blocking call on the copy of its arguments that the
// proxy keeps.
func (p *Proxy) invokeKept(ctx context.Context, sink remoting.ResultSink, method string, args []any) (any, error) {
	switch mode, act := p.state(); mode {
	case modeAgglomerated:
		return p.invokeInCaller(ctx, method, args)
	case modeLocalActive:
		res, err := act.callSync(ctx, actorTask{method: method, args: args})
		if mv, ok := movedOf(err, p.uri); ok {
			// The object migrated away while this proxy still held its
			// mailbox: upgrade to a remote proxy and retry at the new
			// location (the mailbox fully drained before the move, so
			// ordering is preserved).
			p.redirectMoved(mv)
			return p.invokeRemote(ctx, sink, remoteCall{call: "Invoke1", method: method, args: args}, false)
		}
		return res, err
	default:
		return p.invokeRemote(ctx, sink, remoteCall{call: "Invoke1", method: method, args: args}, false)
	}
}

// invokeInCaller executes a call on an agglomerated object: here, on the
// caller's goroutine, which is what keeps a passive object's calls serial,
// through the wrapper the object was published with. Its dedup memory is
// consulted only for a call that carries a token, and nothing on this path
// stamps one.
func (p *Proxy) invokeInCaller(ctx context.Context, method string, args []any) (any, error) {
	return p.local.Invoke1(ctx, method, args)
}

// invokeRemote is a blocking remote call: on the object, or, for om, on the
// object manager of its host. It is an attempt like an asynchronous call's,
// in the proxy's call order behind every call issued before it (pipelined
// behind them when they went straight), sent again by the same rule
// (attempt.again), whose future is a waiter's the proxy keeps. The caller
// parks on the waiter's channel and watches ctx itself, so its record puts
// no hook on ctx (CallerWatches): when ctx ends first, the call is abandoned
// as a Cancel abandons an asynchronous one, and the waiter is left to the GC
// since the attempt still holds its future.
func (p *Proxy) invokeRemote(ctx context.Context, sink remoting.ResultSink, call remoteCall, om bool) (any, error) {
	w := p.waits.Get(waiters)
	a := p.draw(&w.fut, sink)
	a.blocking, a.om = true, om
	a.rec.SetCall(ctx, call.call, call.method, call.args)
	a.rec.CallerWatches()
	w.fut.OnCompleteAt(0, w)
	a.submitRemote()
	select {
	case <-w.rc:
	case <-ctx.Done():
		if won, abort := w.fut.completeAt(nil, ctx.Err(), 0); won {
			if abort != nil {
				abort.Cancel()
			}
			<-w.rc
			if call.method == "" {
				call.method = call.call
			}
			return nil, fmt.Errorf("core: call %s.%s: %w", p.uri, call.method, ctx.Err())
		}
		<-w.rc
	}
	v, err := w.fut.outcome()
	p.waits.Put(waiters, w)
	return v, err
}

// waiter is what a blocking remote call's caller waits on (invokeRemote),
// kept by its proxy (Proxy.waits): the Future its attempt resolves, whose one
// continuation is the waiter itself (MemberDone), telling rc (capacity 1, so
// the completion never blocks), which the caller parks on.
type waiter struct {
	AsyncCall
	rc chan struct{}
}

// MemberDone is Aggregate: the call's outcome is in, for the caller to read.
func (w *waiter) MemberDone(int, any, error) { w.rc <- struct{}{} }

// waiters is the kind of the blocking calls' waiters, which proxies keep
// (Proxy.waits): one goes back with its future zero and its channel empty.
var waiters = keep.NewKind(func(w *waiter) bool {
	rc := w.rc
	if rc == nil {
		rc = make(chan struct{}, 1)
	}
	*w = waiter{rc: rc}
	return true
})

// Wait blocks until every asynchronous call issued on this proxy has
// executed. It is the synchronisation point farming masters use before
// reading results.
func (p *Proxy) Wait() {
	p.WaitCtx(context.Background()) //nolint:errcheck // background ctx never errs
}

// WaitCtx is Wait bounded by ctx; abandoning the wait leaves the posted
// calls draining in the background.
func (p *Proxy) WaitCtx(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	mode, act := p.state()
	if mode == modeLocalActive {
		if err := act.waitCtx(ctx); err != nil {
			return err
		}
		// Posts the mailbox held through a migration were posted again at
		// the object's new host: wait for them there.
		mode, _ = p.state()
	}
	if mode != modeRemote {
		// Local posts ran in the mailbox; agglomerated ones inline.
		return nil
	}
	return p.calls.flush(ctx)
}

// Migrate moves the parallel object to cluster node toNode; see
// MigrateCtx.
func (p *Proxy) Migrate(toNode int) error {
	return p.MigrateCtx(context.Background(), toNode)
}

// MigrateCtx live-migrates the parallel object to toNode and re-routes
// this proxy at the new location. Posted asynchronous calls are flushed
// first, so the snapshot that travels includes them. Agglomerated objects
// are part of their creator's grain and cannot migrate.
func (p *Proxy) MigrateCtx(ctx context.Context, toNode int) error {
	mode, _ := p.state()
	if mode == modeAgglomerated {
		return fmt.Errorf("core: migrate %s: agglomerated objects are part of their creator's grain", p.uri)
	}
	if err := p.WaitCtx(ctx); err != nil {
		return fmt.Errorf("core: migrate %s: %w", p.uri, err)
	}
	if mode == modeLocalActive {
		err := p.rt.MigrateCtx(ctx, p.uri, toNode)
		if mv, ok := movedOf(err, p.uri); ok {
			// Someone migrated it first; chase the forward through the
			// remote path below.
			p.redirectMoved(mv)
		} else if err != nil {
			return err
		} else {
			// The local runtime completed the move; follow it (unless the
			// "move" was a no-op to this very node).
			if loc, ok := p.rt.dirLookup(p.uri); ok && loc.Node != p.rt.NodeID() {
				p.redirect(loc)
			}
			return nil
		}
	}
	// Ask the hosting node's OM to migrate, following forwards and
	// re-resolving exactly like a data call.
	call := omMigrate(p.uri, toNode)
	res, err := p.invokeRemote(ctx, nil, call.remoteCall, true)
	if err != nil {
		return fmt.Errorf("core: migrate %s to node %d: %w", p.uri, toNode, err)
	}
	if rr, err := call.reply(res); err == nil && rr.Found {
		p.redirect(ObjLoc{Node: rr.Node, Addr: rr.Addr, Gen: rr.Gen})
	}
	return nil
}

// omRef builds a proxy for the hosting node's object manager at the
// current routing state. Local-mode proxies never set netaddr, so it
// falls back to this node's own OM (mirroring Ref's fallback) — which
// handles a destroy of an already-gone object gracefully instead of
// dialling an empty address.
func (p *Proxy) omRef() *remoting.ObjRef {
	p.mu.Lock()
	addr := p.netaddr
	p.mu.Unlock()
	if addr == "" {
		addr = p.rt.Addr()
	}
	return remoting.NewObjRef(p.rt.cfg.Channel, addr, omURI)
}

// Destroy releases the parallel object. Local objects unpublish
// immediately; remote objects are destroyed through their hosting OM, as
// the ParC++ RTS did on PO requests.
func (p *Proxy) Destroy() error {
	return p.DestroyCtx(context.Background())
}

// DestroyCtx is Destroy bounded by ctx.
func (p *Proxy) DestroyCtx(ctx context.Context) error {
	if err := p.WaitCtx(ctx); err != nil {
		return fmt.Errorf("core: destroy %s: %w", p.uri, err)
	}
	mode, _ := p.state()
	if mode == modeAgglomerated {
		p.rt.destroyLocal(p.uri)
		return nil
	}
	if mode == modeLocalActive {
		if p.rt.actor(p.uri) != nil {
			p.rt.destroyLocal(p.uri)
			return nil
		}
		// The object migrated away while this handle stayed local (no
		// call ever observed the forward): route at the forward and fall
		// through to the OM destroy so the live copy is released, not
		// just this node's tombstone.
		if loc, ok := p.rt.dirLookup(p.uri); ok && loc.Node != p.rt.NodeID() {
			p.redirect(loc)
		}
	}
	if _, err := p.invokeRemote(ctx, nil, omDestroyObject(p.uri).remoteCall, true); err != nil {
		return fmt.Errorf("core: destroy %s: %w", p.uri, err)
	}
	p.rt.dirDrop(p.uri)
	return nil
}

// String implements fmt.Stringer.
func (p *Proxy) String() string {
	mode, _ := p.state()
	name := map[proxyMode]string{
		modeAgglomerated: "agglomerated",
		modeLocalActive:  "local",
		modeRemote:       "remote",
	}[mode]
	return fmt.Sprintf("Proxy(%s %s %s)", p.class, name, p.uri)
}
