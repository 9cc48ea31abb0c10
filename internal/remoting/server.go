package remoting

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dispatch"
	"repro/internal/errs"
	"repro/internal/keep"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Server publishes objects on a channel, playing the role of
// ChannelServices + RemotingConfiguration for one endpoint.
type Server struct {
	ch       *Channel
	listener transport.Listener

	mu      sync.Mutex
	objects map[string]any
	conns   map[transport.Conn]*serverConn
	closed  bool

	// regGen counts mutations of the objects table. Bound-handle entries
	// cache the object they resolved together with the generation
	// they saw; a mismatch sends the next call back to the map, so
	// Unregister and republish take effect at once, as for a call dispatched
	// by URI, without a map lookup on the steady-state bound path. The
	// counter is bumped after the mutation (under mu), so a racing reader
	// can only cache conservatively (stale generation, revalidated next
	// call).
	regGen atomic.Uint64

	wg sync.WaitGroup
}

// ListenAndServe starts serving on addr (transport syntax, for example
// "127.0.0.1:0" or "mem://node1") and returns immediately.
func (ch *Channel) ListenAndServe(addr string) (*Server, error) {
	l, err := ch.net.Listen(addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		ch:       ch,
		listener: l,
		objects:  make(map[string]any),
		conns:    make(map[transport.Conn]*serverConn),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the transport address clients dial.
func (s *Server) Addr() string { return s.listener.Addr() }

// URLFor returns the full remoting URL for a URI published on this server.
func (s *Server) URLFor(uri string) string {
	return buildURL(urlScheme, s.Addr(), uri)
}

// Marshal publishes obj under uri (RemotingServices.Marshal), replacing
// whatever was there in one step: a call racing the swap reaches either the
// old object or the new one, never nothing. Every call on uri runs on obj,
// which stays published until Marshal or Unregister replaces it; a call
// that resolved the old object just before still reaches it. Bound call
// handles cached against the old object re-resolve on their next call
// through the bumped registration generation.
func (s *Server) Marshal(uri string, obj any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objects[uri] = obj
	s.regGen.Add(1)
}

// UnregisterIf removes uri only while obj, published there by Marshal, is
// still what it holds, and reports whether it did: a caller that outlived
// its object (the timer of a forward that has since been replaced) cannot
// remove a newcomer. obj is compared with ==, so it must be comparable, as
// a pointer is.
func (s *Server) UnregisterIf(uri string, obj any) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.objects[uri]; !ok || cur != obj {
		return false
	}
	delete(s.objects, uri)
	s.regGen.Add(1)
	return true
}

// Unregister removes a published URI, reporting whether this call removed
// it. Safe to call for absent URIs; concurrent unregisters of one URI see
// true exactly once, which callers use for exactly-once accounting.
func (s *Server) Unregister(uri string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objects[uri]; !ok {
		return false
	}
	delete(s.objects, uri)
	s.regGen.Add(1)
	return true
}

// Close stops accepting connections. In-flight calls are allowed to finish.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]transport.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.listener.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.listener.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		sc := &serverConn{s: s, c: c}
		s.conns[c] = sc
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleConn(sc)
	}
}

// serverConn is the per-connection serve state: the coalescing response
// writer and the bound-handle table (envelope.go). The bind table is
// touched only by the connection's read loop — TCP ordering guarantees a
// handle is declared before any bare call uses it — so it needs no lock.
//
// Responses are written through a combining lock rather than a dedicated
// writer goroutine: the first goroutine to respond (an object's mailbox, a
// call's own goroutine, the read loop refusing a call) becomes the flusher
// and keeps writing — in batched wire writes — until the queue it shares
// with every other responder is empty, while later responders just append
// their frame and return. A connection with one call in flight therefore
// writes directly with zero added hops, while a pipelined connection under
// load coalesces everything that accumulated during the previous write
// into one syscall. The queue is bounded by the number of calls in flight.
type serverConn struct {
	s     *Server
	c     transport.Conn
	binds []*bindEntry   // handle-1 → entry; read-loop only
	calls sync.WaitGroup // requests read and not yet answered

	wmu     sync.Mutex
	pending []outFrame
	writing bool // a flusher is active; it will pick pending up
	failed  bool // the connection write-failed; discard instead of writing

	// Flusher-owned scratch, reused across flushes so the steady-state
	// write path allocates nothing: spare ping-pongs with pending's
	// backing array, raws carries one write batch's frame slices. Only
	// the active flusher (sc.writing) touches either.
	spare []outFrame
	raws  [][]byte

	// What the connection reuses, kept by the connection rather than a
	// sync.Pool, which every garbage collection empties: the encoders its
	// replies are encoded into (respond), which the flusher gives back once
	// their bytes are sent, and the call records of its answered requests,
	// which the read loop takes before the pool. A connection serving one
	// request at a time runs on what it keeps.
	encs keep.Store[wire.Encoder]
	free keep.Store[serverCall]
}

// bindEntry is one bound (URI, call, method) triple, its strings kept once
// for every call that names the handle, with its dispatch caches: the
// resolved object (validated by the server's registration generation) and
// the invoker thunk for the concrete object type last
// dispatched, so the steady-state bound path skips the objects-map lookup
// and the invoker-registry lookups.
type bindEntry struct {
	uri, call, method string
	obj               atomic.Pointer[objCache]
	inv               atomic.Pointer[invCache]
}

type objCache struct {
	obj any
	gen uint64
}

type invCache struct {
	typ reflect.Type
	inv dispatch.Invoker // nil: no generated thunk, use the reflective path
}

// declare records handle h, in range, for the triple a declaring call
// named, and returns its entry; handle 0 declares nothing and has none. It
// refuses no handle in range, which is what lets the client take a
// declaration as made once it is queued. Redeclaration of the same handle
// is idempotent and keeps the entry, and with it the strings it holds.
func (sc *serverConn) declare(req *callRequest, h uint32) *bindEntry {
	if h == 0 {
		return nil
	}
	idx := int(h) - 1
	for len(sc.binds) <= idx {
		sc.binds = append(sc.binds, nil)
	}
	e := sc.binds[idx]
	if e == nil || e.uri != req.URI || e.call != req.Call || e.method != req.Method {
		e = &bindEntry{uri: req.URI, call: req.Call, method: req.Method}
		sc.binds[idx] = e
	}
	return e
}

// lookupBind resolves a bare call's handle.
func (sc *serverConn) lookupBind(h uint32) *bindEntry {
	if idx := int(h) - 1; idx >= 0 && idx < len(sc.binds) {
		return sc.binds[idx]
	}
	return nil
}

// Mailbox is implemented by a published object that runs its calls one at
// a time, in the order they arrive, on a goroutine of its own (the
// runtime's actor endpoints). A call that carries a user's method reaches
// Enqueue on the connection's read loop, which is what keeps one
// connection's requests to the object in the order they were sent, so
// Enqueue must not block. It either takes the call, and then to hears the
// outcome exactly once, on whichever goroutine settles it; or it returns
// the error the call is answered with at once, and to never hears. call,
// method and args are what NestedInvoker.InvokeNested takes; args is the
// server's pending list, read only until to is told (see serverCall).
type Mailbox interface {
	Enqueue(ctx context.Context, call, method string, args []any, to Completer) error
}

// NestedInvoker is implemented by a published object that takes its calls
// in the runtime-call shape, call(method, args), as the SCOOPP runtime's
// endpoints take Invoke1("Echo", args), and runs them on the goroutine that
// asks. A call that carries a user's method reaches InvokeNested with the
// handle's call and method and the arguments as read, no []any{method,
// args} in between; InvokeNested must answer as dispatching call with that
// list would. args is the server's pending list (see serverCall).
type NestedInvoker interface {
	InvokeNested(ctx context.Context, call, method string, args []any) (any, error)
}

// serverCall is the server's record of one request: the decoded envelope,
// its frame, the pending list its arguments wait in, the context and the
// target the read loop resolved for it, the response, and the entry point
// of a call run on its own goroutine, bound once. handleConn draws one per
// frame. It is the Completer of its request, and goes back to its
// connection (or the pool), emptied, once Complete encoded the reply.
//
// Ownership: the read loop parses only the frame's header; the arguments
// stay in the frame, each decoded where the call binds it (dispatch.Arg
// into a parameter, wire.DecodeArgs for a consumer that needs the values
// boxed). The list is the server's, its values the method's: nothing reads
// the list after the reply, and a mailbox completes a call only after its
// task is done with it. A method that takes the list itself, (string,
// []any), gets a decoded copy. The frame is held until the reply is
// encoded, then goes back by the one frame rule (recycleFrame): to the GC
// when a value borrows it, to its connection or the pool otherwise.
type serverCall struct {
	sc     *serverConn
	req    callRequest
	resp   callResponse
	args   wire.PendingList // req.Args' elements
	frame  []byte
	audit  *frameCounts // what countFrame returned for frame
	entry  *bindEntry
	ctx    context.Context
	cancel context.CancelFunc // ends ctx's deadline; nil when it has none
	obj    any                // the target of a call run on its own goroutine
	run    func()             // c.handle
}

// serverCalls is the kind of the call records, which connections keep
// (serverConn.free). A record goes back emptied, keeping the arrays of its
// pending list and its entry point.
var serverCalls = keep.NewKind(func(c *serverCall) bool {
	c.args.Reset()
	*c = serverCall{args: c.args, run: c.run}
	return true
})

func (sc *serverConn) newCall() *serverCall {
	sc.s.ch.CountRecord(RecordDrawn)
	c := sc.free.Get(serverCalls)
	if c.run == nil { // not in the reset: handle reaches serverCalls, a cycle
		c.run = c.handle
	}
	c.sc = sc
	return c
}

// release recycles the record's frame and gives the record back to its
// connection.
func (c *serverCall) release() {
	recycleFrame(c.audit, c.sc.c, c.frame, c.args.Borrowed())
	c.sc.s.ch.CountRecord(RecordReturned)
	c.sc.free.Put(serverCalls, c)
}

// Complete answers the request with its outcome, on whichever goroutine
// settled it: the read loop for a call refused before it ran, the object's
// own goroutine for a call its mailbox ran or turned away, the call's own
// goroutine otherwise.
func (c *serverCall) Complete(v any, err error) {
	if err != nil {
		c.resp = errorResponseFor(&c.req, err)
	} else {
		c.resp = callResponse{Seq: c.req.Seq, Result: v}
	}
	c.reply()
}

// reply ends the call's deadline, writes c.resp through the combining
// flusher and recycles the record.
func (c *serverCall) reply() {
	if c.cancel != nil {
		c.cancel()
	}
	sc := c.sc
	sc.respond(&c.req, &c.resp)
	c.release()
	sc.calls.Done()
}

// handle runs a call whose target has no mailbox, on the call's own
// goroutine.
func (c *serverCall) handle() { c.Complete(c.invoke()) }

// handleConn serves one client connection. Its read loop plays the
// channel's IO thread: it reads frames continuously and starts each request
// without waiting for it (serve), so that a call to an object with a
// mailbox queues there in the order the connection carried it, and the
// object's goroutine answers it. Responses carry the request's sequence
// number and complete out of order when a multiplexed client pipelines
// calls to several objects; each goes through the connection's combining
// flusher, which coalesces everything pending into batched wire writes.
func (s *Server) handleConn(sc *serverConn) {
	defer s.wg.Done()
	conn := sc.c
	defer func() {
		// Let the calls in flight write (or fail to write) their replies
		// before the connection is torn down; the last flusher among them
		// leaves the queue empty, so nothing is stranded.
		sc.calls.Wait()
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	// The loop's own decoder, reset per frame, and, on a stream connection,
	// the connection's own receive buffer: nothing on this path is shared
	// with another connection.
	d := wire.NewDecoder(nil)
	defer d.Release()
	d.SetBorrow(true)
	for {
		raw, err := transport.RecvFrame(conn)
		if err != nil {
			return
		}
		c := sc.newCall()
		c.frame, c.audit = raw, countFrame(sc.s.ch.frames)
		handle, declared, err := readBoundCall(d, raw, &c.req, &c.args)
		if err != nil {
			// A framing failure desynchronises the stream, and without a
			// sequence number we cannot form a matching reply; drop the
			// connection.
			c.release()
			return
		}
		sc.calls.Add(1)
		if declared {
			c.entry = sc.declare(&c.req, handle)
		} else if c.entry = sc.lookupBind(handle); c.entry != nil {
			c.req.URI, c.req.Call, c.req.Method = c.entry.uri, c.entry.call, c.entry.method
		} else {
			// A handle the read loop never saw declared: a lost frame or a
			// peer bug. seq is known, so answer it, flagged, for the client
			// to declare the handle and send the call again, instead of
			// killing every other pipelined call on the pipe.
			c.resp = errorResponse(&c.req, fmt.Sprintf("unbound call handle %d", handle))
			c.resp.Unbound = true
			c.reply()
			continue
		}
		s.serve(c)
	}
}

// serve starts c's request without blocking the read loop. A call that
// cannot run (its deadline passed, nothing is published, a mailbox turns it
// away) is answered at once; a call carrying a user's method goes to its
// target's Mailbox; any other call runs on a goroutine of its own.
func (s *Server) serve(c *serverCall) {
	obj, err := s.target(c)
	if err != nil {
		c.Complete(nil, err)
		return
	}
	if mb, ok := obj.(Mailbox); ok && c.req.Method != "" {
		if err := mb.Enqueue(c.ctx, c.req.Call, c.req.Method, c.req.Args, c); err != nil {
			c.Complete(nil, err)
		}
		return
	}
	c.obj = obj
	go c.run()
}

// respond encodes resp and writes it through the combining lock: append to
// the connection's pending queue, and flush the queue unless another
// responder already is. Unencodable results degrade to an error reply;
// after a write failure responses are discarded and the read loop observes
// the dead connection on its next receive.
func (sc *serverConn) respond(req *callRequest, resp *callResponse) {
	_, enc, err := encodeBoundReply(&sc.encs, resp)
	if err != nil {
		unenc := errorResponse(req, fmt.Sprintf("unencodable result: %v", err))
		_, enc, err = encodeBoundReply(&sc.encs, &unenc)
		if err != nil {
			return
		}
	}
	of := outFrame{enc: enc, audit: sc.s.ch.encoders}
	of.audit.add(encoderDrawn)
	sc.wmu.Lock()
	sc.pending = append(sc.pending, of)
	if sc.writing {
		// The active flusher's drain loop will write this frame.
		sc.wmu.Unlock()
		return
	}
	sc.writing = true
	sc.flushLocked()
}

// flushLocked drains the pending queue, writing up to maxWriteBatch frames
// per coalesced wire write with the lock released, and gives each frame's
// encoder back to the connection once its bytes are sent. Called with wmu
// held and sc.writing owned; returns with wmu released.
func (sc *serverConn) flushLocked() {
	for len(sc.pending) > 0 {
		batch := sc.pending
		sc.pending = sc.spare[:0]
		failed := sc.failed
		sc.wmu.Unlock()
		for off := 0; off < len(batch); off += maxWriteBatch {
			end := min(off+maxWriteBatch, len(batch))
			if !failed {
				raws := sc.raws[:0]
				for _, of := range batch[off:end] {
					raws = append(raws, of.enc.Bytes())
				}
				sc.raws = raws
				failed = transport.SendBatch(sc.c, raws) != nil
			}
			for _, of := range batch[off:end] {
				of.release(&sc.encs)
			}
		}
		clear(batch) // drop frame refs before recycling the array
		sc.wmu.Lock()
		sc.spare = batch[:0]
		sc.failed = sc.failed || failed
	}
	sc.writing = false
	sc.wmu.Unlock()
}

func errorResponse(req *callRequest, msg string) callResponse {
	return callResponse{Seq: req.Seq, IsErr: true, ErrMsg: msg}
}

// errorResponseFor maps err onto the reply envelope, preserving its wire
// code so the client can rebuild the sentinel chain. A *errs.MovedError in
// the chain additionally rides as the forward fields, so the caller learns
// the migrated object's new location from the failure itself.
func errorResponseFor(req *callRequest, err error) callResponse {
	resp := callResponse{Seq: req.Seq, IsErr: true, ErrMsg: err.Error(), ErrCode: errs.Code(err)}
	var mv *errs.MovedError
	if errors.As(err, &mv) {
		resp.FwdAddr, resp.FwdNode, resp.FwdGen, resp.FwdURI = mv.Addr, mv.Node, mv.Gen, mv.URI
	}
	if resp.ErrCode == errs.CodeOverloaded {
		if ra := errs.RetryAfter(err); ra > 0 {
			resp.RetryAfterMs = int64(ra / time.Millisecond)
		}
	}
	return resp
}

// target resolves the object c's request runs on, through the bound entry's
// cache when the call arrived (or was declared) with a handle, and sets up
// the call's context: its idempotency token, and its deadline, which
// context-aware methods (first parameter context.Context) receive. A request
// whose deadline already passed is refused before touching the object.
func (s *Server) target(c *serverCall) (any, error) {
	req := &c.req
	c.ctx = context.Background()
	if req.TokClient != 0 {
		// The call's idempotency token travels down the dispatch chain in
		// the context, so whoever executes it (the SCOOPP actor runtime)
		// can consult its dedup memory before executing and record the
		// reply after — the server layer itself stays stateless about it.
		c.ctx = ContextWithToken(c.ctx, CallToken{Client: req.TokClient, Seq: req.TokSeq})
	}
	if req.Deadline > 0 {
		dl := time.Unix(0, req.Deadline)
		if !time.Now().Before(dl) {
			// One cell with core's dequeue drop; Stats().DeadlineDrops reads it.
			s.ch.metrics.Counter("deadline_drops").Add(1)
			return nil, fmt.Errorf("deadline expired before dispatch of %s.%s: %w", req.URI, req.name(), context.DeadlineExceeded)
		}
		c.ctx, c.cancel = context.WithDeadline(c.ctx, dl)
	}
	var obj any
	if c.entry != nil {
		obj = s.resolveBound(c.entry)
	} else {
		s.mu.Lock()
		obj = s.objects[req.URI]
		s.mu.Unlock()
	}
	if obj == nil {
		// URIs are runtime-generated, so an unknown URI means the object
		// was destroyed.
		return nil, fmt.Errorf("no object published at %q: %w", req.URI, errs.ErrObjectDestroyed)
	}
	return obj, nil
}

// resolveBound returns the object published for a bound entry, reusing the
// cached one while the server's registration table is unchanged and
// re-consulting the objects map after any mutation (generation mismatch),
// so Unregister and republish take effect at once.
func (s *Server) resolveBound(e *bindEntry) any {
	gen := s.regGen.Load()
	if oc := e.obj.Load(); oc != nil && oc.gen == gen {
		return oc.obj
	}
	s.mu.Lock()
	obj := s.objects[e.uri]
	s.mu.Unlock()
	if obj == nil {
		return nil
	}
	// gen was loaded before the map read: a racing mutation can only make
	// the cached generation stale (revalidated on the next call), never
	// make a stale object look fresh.
	e.obj.Store(&objCache{obj: obj, gen: gen})
	return obj
}

// invoke runs the requested call on its target: one carrying a user's
// method on a NestedInvoker directly, a bound one through the entry's cached
// invoker thunk, re-resolved when the concrete type changes (a Marshal at
// the same URI may publish another type, as a migration does when an
// actorEndpoint replaces an ioWrapper), anything else by name.
func (c *serverCall) invoke() (any, error) {
	req, e, obj, ctx := &c.req, c.entry, c.obj, c.ctx
	args := req.Args
	if req.Method != "" {
		if ni, ok := obj.(NestedInvoker); ok {
			return ni.InvokeNested(ctx, req.Call, req.Method, args)
		}
		// A method of the object's own that happens to take (string,
		// []any): the list is its parameter now, decoded, in an array of
		// its own.
		list := slices.Clone(args)
		if err := wire.DecodeArgs(list); err != nil {
			return nil, err
		}
		args = []any{req.Method, list}
	}
	if e != nil {
		t := reflect.TypeOf(obj)
		ic := e.inv.Load()
		if ic == nil || ic.typ != t {
			ic = &invCache{typ: t, inv: dispatch.InvokerFor(t, e.call)}
			e.inv.Store(ic)
		}
		if ic.inv != nil {
			return ic.inv(ctx, obj, args)
		}
	}
	return dispatch.InvokeCtx(ctx, obj, req.Call, args)
}
