package remoting

import (
	"context"
	"fmt"
	"time"

	"repro/internal/errs"
	"repro/internal/keep"
)

// ObjRef is the client-side transparent proxy for a remote object — the
// value Activator.GetObject returns in the paper's Fig. 2. Method calls go
// through Invoke (synchronous) or StartCall (asynchronous: the outcome goes
// to a Completer on the completion path).
type ObjRef struct {
	ch      *Channel
	netaddr string
	uri     string

	// kept holds the records of the ObjRef's blocking calls between calls,
	// which a collection does not take from it.
	kept keep.Store[blockingWait]
}

// GetObject returns a proxy for the object at url, for example
// "tcp://127.0.0.1:4000/DivideServer". No connection is made until the
// first call, matching Activator.GetObject's lazy behaviour.
func GetObject(ch *Channel, url string) (*ObjRef, error) {
	_, netaddr, uri, err := parseURL(url)
	if err != nil {
		return nil, err
	}
	return &ObjRef{ch: ch, netaddr: netaddr, uri: uri}, nil
}

// NewObjRef builds a proxy from an already-split transport address and
// object URI (used by the SCOOPP runtime, which receives both from the
// object manager).
func NewObjRef(ch *Channel, netaddr, uri string) *ObjRef {
	return &ObjRef{ch: ch, netaddr: netaddr, uri: uri}
}

// URL reconstructs the object's remoting URL.
func (r *ObjRef) URL() string { return buildURL(urlScheme, r.netaddr, r.uri) }

// URI returns the object path component.
func (r *ObjRef) URI() string { return r.uri }

// NetAddr returns the transport address of the hosting server.
func (r *ObjRef) NetAddr() string { return r.netaddr }

// Invoke performs a synchronous remote method invocation. Server-side
// failures come back as *remoteError.
func (r *ObjRef) Invoke(method string, args ...any) (any, error) {
	return r.InvokeCtx(context.Background(), method, args...)
}

// InvokeCtx performs a synchronous remote method invocation bounded by ctx:
// cancellation abandons the in-flight exchange (the connection stays up for
// its other callers) and the deadline travels in the request envelope so
// the server refuses work past it. Server-side failures come back as *remoteError.
//
// A failed call goes again as the classifiers say (retry.go): at once when
// its submission was declined (Declined), once at once when its lane died
// under it (Stale), and, when the channel's RetryPolicy is enabled, after a
// jittered backoff while RetryIn allows (transient failures, a server
// retry-after hint, the attempt cap, ctx's deadline budget, WithoutRetry).
// An idempotency token carried by ctx (WithCallToken) rides every attempt
// unchanged, so a server that executed a lost-reply attempt replays the
// recorded reply instead of executing again.
func (r *ObjRef) InvokeCtx(ctx context.Context, method string, args ...any) (any, error) {
	return r.InvokeNestedCtx(ctx, method, "", args)
}

// InvokeNestedCtx is InvokeCtx(ctx, call, method, args), the runtime-call
// shape, with the two-element list built neither here nor, at a
// NestedInvoker, there: the connection's handle names the user's method and
// the frame carries args alone. An empty method makes it InvokeCtx(ctx,
// call, args...).
func (r *ObjRef) InvokeNestedCtx(ctx context.Context, call, method string, args []any) (any, error) {
	r.ch.CountRecord(RecordDrawn)
	w := r.kept.Get(waits)
	defer w.settle(r)
	w.SetCall(ctx, call, method, args)
	w.ref = r
	w.rearm(r.ch)
	return r.invoke(w)
}

// invoke runs the blocking call w names, retry loop included: each attempt
// is a completion-driven call its caller waits for.
func (r *ObjRef) invoke(w *blockingWait) (any, error) {
	if !r.ch.Retry.Enabled() || retryDisabled(w.ctx) {
		return r.attempt(w)
	}
	// retry numbers the retry a failed attempt would be: 1 after the first.
	for retry := 1; ; retry++ {
		start := time.Now()
		result, err := r.attempt(w)
		if err == nil || w.has(recLost) {
			return result, err
		}
		delay, ok := r.ch.RetryIn(w.ctx, err, retry, time.Since(start))
		if !ok {
			return nil, err
		}
		if serr := r.ch.sleep(w.ctx, delay); serr != nil {
			return nil, fmt.Errorf("remoting: call %s.%s: retry aborted: %w", r.uri, w.req.name(), serr)
		}
		w.rearm(r.ch)
	}
}

// attempt submits the blocking call and waits for its outcome, sending it
// again at once when its submission was declined (it never left), and once
// when its lane died under it with no reply (Stale). Context expiries, an
// orderly Channel.Close, a refused dial and the peer's own replies are never
// sent again.
func (r *ObjRef) attempt(w *blockingWait) (any, error) {
	for resent := false; ; {
		var result any
		err := r.ch.submit(r.netaddr, &w.CallRecord)
		if err == nil {
			result, err = w.await()
		}
		switch {
		case err == nil || w.ctx.Err() != nil || Closed(err):
			return result, err
		case Declined(err):
		case !resent && Stale(err):
			resent = true
		default:
			return result, err
		}
		w.rearm(r.ch)
	}
}

// rearm gives the record a fresh sequence number before each submission: a
// record sent again after a failure may still complete server-side, and a
// reused number could be matched against its late reply. The idempotency
// token (if any) stays, making the retry deduplicable; the seq is
// per-exchange plumbing.
func (c *CallRecord) rearm(ch *Channel) {
	c.req.Seq = ch.nextSeq()
}

// replyError rebuilds the error an error reply to a call of method stands
// for: a *remoteError with its sentinel chain (Moved / RetryAfter) from the
// wire fields.
func (r *ObjRef) replyError(method string, resp *callResponse) error {
	re := &remoteError{URI: r.uri, Method: method, Msg: resp.ErrMsg, Code: resp.ErrCode}
	if resp.ErrCode == errs.CodeMoved {
		movedURI := resp.FwdURI
		if movedURI == "" {
			movedURI = r.uri
		}
		re.Moved = &errs.MovedError{URI: movedURI, Node: resp.FwdNode, Addr: resp.FwdAddr, Gen: resp.FwdGen}
	}
	if resp.ErrCode == errs.CodeOverloaded && resp.RetryAfterMs > 0 {
		re.RetryAfter = time.Duration(resp.RetryAfterMs) * time.Millisecond
	}
	return re
}

// InvokeAsyncCb starts one completion-driven invocation attempt on c, a
// zero CallRecord the caller supplies (usually a field of its own record of
// the call) and leaves alone until the outcome is in: SetCall(ctx, method,
// "", args) and SetCompleter(to), then StartCall(c).
func (r *ObjRef) InvokeAsyncCb(ctx context.Context, c *CallRecord, method string, args []any, to Completer) error {
	c.SetCall(ctx, method, "", args)
	c.SetCompleter(to)
	return r.StartCall(c)
}

// StartCall submits the completion-driven call c, which SetCall named: the
// request is encoded and enqueued on its lane and the method returns
// immediately; the Completer SetCompleter named receives the normalized
// outcome exactly once, on the completion path (the lane's reader goroutine
// for replies), and c.Cancel abandons the call. An error return means the
// call was not submitted and its Completer will never hear of it. Unlike
// InvokeCtx there is no retry loop here: a single attempt, whose failure the
// caller decides how to recover with the same classifiers (retry.go); core's
// proxy submits the record again, from the completion, in its call order. A
// record serves one submission at a time.
func (r *ObjRef) StartCall(c *CallRecord) error {
	c.ref = r
	c.rearm(r.ch)
	return r.ch.submit(r.netaddr, c)
}

// String implements fmt.Stringer.
func (r *ObjRef) String() string {
	return fmt.Sprintf("ObjRef(%s)", r.URL())
}
