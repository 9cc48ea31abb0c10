// Package remoting is the Go analogue of .NET Remoting as used by ParC#
// (paper §2–3). It provides:
//
//   - the channel: one long-lived connection per lane and peer pipelining
//     many concurrent calls, responses matched by sequence number and
//     completing out of order (the paper's three 2005 Mono channels are the
//     baseline stack in internal/paper/mono, not kinds of this one);
//   - server-side object publication: Marshal publishes an object under a
//     well-known URI, and every call on that URI runs on it
//     (RemotingServices.Marshal; §2 highlights publishing by URI as the
//     improvement over Java RMI's manual export);
//   - transparent proxies: GetObject returns an ObjRef whose Invoke
//     dispatches by method name over the wire, the analogue of
//     Activator.GetObject + the auto-generated proxy;
//   - asynchronous calls: StartCall enqueues the request, recorded in a
//     CallRecord its caller supplies, and hands the outcome to a Completer
//     on the reply's arrival, with no goroutine and no allocation of the
//     connection's per call: the mechanism behind asynchronous parallel
//     object calls (the delegates of paper Fig. 4). Every call to one object
//     rides one connection, whose writer sends the calls in the order they
//     were submitted; the order a caller's calls must run in is the SCOOPP
//     proxy's (internal/core), not this package's;
//   - no lifetime service: paper §3.2 says ParC# left an IO's lifetime to
//     .NET, where ParC++ destroyed IOs explicitly. The runtime here destroys
//     its objects explicitly, as ParC++ did: a published object stays until
//     Marshal or Unregister replaces it (or UnregisterIf, keyed by the
//     object), and the one thing that ages is the forward a migration
//     leaves, which internal/core times itself.
package remoting

import (
	"fmt"
	"maps"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/errs"
)

// callRequest is the request envelope as a frame carries it and the server
// reads it; one per remote method invocation. It travels as the call frame
// of envelope.go, URI, Call and Method only in a declaring frame. A client
// keeps a request, which is what the call's context and ObjRef do not
// already hold.
type callRequest struct {
	URI string
	// Call is the method of the published object the request invokes.
	// Method, when not empty, is the user's method a runtime call carries,
	// the SCOOPP runtime's Invoke1("Echo", args): the call is Call(Method,
	// Args) without that list having been built (NestedInvoker).
	Call   string
	Method string
	Seq    uint64
	// Deadline, when non-zero, is the caller's context deadline as unix
	// nanoseconds; the server refuses to start (and bounds the execution
	// of context-aware methods) past it.
	Deadline int64
	Args     []any
	// TokClient/TokSeq carry the call's idempotency token (token.go) when
	// the caller requested effectively-once semantics; zero TokClient means
	// no token.
	TokClient uint64
	TokSeq    uint64
}

// request is a callRequest as the client's record of the call holds it:
// what its caller named, and the sequence number. called points at the one
// copy of the call's (call, method) pair (internCall). The URI is the
// record's ObjRef's, and the deadline and token are its context's, read when
// the frame is encoded (CallRecord.envelope).
type request struct {
	called *calledAs
	Seq    uint64
	Args   []any
}

// calledAs is a request's call and the user's method it carries (empty for
// a plain call), as callRequest names them.
type calledAs struct{ call, method string }

func (r *callRequest) name() string { return callName(r.Call, r.Method) }
func (r *request) name() string     { return callName(r.called.call, r.called.method) }

// maxCalledAs bounds calledAsSet: a program names far fewer pairs, and past
// it a pair is not kept, so a caller that makes up method names cannot grow
// the set.
const maxCalledAs = 4096

// calledAsSet holds one copy of every (call, method) pair a client record
// has named (internCall). Copy-on-write, read without a lock; it grows with
// the program's methods, not with its calls.
var (
	calledAsMu  sync.Mutex
	calledAsSet atomic.Pointer[map[calledAs]*calledAs]
)

// internCall returns the one copy of the pair (call, method), so that a
// record keeps one pointer rather than two string headers. A pair beyond
// maxCalledAs gets a copy of its own.
func internCall(call, method string) *calledAs {
	k := calledAs{call, method}
	if set := calledAsSet.Load(); set != nil {
		if p := (*set)[k]; p != nil {
			return p
		}
	}
	calledAsMu.Lock()
	defer calledAsMu.Unlock()
	next := map[calledAs]*calledAs{}
	if old := calledAsSet.Load(); old != nil {
		if p := (*old)[k]; p != nil {
			return p
		}
		if len(*old) >= maxCalledAs {
			return &calledAs{call, method}
		}
		maps.Copy(next, *old)
	}
	p := &calledAs{strings.Clone(call), strings.Clone(method)}
	next[*p] = p
	calledAsSet.Store(&next)
	return p
}

// callName is the method a caller asked for, as errors report it: the user's
// method of a runtime call, call for a plain one.
func callName(call, method string) string {
	if method != "" {
		return method
	}
	return call
}

// callResponse is the reply envelope.
type callResponse struct {
	Seq    uint64
	Result any
	ErrMsg string
	// ErrCode carries the wire code of a sentinel error (see
	// internal/errs) so the client can rebuild an errors.Is-able chain.
	ErrCode string
	IsErr   bool
	// FwdAddr/FwdNode/FwdGen/FwdURI carry the new location of a migrated
	// object when ErrCode is errs.CodeMoved, so the caller can re-route
	// and retry without a directory round trip (the client rebuilds the
	// *errs.MovedError from them). FwdURI names the object that moved:
	// it may differ from the call's own URI (an object-manager call
	// reporting a forward for the object it operates on), and receivers
	// must only re-route proxies whose URI matches it.
	FwdAddr string
	FwdNode int
	FwdGen  uint64
	FwdURI  string
	// RetryAfterMs, on ErrCode errs.CodeOverloaded replies, is the server's
	// drain estimate in milliseconds: retry sooner than this and the call
	// will very likely shed again. The client-side retry policy honours it
	// over its computed backoff. Zero means no hint.
	RetryAfterMs int64
	// Unbound marks the refusal of a bare call whose handle the connection
	// never declared; the call was not run, and the client sends it again,
	// declaring.
	Unbound bool
}

// remoteError is the error surfaced to callers when the server side fails.
// Unlike Java RMI's checked RemoteException, it is an ordinary error value —
// the ergonomic difference the paper calls out in §2.
type remoteError struct {
	URI    string
	Method string
	Msg    string
	// Code is the wire code of the server-side sentinel error, when the
	// failure matched one (see internal/errs).
	Code string
	// Moved carries the migrated object's new location when Code is
	// errs.CodeMoved, rebuilt from the reply envelope's forward fields.
	Moved *errs.MovedError
	// RetryAfter carries the server's drain estimate when Code is
	// errs.CodeOverloaded and the reply included a hint (see
	// callResponse.RetryAfterMs). Zero means no hint.
	RetryAfter time.Duration
}

// Error implements error.
func (e *remoteError) Error() string {
	return fmt.Sprintf("remoting: %s.%s: %s", e.URI, e.Method, e.Msg)
}

// Unwrap exposes the sentinel identified by Code — or the full
// *errs.MovedError for moved objects, or the error errs.WithRetryAfter
// built to carry the retry-after hint — so errors.Is matches typed errors
// (errs.ErrNoSuchMethod, context.DeadlineExceeded, ...) and errors.As
// recovers the forward location even after the error crossed the wire.
func (e *remoteError) Unwrap() error {
	if e.Moved != nil {
		return e.Moved
	}
	if e.RetryAfter > 0 {
		return errs.WithRetryAfter(errs.Sentinel(e.Code), e.RetryAfter)
	}
	return errs.Sentinel(e.Code)
}

// parseURL splits a remoting URL such as "tcp://127.0.0.1:4000/DivideServer"
// or "mem://node0/factory" into the transport address to dial and the object
// URI. The scheme is advisory; the channel's transport decides how to
// interpret the address.
func parseURL(url string) (scheme, netaddr, uri string, err error) {
	i := strings.Index(url, "://")
	if i < 0 {
		return "", "", "", fmt.Errorf("remoting: URL %q missing scheme", url)
	}
	scheme = url[:i]
	rest := url[i+3:]
	j := strings.Index(rest, "/")
	if j < 0 || j == len(rest)-1 {
		return "", "", "", fmt.Errorf("remoting: URL %q missing object URI", url)
	}
	host := rest[:j]
	uri = rest[j+1:]
	switch scheme {
	case "mem", "unix", "inproc":
		// Self-describing transports embed the scheme in their addresses,
		// so the Auto network can route by address alone.
		netaddr = scheme + "://" + host
	default:
		netaddr = host
	}
	if host == "" {
		return "", "", "", fmt.Errorf("remoting: URL %q missing host", url)
	}
	return scheme, netaddr, uri, nil
}

// buildURL is the inverse of parseURL. Self-describing addresses (mem://,
// unix://, inproc://) keep their own scheme so the URL round-trips.
func buildURL(scheme, netaddr, uri string) string {
	if strings.Contains(netaddr, "://") {
		return netaddr + "/" + uri
	}
	return fmt.Sprintf("%s://%s/%s", scheme, netaddr, uri)
}
