// Idempotency tokens: the client-side half of effectively-once calls.
//
// A CallToken names one logical call: (client id, per-client sequence).
// Every wire attempt of that logical call — the stale-connection redial,
// RetryPolicy retries, and re-resolved retries after a failover — carries
// the same token in its envelope, so a server (or the replica promoted in
// its place) that already executed the call can recognise the retry and
// return the recorded reply instead of executing again. Tokens ride the
// context, not the ObjRef, because one logical call can cross several
// proxies while it chases forwards and re-resolves.
package remoting

import (
	"context"
	"math/rand/v2"
)

// CallToken identifies one logical call for idempotent deduplication. The
// zero token means "no token": the call keeps the historical at-least-once
// retry semantics.
type CallToken struct {
	// Client identifies the issuing channel (random, drawn once per
	// channel). Zero is reserved for "no token".
	Client uint64
	// Seq is the per-client logical-call counter.
	Seq uint64
}

// Zero reports whether the token is the no-token sentinel.
func (t CallToken) Zero() bool { return t.Client == 0 }

// clientID lazily draws the channel's random client identity. Two channels
// colliding would merge their dedup namespaces; 64 random bits make that a
// non-event for any realistic fleet.
func (ch *Channel) clientID() uint64 {
	for {
		if id := ch.tokClient.Load(); id != 0 {
			return id
		}
		id := rand.Uint64()
		if id == 0 {
			continue
		}
		if ch.tokClient.CompareAndSwap(0, id) {
			return id
		}
	}
}

// NewCallToken draws a fresh token for one logical call. Reuse the token
// across every retry of that call and nothing else.
func (ch *Channel) NewCallToken() CallToken {
	return CallToken{Client: ch.clientID(), Seq: ch.tokSeq.Add(1)}
}

type tokenCtxKey struct{}

// ContextWithToken returns a context carrying tok; ObjRef.InvokeCtx stamps
// it into every request envelope sent under that context.
func ContextWithToken(ctx context.Context, tok CallToken) context.Context {
	if tok.Zero() {
		return ctx
	}
	return context.WithValue(ctx, tokenCtxKey{}, tok)
}

// TokenFromContext extracts the call token from ctx, if any. The server
// side uses it too: dispatch installs the request's token into the
// invocation context so object runtimes (the SCOOPP actor layer) can dedup
// before side effects replicate.
func TokenFromContext(ctx context.Context) (CallToken, bool) {
	tok, ok := ctx.Value(tokenCtxKey{}).(CallToken)
	return tok, ok && !tok.Zero()
}

// noRetryCtxKey marks contexts whose calls must not go through the
// channel's RetryPolicy (health probes, whose timing is the failure
// detector's clock and must not be stretched by backoff sleeps).
type noRetryCtxKey struct{}

// WithoutRetry returns a context whose calls bypass the channel's retry
// policy (a single attempt, as before the policy existed).
func WithoutRetry(ctx context.Context) context.Context {
	return context.WithValue(ctx, noRetryCtxKey{}, true)
}

func retryDisabled(ctx context.Context) bool {
	on, _ := ctx.Value(noRetryCtxKey{}).(bool)
	return on
}

// noBreakerCtxKey marks contexts whose calls bypass the peer's breaker
// (Channel.dial's gate).
type noBreakerCtxKey struct{}

// WithoutBreaker returns a context whose calls dial a peer that has no live
// lane even while the peer's breaker (the dial backoff a refused dial opens)
// would fail them fast; the outcome is still recorded, so a successful dial
// closes the breaker. The breaker is an availability optimisation (skip the
// dial a known-dead peer costs); a correctness-critical read such as a
// promotion census must not be answered by it: a breaker left open by a
// healed transient would make the freshest replica holder look unreachable,
// and a quorum met via emptier peers would then promote stale state past
// acknowledged calls. Callers are expected to bound the attempt with their
// own deadline.
func WithoutBreaker(ctx context.Context) context.Context {
	return context.WithValue(ctx, noBreakerCtxKey{}, true)
}

func breakerBypassed(ctx context.Context) bool {
	on, _ := ctx.Value(noBreakerCtxKey{}).(bool)
	return on
}
