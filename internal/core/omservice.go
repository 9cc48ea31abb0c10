package core

// This file holds every RPC a node's object manager (omService) answers;
// parcgen generates its typed requests and invoker thunks from it.
//go:generate go run repro/cmd/parcgen -in omservice.go -out omservice_parc.go

import (
	"context"
	"fmt"

	"repro/internal/remoting"
	"repro/internal/wire"
)

// omService is the object manager's remote interface (Fig. 6's
// RemoteFactory plus load reporting).
//
//parc:parallel
type omService struct {
	rt *Runtime
}

// omCall is one request to an object manager, as its generated constructor
// builds it (omResolve(uri), ...), R being its method's result type. It is
// a remoteCall: a proxy's attempt (Proxy.invokeRemote) and a fan-out send it
// as they send any other.
type omCall[R any] struct{ remoteCall }

// on makes the call on ref and waits for its reply.
func (c omCall[R]) on(ctx context.Context, ref *remoting.ObjRef) (R, error) {
	v, err := c.remoteCall.on(ctx, ref)
	if err != nil {
		return *new(R), err
	}
	return c.reply(v)
}

// reply converts a reply of the call to R: nil is R's zero value, and a
// value of another type converts by wire's rules.
func (omCall[R]) reply(v any) (r R, err error) {
	r, ok := v.(R)
	if !ok && v != nil {
		err = wire.AssignTo(&r, v)
	}
	return r, err
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
		if _, err := omDestroyObject(uri).on(ctx, om); err != nil {
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

// Resolve reports this node's directory knowledge of uri: authoritative
// for hosted objects and tombstones, best-effort for cached locations.
func (s *omService) Resolve(uri string) resolveReply {
	if loc, ok := s.rt.dirLookup(uri); ok {
		return resolveReply{Found: true, Node: loc.Node, Addr: loc.Addr, Gen: loc.Gen}
	}
	return resolveReply{}
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
func (s *omService) Migrate(ctx context.Context, uri string, toNode int) (resolveReply, error) {
	if err := s.rt.MigrateCtx(ctx, uri, toNode); err != nil {
		return resolveReply{}, err
	}
	loc, ok := s.rt.dirLookup(uri)
	if !ok {
		return resolveReply{}, fmt.Errorf("core: migrate %s: directory entry lost", uri)
	}
	return resolveReply{Found: true, Node: loc.Node, Addr: loc.Addr, Gen: loc.Gen}, nil
}

// LoadInfo reports the node's load and overload grade in one reply; it is
// the probe target of both the health loop and the placement load vector.
func (s *omService) LoadInfo() loadInfo {
	return loadInfo{Load: s.rt.Load(), Overload: int(s.rt.OverloadGrade())}
}

// ActivateVirtual ensures a live instance of the virtual object uri
// exists, activating it on this node when this node owns it. The reply
// either carries the instance's location (Found) or redirects the caller
// to the owner in this node's membership view (!Found with Node/Addr
// set).
func (s *omService) ActivateVirtual(ctx context.Context, class, uri string) (resolveReply, error) {
	return s.rt.activateVirtual(ctx, class, uri)
}

// ReplicateVirtual stores a passive state snapshot of a virtual object
// owned by a peer, together with the owner's dedup memory (full, or
// incremental past dedupBase); see Runtime.replicateVirtual.
func (s *omService) ReplicateVirtual(class, uri string, gen, seq uint64, fromNode int, fromAddr string, state []byte, dedup []remoting.DedupRecord, dedupBase uint64) (bool, error) {
	return s.rt.replicateVirtual(class, uri, gen, seq, fromNode, fromAddr, state, dedup, dedupBase)
}

// DropReplica forgets this node's passive replica of uri.
func (s *omService) DropReplica(uri string) {
	s.rt.dropReplica(uri)
}

// ReplicaAt reports this node's passive replica of uri for a promotion
// census, promising candidateGen (see Runtime.replicaAt).
func (s *omService) ReplicaAt(uri string, candidateGen uint64, fromNode int, fromAddr string) replicaInfo {
	return s.rt.replicaAt(uri, candidateGen, fromNode, fromAddr)
}
