// Code generated by parcgen; DO NOT EDIT.
// Typed requests and invoker thunks of the runtime's own classes (paper Fig. 6).

package core

import (
	"context"

	"repro/internal/dispatch"
	"repro/internal/remoting"
)

// omCreateObject is the request omService.CreateObject(class).
func omCreateObject(class string) omCall[string] {
	return omCall[string]{remoteCall{call: "CreateObject", args: []any{class}}}
}

// omDestroyObject is the request omService.DestroyObject(uri).
func omDestroyObject(uri string) omCall[struct{}] {
	return omCall[struct{}]{remoteCall{call: "DestroyObject", args: []any{uri}}}
}

// omAbortAccept is the request omService.AbortAccept(uri, gen).
func omAbortAccept(uri string, gen uint64) omCall[struct{}] {
	return omCall[struct{}]{remoteCall{call: "AbortAccept", args: []any{uri, gen}}}
}

// omResolve is the request omService.Resolve(uri).
func omResolve(uri string) omCall[resolveReply] {
	return omCall[resolveReply]{remoteCall{call: "Resolve", args: []any{uri}}}
}

// omAcceptObject is the request omService.AcceptObject(class, uri, gen, state).
func omAcceptObject(class string, uri string, gen uint64, state []byte) omCall[string] {
	return omCall[string]{remoteCall{call: "AcceptObject", args: []any{class, uri, gen, state}}}
}

// omMigrate is the request omService.Migrate(uri, toNode).
func omMigrate(uri string, toNode int) omCall[resolveReply] {
	return omCall[resolveReply]{remoteCall{call: "Migrate", args: []any{uri, toNode}}}
}

// omLoadInfo is the request omService.LoadInfo().
func omLoadInfo() omCall[loadInfo] {
	return omCall[loadInfo]{remoteCall{call: "LoadInfo", args: []any{}}}
}

// omActivateVirtual is the request omService.ActivateVirtual(class, uri).
func omActivateVirtual(class string, uri string) omCall[resolveReply] {
	return omCall[resolveReply]{remoteCall{call: "ActivateVirtual", args: []any{class, uri}}}
}

// omReplicateVirtual is the request omService.ReplicateVirtual(class, uri, gen, seq, fromNode, fromAddr, state, dedup, dedupBase).
func omReplicateVirtual(class string, uri string, gen uint64, seq uint64, fromNode int, fromAddr string, state []byte, dedup []remoting.DedupRecord, dedupBase uint64) omCall[bool] {
	return omCall[bool]{remoteCall{call: "ReplicateVirtual", args: []any{class, uri, gen, seq, fromNode, fromAddr, state, dedup, dedupBase}}}
}

// omDropReplica is the request omService.DropReplica(uri).
func omDropReplica(uri string) omCall[struct{}] {
	return omCall[struct{}]{remoteCall{call: "DropReplica", args: []any{uri}}}
}

// omReplicaAt is the request omService.ReplicaAt(uri, candidateGen, fromNode, fromAddr).
func omReplicaAt(uri string, candidateGen uint64, fromNode int, fromAddr string) omCall[replicaInfo] {
	return omCall[replicaInfo]{remoteCall{call: "ReplicaAt", args: []any{uri, candidateGen, fromNode, fromAddr}}}
}

// init registers typed invoker thunks for omService: the dispatcher binds
// decoded arguments by type assertion and calls the method directly,
// skipping reflection on the server-side hot path.
func init() {
	dispatch.RegisterInvokers(&omService{}, map[string]dispatch.Invoker{
		"CreateObject": func(ctx context.Context, obj any, args []any) (any, error) {
			x := obj.(*omService)
			if len(args) != 1 {
				return nil, dispatch.BadArity(obj, "CreateObject", len(args), 1)
			}
			a0, err := dispatch.Arg[string](obj, "CreateObject", args, 0)
			if err != nil {
				return nil, err
			}
			r, err := x.CreateObject(a0)
			if err != nil {
				return nil, err
			}
			return r, nil
		},
		"DestroyObject": func(ctx context.Context, obj any, args []any) (any, error) {
			x := obj.(*omService)
			if len(args) != 1 {
				return nil, dispatch.BadArity(obj, "DestroyObject", len(args), 1)
			}
			a0, err := dispatch.Arg[string](obj, "DestroyObject", args, 0)
			if err != nil {
				return nil, err
			}
			return nil, x.DestroyObject(ctx, a0)
		},
		"AbortAccept": func(ctx context.Context, obj any, args []any) (any, error) {
			x := obj.(*omService)
			if len(args) != 2 {
				return nil, dispatch.BadArity(obj, "AbortAccept", len(args), 2)
			}
			a0, err := dispatch.Arg[string](obj, "AbortAccept", args, 0)
			if err != nil {
				return nil, err
			}
			a1, err := dispatch.Arg[uint64](obj, "AbortAccept", args, 1)
			if err != nil {
				return nil, err
			}
			x.AbortAccept(a0, a1)
			return nil, nil
		},
		"Resolve": func(ctx context.Context, obj any, args []any) (any, error) {
			x := obj.(*omService)
			if len(args) != 1 {
				return nil, dispatch.BadArity(obj, "Resolve", len(args), 1)
			}
			a0, err := dispatch.Arg[string](obj, "Resolve", args, 0)
			if err != nil {
				return nil, err
			}
			return x.Resolve(a0), nil
		},
		"AcceptObject": func(ctx context.Context, obj any, args []any) (any, error) {
			x := obj.(*omService)
			if len(args) != 4 {
				return nil, dispatch.BadArity(obj, "AcceptObject", len(args), 4)
			}
			a0, err := dispatch.Arg[string](obj, "AcceptObject", args, 0)
			if err != nil {
				return nil, err
			}
			a1, err := dispatch.Arg[string](obj, "AcceptObject", args, 1)
			if err != nil {
				return nil, err
			}
			a2, err := dispatch.Arg[uint64](obj, "AcceptObject", args, 2)
			if err != nil {
				return nil, err
			}
			a3, err := dispatch.Arg[[]byte](obj, "AcceptObject", args, 3)
			if err != nil {
				return nil, err
			}
			r, err := x.AcceptObject(a0, a1, a2, a3)
			if err != nil {
				return nil, err
			}
			return r, nil
		},
		"Migrate": func(ctx context.Context, obj any, args []any) (any, error) {
			x := obj.(*omService)
			if len(args) != 2 {
				return nil, dispatch.BadArity(obj, "Migrate", len(args), 2)
			}
			a0, err := dispatch.Arg[string](obj, "Migrate", args, 0)
			if err != nil {
				return nil, err
			}
			a1, err := dispatch.Arg[int](obj, "Migrate", args, 1)
			if err != nil {
				return nil, err
			}
			r, err := x.Migrate(ctx, a0, a1)
			if err != nil {
				return nil, err
			}
			return r, nil
		},
		"LoadInfo": func(ctx context.Context, obj any, args []any) (any, error) {
			x := obj.(*omService)
			if len(args) != 0 {
				return nil, dispatch.BadArity(obj, "LoadInfo", len(args), 0)
			}
			return x.LoadInfo(), nil
		},
		"ActivateVirtual": func(ctx context.Context, obj any, args []any) (any, error) {
			x := obj.(*omService)
			if len(args) != 2 {
				return nil, dispatch.BadArity(obj, "ActivateVirtual", len(args), 2)
			}
			a0, err := dispatch.Arg[string](obj, "ActivateVirtual", args, 0)
			if err != nil {
				return nil, err
			}
			a1, err := dispatch.Arg[string](obj, "ActivateVirtual", args, 1)
			if err != nil {
				return nil, err
			}
			r, err := x.ActivateVirtual(ctx, a0, a1)
			if err != nil {
				return nil, err
			}
			return r, nil
		},
		"ReplicateVirtual": func(ctx context.Context, obj any, args []any) (any, error) {
			x := obj.(*omService)
			if len(args) != 9 {
				return nil, dispatch.BadArity(obj, "ReplicateVirtual", len(args), 9)
			}
			a0, err := dispatch.Arg[string](obj, "ReplicateVirtual", args, 0)
			if err != nil {
				return nil, err
			}
			a1, err := dispatch.Arg[string](obj, "ReplicateVirtual", args, 1)
			if err != nil {
				return nil, err
			}
			a2, err := dispatch.Arg[uint64](obj, "ReplicateVirtual", args, 2)
			if err != nil {
				return nil, err
			}
			a3, err := dispatch.Arg[uint64](obj, "ReplicateVirtual", args, 3)
			if err != nil {
				return nil, err
			}
			a4, err := dispatch.Arg[int](obj, "ReplicateVirtual", args, 4)
			if err != nil {
				return nil, err
			}
			a5, err := dispatch.Arg[string](obj, "ReplicateVirtual", args, 5)
			if err != nil {
				return nil, err
			}
			a6, err := dispatch.Arg[[]byte](obj, "ReplicateVirtual", args, 6)
			if err != nil {
				return nil, err
			}
			a7, err := dispatch.Arg[[]remoting.DedupRecord](obj, "ReplicateVirtual", args, 7)
			if err != nil {
				return nil, err
			}
			a8, err := dispatch.Arg[uint64](obj, "ReplicateVirtual", args, 8)
			if err != nil {
				return nil, err
			}
			r, err := x.ReplicateVirtual(a0, a1, a2, a3, a4, a5, a6, a7, a8)
			if err != nil {
				return nil, err
			}
			return r, nil
		},
		"DropReplica": func(ctx context.Context, obj any, args []any) (any, error) {
			x := obj.(*omService)
			if len(args) != 1 {
				return nil, dispatch.BadArity(obj, "DropReplica", len(args), 1)
			}
			a0, err := dispatch.Arg[string](obj, "DropReplica", args, 0)
			if err != nil {
				return nil, err
			}
			x.DropReplica(a0)
			return nil, nil
		},
		"ReplicaAt": func(ctx context.Context, obj any, args []any) (any, error) {
			x := obj.(*omService)
			if len(args) != 4 {
				return nil, dispatch.BadArity(obj, "ReplicaAt", len(args), 4)
			}
			a0, err := dispatch.Arg[string](obj, "ReplicaAt", args, 0)
			if err != nil {
				return nil, err
			}
			a1, err := dispatch.Arg[uint64](obj, "ReplicaAt", args, 1)
			if err != nil {
				return nil, err
			}
			a2, err := dispatch.Arg[int](obj, "ReplicaAt", args, 2)
			if err != nil {
				return nil, err
			}
			a3, err := dispatch.Arg[string](obj, "ReplicaAt", args, 3)
			if err != nil {
				return nil, err
			}
			return x.ReplicaAt(a0, a1, a2, a3), nil
		},
	})
}
