package core

import (
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/remoting"
	"repro/internal/wire"
)

// TestOMThunksRegistered: every RPC of the object manager is served by its
// generated thunk, not by reflection over omService.
func TestOMThunksRegistered(t *testing.T) {
	typ := reflect.TypeOf(&omService{})
	for i := 0; i < typ.NumMethod(); i++ {
		if m := typ.Method(i).Name; dispatch.InvokerFor(typ, m) == nil {
			t.Errorf("omService.%s has no registered invoker thunk", m)
		}
	}
}

// TestOMRequestFramesUnchanged holds the argument list each generated
// request constructor builds to the bytes the hand-written call sites sent
// for the same values, recorded before the object manager was generated.
// LoadInfo's list was nil then and is empty now: both encode as the list
// tag and a count of 0.
func TestOMRequestFramesUnchanged(t *testing.T) {
	const (
		class = "core.counter"
		uri   = "counter/7"
		addr  = "mem://node-2"
	)
	gen, seq, base := uint64(7), uint64(9), uint64(5)
	node, toNode := 2, 1
	state := []byte{1, 2, 3}
	recs := []remoting.DedupRecord{{Client: 1, Seq: 2, Stamp: 3, Result: int64(4), ErrMsg: "e", ErrCode: "c", IsErr: true}}
	// A synchronous ship builds its round's request once and gives each
	// target its own records and base (peerCall.shipTo).
	ship := omReplicateVirtual(class, uri, gen, seq, node, addr, state, nil, 0).args
	const replicate = "18090f0c636f72652e636f756e7465720f09636f756e7465722f370b070b0907040f0c6d656d3a2f2f6e6f64652d32100301020318011a1572656d6f74696e672e44656475705265636f72640707436c69656e740b0108457272436f64650f0163074572724d73670f01650649734572720107526573756c740608045365710b02065374616d700b030b05"
	seen := map[string]bool{}
	for _, tc := range []struct {
		name string
		call remoteCall
		want string
	}{
		{"CreateObject", omCreateObject(class).remoteCall, "18010f0c636f72652e636f756e746572"},
		{"DestroyObject", omDestroyObject(uri).remoteCall, "18010f09636f756e7465722f37"},
		{"AbortAccept", omAbortAccept(uri, gen).remoteCall, "18020f09636f756e7465722f370b07"},
		{"Resolve", omResolve(uri).remoteCall, "18010f09636f756e7465722f37"},
		{"AcceptObject", omAcceptObject(class, uri, gen, state).remoteCall, "18040f0c636f72652e636f756e7465720f09636f756e7465722f370b071003010203"},
		{"Migrate", omMigrate(uri, toNode).remoteCall, "18020f09636f756e7465722f370702"},
		{"LoadInfo", omLoadInfo().remoteCall, "1800"},
		{"ActivateVirtual", omActivateVirtual(class, uri).remoteCall, "18020f0c636f72652e636f756e7465720f09636f756e7465722f37"},
		{"ReplicateVirtual", omReplicateVirtual(class, uri, gen, seq, node, addr, state, recs, base).remoteCall, replicate},
		{"ReplicateVirtual", remoteCall{call: "ReplicateVirtual", args: append(ship[:7:7], recs, base)}, replicate},
		{"DropReplica", omDropReplica(uri).remoteCall, "18010f09636f756e7465722f37"},
		{"ReplicaAt", omReplicaAt(uri, gen, node, addr).remoteCall, "18040f09636f756e7465722f370b0707040f0c6d656d3a2f2f6e6f64652d32"},
	} {
		seen[tc.name] = true
		if tc.call.call != tc.name {
			t.Errorf("request for %s calls %q", tc.name, tc.call.call)
		}
		e := wire.NewEncoder()
		e.AnySlice(tc.call.args)
		if err := e.Err(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := hex.EncodeToString(e.Bytes()); got != tc.want {
			t.Errorf("%s's arguments encode as\n%s, want\n%s", tc.name, got, tc.want)
		}
		e.Release()
	}
	typ := reflect.TypeOf(&omService{})
	for i := 0; i < typ.NumMethod(); i++ {
		if m := typ.Method(i).Name; !seen[m] {
			t.Errorf("omService.%s has no row here: record its arguments' bytes", m)
		}
	}
}
