package remoting

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// setProcs pins GOMAXPROCS for a test (and so defaultMuxLanes), restoring
// the previous value on cleanup. The lane tests run at 4 regardless of the
// host so single-core CI still exercises the multi-lane paths.
func setProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// muxPeerCount reads how many lane connections the channel currently holds.
func muxPeerCount(ch *Channel) int {
	ch.muxMu.Lock()
	defer ch.muxMu.Unlock()
	return len(ch.muxPeers)
}

func TestDefaultMuxLanesTracksGOMAXPROCS(t *testing.T) {
	setProcs(t, 4)
	if got := defaultMuxLanes(); got != 4 {
		t.Errorf("defaultMuxLanes at GOMAXPROCS=4 = %d, want 4", got)
	}
	setProcs(t, 1)
	if got := defaultMuxLanes(); got != 1 {
		t.Errorf("defaultMuxLanes at GOMAXPROCS=1 = %d, want 1", got)
	}
	runtime.GOMAXPROCS(16)
	if got := defaultMuxLanes(); got != 4 {
		t.Errorf("defaultMuxLanes at GOMAXPROCS=16 = %d, want 4 (capped)", got)
	}
}

// TestLaneRuleIsFNV1a pins which lane an object's calls take: the 32-bit
// FNV-1a hash of its URI (hash/fnv's New32a) modulo the lane count, so every
// call to one object rides one lane, whose one queue keeps them in order. The
// bind table's stripes hash a (URI, call, method) triple with the same
// function, each part followed by '.'.
func TestLaneRuleIsFNV1a(t *testing.T) {
	sum := func(s string) uint32 {
		h := fnv.New32a()
		h.Write([]byte(s))
		return h.Sum32()
	}
	uris := []string{"", "om", "d0", "d63", "virtual/counter/user7", "obj/3f2a", "ü"}
	for lanes := 1; lanes <= 4; lanes++ {
		ch := &Channel{MuxLanes: lanes}
		for _, uri := range uris {
			if got, want := ch.laneForURI(uri), int(sum(uri)%uint32(lanes)); got != want {
				t.Errorf("%d lanes: %q rides lane %d, want %d", lanes, uri, got, want)
			}
		}
	}
	for _, uri := range uris {
		k := bindKey{uri: uri, call: "Invoke1", method: "Echo"}
		if got, want := k.hash(), sum(uri+".Invoke1.Echo."); got != want {
			t.Errorf("bind key %v hashes to %#x, want %#x", k, got, want)
		}
	}
}

// TestLaneStriping: lanes are chosen by object. Concurrent callers of one
// object share its one lane (one dial); callers spread over 64 objects reach
// exactly 4 connections to the one peer, no more (lanes are long-lived) and
// no fewer (the objects cover every lane); every call completes correctly.
func TestLaneStriping(t *testing.T) {
	setProcs(t, 4)
	ch, srv, net := newMuxServer(t)
	ch.MuxLanes = 4
	shared := &divideServer{}
	refs := make([]*ObjRef, 64)
	for i := range refs {
		uri := fmt.Sprintf("d%d", i)
		srv.Marshal(uri, shared)
		refs[i], _ = GetObject(ch, srv.URLFor(uri))
	}
	hammer := func(refs []*ObjRef) {
		var wg sync.WaitGroup
		for i := 0; i < 32; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 8; j++ {
					if _, err := refs[(i*8+j)%len(refs)].Invoke("Divide", 8.0, 2.0); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	hammer(refs[:1])
	if shared.Calls() != 256 {
		t.Errorf("calls = %d, want 256", shared.Calls())
	}
	if d, n := net.dials.Load(), muxPeerCount(ch); d != 1 || n != 1 {
		t.Errorf("one object: dials = %d, muxPeers = %d, want 1 and 1 (its calls share one lane)", d, n)
	}
	hammer(refs)
	if shared.Calls() != 512 {
		t.Errorf("calls = %d, want 512", shared.Calls())
	}
	if d, n := net.dials.Load(), muxPeerCount(ch); d != 4 || n != 4 {
		t.Errorf("64 objects: dials = %d, muxPeers = %d, want 4 and 4 (one long-lived connection per lane)", d, n)
	}
}

// TestLaneOutOfOrderCompletion: with 4 lanes, a call blocked server-side
// must not block a later call to the same object, which rides the same lane
// (lanes are chosen by object): its reply overtakes the blocked one's.
func TestLaneOutOfOrderCompletion(t *testing.T) {
	setProcs(t, 4)
	ch, srv, _ := newMuxServer(t)
	ch.MuxLanes = 4
	g := newGateService()
	srv.Marshal("g", g)
	ref, _ := GetObject(ch, srv.URLFor("g"))

	slow := goInvoke(ref, "WaitGate")
	select {
	case <-g.started:
	case <-time.After(5 * time.Second):
		t.Fatal("WaitGate never reached the server")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if res, err := ref.Invoke("Open"); err != nil || res != "opened" {
			t.Errorf("Open = %v, %v", res, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Open deadlocked behind WaitGate on its lane")
	}
	if got := <-slow; got.err != nil || got.v != "waited" {
		t.Fatalf("WaitGate = %v, %v", got.v, got.err)
	}
}

// TestLaneCancellationIsolation: with 4 lanes, an abandoned call must
// disturb only its own exchange — the connection of the object's lane, which
// every call here rides, survives (no redials beyond the initial dial) and
// subsequent calls succeed.
func TestLaneCancellationIsolation(t *testing.T) {
	setProcs(t, 4)
	ch, srv, net := newMuxServer(t)
	ch.MuxLanes = 4
	g := newGateService()
	srv.Marshal("g", g)
	ref, _ := GetObject(ch, srv.URLFor("g"))

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := ref.InvokeCtx(ctx, "WaitGate"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	for i := 0; i < 8; i++ {
		if got, err := ref.Invoke("Ping"); err != nil || got != "pong" {
			t.Fatalf("Ping %d after cancellation = %v, %v", i, got, err)
		}
	}
	// Unblock the abandoned handler; its late response is dropped by the
	// lane's reader, without disturbing the calls around it.
	if _, err := ref.Invoke("Open"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if got, err := ref.Invoke("Ping"); err != nil || got != "pong" {
			t.Fatalf("Ping %d after late response = %v, %v", i, got, err)
		}
	}
	if d := net.dials.Load(); d > 4 {
		t.Errorf("dials = %d, want <= 4: cancellation must not kill any lane", d)
	}
}

// TestLaneRedialRebuild: a peer restart kills every lane at once; each lane
// must transparently redial on its next call and rebuild its bound-call
// handles (handles are per-connection, so every lane re-declares).
func TestLaneRedialRebuild(t *testing.T) {
	setProcs(t, 4)
	net := transport.NewMemNetwork()
	ch := NewMultiplexedChannel(net)
	ch.MuxLanes = 4
	defer ch.Close()
	srv, err := ch.ListenAndServe("mem://lanerestart")
	if err != nil {
		t.Fatal(err)
	}
	srv.Marshal("d", &divideServer{})
	ref, _ := GetObject(ch, srv.URLFor("d"))
	for i := 0; i < 8; i++ {
		if _, err := ref.Invoke("Divide", 8.0, 2.0); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close() // peer "restarts": every lane's pipe is now dead
	srv2, err := ch.ListenAndServe("mem://lanerestart")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	srv2.Marshal("d", &divideServer{})
	for i := 0; i < 8; i++ {
		got, err := ref.Invoke("Divide", 9.0, 3.0)
		if err != nil {
			t.Fatalf("call %d after peer restart = %v, want transparent per-lane redial", i, err)
		}
		if got != 3.0 {
			t.Errorf("Divide = %v", got)
		}
	}
}

// TestLaneConcurrentChurn hammers all lanes with a mix of successful calls
// and cancelled ones — the -race workout for the sharded in-flight and
// bind tables under concurrent registration, completion and abandonment.
func TestLaneConcurrentChurn(t *testing.T) {
	setProcs(t, 4)
	ch, srv, _ := newMuxServer(t)
	ch.MuxLanes = 4
	shared := &divideServer{}
	srv.Marshal("d", shared)
	ref, _ := GetObject(ch, srv.URLFor("d"))
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if n%4 == 0 {
					// Already-expired context: registered and abandoned
					// immediately, racing the completions around it.
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					ref.InvokeCtx(ctx, "Divide", 1.0, 1.0) //nolint:errcheck
					continue
				}
				if _, err := ref.Invoke("Divide", 8.0, 2.0); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
