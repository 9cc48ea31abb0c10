package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/errs"
	"repro/internal/remoting"
	"repro/internal/transport"
)

// journalObj is a migratable class: its state is exported so snapshots
// carry it across nodes.
type journalObj struct {
	Vals []int64
}

func (j *journalObj) Append(v int64) { j.Vals = append(j.Vals, v) }

func (j *journalObj) Snapshot() []int64 {
	out := make([]int64, len(j.Vals))
	copy(out, j.Vals)
	return out
}

func (j *journalObj) Len() int { return len(j.Vals) }

// registerJournal registers the class on every node.
func registerJournal(rts []*Runtime) {
	for _, rt := range rts {
		rt.RegisterClass("journal", func() any { return &journalObj{} })
	}
}

func asInt64Slice(t *testing.T, v any) []int64 {
	t.Helper()
	switch x := v.(type) {
	case []int64:
		return x
	case []any:
		out := make([]int64, len(x))
		for i, e := range x {
			n, ok := e.(int64)
			if !ok {
				t.Fatalf("element %d is %T", i, e)
			}
			out[i] = n
		}
		return out
	}
	t.Fatalf("not an int64 slice: %T", v)
	return nil
}

// TestMigrateCarriesState: a migrated object keeps its exported state, the
// load accounting moves with it, the generation bumps, and the old proxy
// keeps working through the tombstone.
func TestMigrateCarriesState(t *testing.T) {
	rts := startNodes(t, 3, func(i int, cfg *Config) {
		cfg.Placement = &forceNode{node: 1}
	})
	registerJournal(rts)
	p, err := rts[0].NewParallelObject("journal")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		p.Post("Append", i)
	}
	p.Wait()
	if rts[1].Load() != 1 {
		t.Fatalf("node 1 load = %d before migration", rts[1].Load())
	}

	if err := rts[1].Migrate(p.URI(), 2); err != nil {
		t.Fatal(err)
	}
	if rts[1].Load() != 0 || rts[2].Load() != 1 {
		t.Errorf("loads after migration: node1=%d node2=%d, want 0/1", rts[1].Load(), rts[2].Load())
	}
	if st := rts[1].Stats(); st.ObjectsMigratedOut != 1 {
		t.Errorf("node1 migrated-out = %d", st.ObjectsMigratedOut)
	}
	if st := rts[2].Stats(); st.ObjectsMigratedIn != 1 {
		t.Errorf("node2 migrated-in = %d", st.ObjectsMigratedIn)
	}
	if loc, ok := rts[1].Lookup(p.URI()); !ok || loc.Node != 2 || loc.Gen != 2 {
		t.Errorf("source directory entry = %+v ok=%v, want node 2 gen 2", loc, ok)
	}

	// The old proxy transparently follows the tombstone (one retry) and
	// sees the carried state.
	got, err := p.Invoke("Snapshot")
	if err != nil {
		t.Fatal(err)
	}
	vals := asInt64Slice(t, got)
	if len(vals) != 5 {
		t.Fatalf("snapshot after migration = %v, want 5 carried values", vals)
	}
	// New calls land on the new host.
	p.Post("Append", 6)
	p.Wait()
	if n, err := p.Invoke("Len"); err != nil || n != 6 {
		t.Fatalf("Len = %v, %v", n, err)
	}
	if p.AsyncErr() != nil {
		t.Errorf("async error: %v", p.AsyncErr())
	}
}

// TestMigrateLocalProxyUpgrades: a proxy whose object was local upgrades
// itself to a remote proxy when the object moves away.
func TestMigrateLocalProxyUpgrades(t *testing.T) {
	rts := startNodes(t, 2, func(i int, cfg *Config) {
		cfg.Placement = LocalOnly{}
	})
	registerJournal(rts)
	p, err := rts[0].NewParallelObject("journal")
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsLocal() {
		t.Fatal("LocalOnly object should start local")
	}
	p.Post("Append", int64(1))
	p.Wait()
	if err := p.Migrate(1); err != nil {
		t.Fatal(err)
	}
	if p.IsLocal() {
		t.Error("proxy should be remote after migrating its object away")
	}
	p.Post("Append", int64(2))
	got, err := p.Invoke("Snapshot")
	if err != nil {
		t.Fatal(err)
	}
	if vals := asInt64Slice(t, got); len(vals) != 2 || vals[0] != 1 || vals[1] != 2 {
		t.Errorf("snapshot = %v, want [1 2]", vals)
	}
	if p.AsyncErr() != nil {
		t.Errorf("async error: %v", p.AsyncErr())
	}
}

// TestMigrateBackHomeThroughStaleHandle: a handle that stayed local while
// its object migrated away (via the runtime, not the handle) can still
// migrate the object back to its origin node by chasing the forward.
func TestMigrateBackHomeThroughStaleHandle(t *testing.T) {
	rts := startNodes(t, 2, func(i int, cfg *Config) {
		cfg.Placement = LocalOnly{}
	})
	registerJournal(rts)
	p, err := rts[0].NewParallelObject("journal")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke("Append", int64(9)); err != nil {
		t.Fatal(err)
	}
	if err := rts[0].Migrate(p.URI(), 1); err != nil {
		t.Fatal(err)
	}
	// The handle never observed the move; bring the object home anyway.
	if err := p.Migrate(0); err != nil {
		t.Fatal(err)
	}
	if rts[0].Load() != 1 || rts[1].Load() != 0 {
		t.Errorf("loads after migrate-home: %d/%d, want 1/0", rts[0].Load(), rts[1].Load())
	}
	if n, err := p.Invoke("Len"); err != nil || n != 1 {
		t.Errorf("object after round trip: Len = %v, %v", n, err)
	}
}

// TestMigrateUnderConcurrentCallers is the acceptance race test: callers
// on two nodes hammer one object through their own proxies while it
// live-migrates; zero calls may be lost and each caller's stream must stay
// in order (callers observe at most one transparent retry, i.e. no
// errors).
func TestMigrateUnderConcurrentCallers(t *testing.T) {
	rts := startNodes(t, 3, func(i int, cfg *Config) {
		cfg.Placement = &forceNode{node: 1}
	})
	registerJournal(rts)
	p, err := rts[0].NewParallelObject("journal")
	if err != nil {
		t.Fatal(err)
	}
	ref := p.Ref()

	const callers = 6
	const perCaller = 120
	var wg sync.WaitGroup
	errc := make(chan error, callers)
	start := make(chan struct{})
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Every caller gets its own proxy; half attach from node 2.
			rt := rts[0]
			if c%2 == 1 {
				rt = rts[2]
			}
			cp := rt.Attach(ref)
			<-start
			for i := 0; i < perCaller; i++ {
				tag := int64(c)*1_000_000 + int64(i)
				if c%3 == 0 {
					// Ordered asynchronous stream.
					cp.Post("Append", tag)
				} else if _, err := cp.Invoke("Append", tag); err != nil {
					errc <- fmt.Errorf("caller %d call %d: %w", c, i, err)
					return
				}
			}
			cp.Wait()
			if err := cp.AsyncErr(); err != nil {
				errc <- fmt.Errorf("caller %d async: %w", c, err)
			}
		}(c)
	}
	close(start)
	// Migrate mid-stream, twice: node1 → node2 → node0.
	time.Sleep(5 * time.Millisecond)
	if err := rts[1].Migrate(p.URI(), 2); err != nil {
		t.Error(err)
	}
	time.Sleep(5 * time.Millisecond)
	if err := rts[2].Migrate(p.URI(), 0); err != nil {
		t.Error(err)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	got, err := p.Invoke("Snapshot")
	if err != nil {
		t.Fatal(err)
	}
	vals := asInt64Slice(t, got)
	if len(vals) != callers*perCaller {
		t.Fatalf("journal has %d entries, want %d (lost or duplicated calls)", len(vals), callers*perCaller)
	}
	// Per-caller order must be strictly increasing; no duplicates.
	last := map[int64]int64{}
	for _, v := range vals {
		c, i := v/1_000_000, v%1_000_000
		if prev, ok := last[c]; ok && i <= prev {
			t.Fatalf("caller %d: call %d executed after %d (misordered)", c, i, prev)
		}
		last[c] = i
	}
}

// TestMigrateBoundHandleInvalidation: over the multiplexed channel calls
// travel as bound compact envelopes; after a migration the cached handle
// must re-resolve through the bumped registration generation and observe
// the forward rather than stale dispatch.
func TestMigrateBoundHandleInvalidation(t *testing.T) {
	net := transport.NewMemNetwork()
	rts := make([]*Runtime, 3)
	addrs := make([]string, 3)
	for i := range rts {
		rt, err := Start(Config{NodeID: i, Channel: remoting.NewMultiplexedChannel(net), Placement: &forceNode{node: 1}},
			fmt.Sprintf("mem://mux%d", i))
		if err != nil {
			t.Fatal(err)
		}
		rts[i] = rt
		addrs[i] = rt.Addr()
		t.Cleanup(rt.Close)
	}
	for _, rt := range rts {
		if err := rt.JoinCluster(addrs); err != nil {
			t.Fatal(err)
		}
	}
	registerJournal(rts)
	p, err := rts[0].NewParallelObject("journal")
	if err != nil {
		t.Fatal(err)
	}
	// Bind the (URI, Invoke1, Append) and (URI, Invoke1, Len) handles with
	// a few calls.
	for i := int64(0); i < 8; i++ {
		if _, err := p.Invoke("Append", i); err != nil {
			t.Fatal(err)
		}
		if n, err := p.Invoke("Len"); err != nil || n != int(i)+1 {
			t.Fatalf("Len = %v, %v", n, err)
		}
	}
	if err := rts[1].Migrate(p.URI(), 2); err != nil {
		t.Fatal(err)
	}
	// The next bound call hits the tombstone through the same handle and
	// must transparently re-route.
	if n, err := p.Invoke("Len"); err != nil || n != 8 {
		t.Fatalf("Len after migration = %v, %v", n, err)
	}
}

// TestFailoverResolveAfterHostDeath: a caller holding a stale location
// re-resolves through surviving peers when the old host is gone entirely
// (tombstone and all).
func TestFailoverResolveAfterHostDeath(t *testing.T) {
	rts := startNodes(t, 3, func(i int, cfg *Config) {
		cfg.Placement = &forceNode{node: 1}
	})
	registerJournal(rts)
	p, err := rts[0].NewParallelObject("journal")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke("Append", int64(7)); err != nil {
		t.Fatal(err)
	}
	ref := p.Ref() // still points at node 1

	if err := rts[1].Migrate(p.URI(), 2); err != nil {
		t.Fatal(err)
	}
	rts[1].Close() // the old host dies, taking its tombstone with it

	// A fresh attach from the stale ref dials the dead node, gets
	// ErrNodeDown, and must re-resolve through a surviving peer's OM.
	stale := rts[0].Attach(ref)
	got, err := stale.Invoke("Len")
	if err != nil {
		t.Fatalf("stale proxy after host death: %v", err)
	}
	if got != 1 {
		t.Errorf("Len = %v, want 1", got)
	}
}

// TestDestroyStaleLocalProxyChasesForward: a proxy that was local when
// its object migrated away (and never observed the forward through a
// call) must still destroy the live copy, not just the local tombstone.
func TestDestroyStaleLocalProxyChasesForward(t *testing.T) {
	rts := startNodes(t, 2, func(i int, cfg *Config) {
		cfg.Placement = LocalOnly{}
	})
	registerJournal(rts)
	p, err := rts[0].NewParallelObject("journal")
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsLocal() {
		t.Fatal("want local proxy")
	}
	// Migrate through the runtime, not the proxy, so the handle stays in
	// local mode with a dead actor.
	if err := rts[0].Migrate(p.URI(), 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Destroy(); err != nil {
		t.Fatal(err)
	}
	if rts[1].Load() != 0 {
		t.Errorf("live copy leaked on node 1: load = %d", rts[1].Load())
	}
}

// TestDoubleDestroyIsIdempotent: destroying an already-destroyed object
// (through local and remote handles alike) reports success, as it did
// before proxies became re-routable.
func TestDoubleDestroyIsIdempotent(t *testing.T) {
	rts := startNodes(t, 2, func(i int, cfg *Config) {
		cfg.Placement = LocalOnly{}
	})
	p, err := rts[0].NewParallelObject("counter")
	if err != nil {
		t.Fatal(err)
	}
	other := rts[1].Attach(p.Ref())
	if err := p.Destroy(); err != nil {
		t.Fatal(err)
	}
	if err := p.Destroy(); err != nil {
		t.Errorf("second destroy through local handle: %v", err)
	}
	if err := other.Destroy(); err != nil {
		t.Errorf("destroy through remote handle after destruction: %v", err)
	}
}

// TestMigrateErrors: unknown URIs, unknown targets and double migration of
// a departed object fail with typed errors.
func TestMigrateErrors(t *testing.T) {
	rts := startNodes(t, 2, func(i int, cfg *Config) {
		cfg.Placement = LocalOnly{}
	})
	registerJournal(rts)
	if err := rts[0].Migrate("obj/none/0/99", 1); !errors.Is(err, errs.ErrObjectDestroyed) {
		t.Errorf("migrating unknown URI: %v", err)
	}
	p, err := rts[0].NewParallelObject("journal")
	if err != nil {
		t.Fatal(err)
	}
	if err := rts[0].Migrate(p.URI(), 7); err == nil {
		t.Error("migrating to unknown node should fail")
	}
	if err := rts[0].Migrate(p.URI(), 1); err != nil {
		t.Fatal(err)
	}
	// The object departed: a second local migration reports the forward.
	err = rts[0].Migrate(p.URI(), 1)
	var mv *errs.MovedError
	if !errors.As(err, &mv) || mv.Node != 1 {
		t.Errorf("re-migrating departed object: %v", err)
	}
	if !errors.Is(err, errs.ErrObjectMoved) {
		t.Errorf("forward does not unwrap to ErrObjectMoved: %v", err)
	}
}

// TestConcurrentMigrationsSerialized: two racing migrations of one object
// cannot both commit — the actor's pause claim admits one at a time, so
// exactly one copy exists afterwards and the loser reports a typed error
// (already-moved or migration-in-progress).
func TestConcurrentMigrationsSerialized(t *testing.T) {
	for round := 0; round < 10; round++ {
		rts := startNodes(t, 3, func(i int, cfg *Config) {
			cfg.Placement = LocalOnly{}
		})
		registerJournal(rts)
		p, err := rts[0].NewParallelObject("journal")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Invoke("Append", int64(1)); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		results := make([]error, 2)
		for i, to := range []int{1, 2} {
			wg.Add(1)
			go func(i, to int) {
				defer wg.Done()
				results[i] = rts[0].Migrate(p.URI(), to)
			}(i, to)
		}
		wg.Wait()
		wins := 0
		for _, err := range results {
			if err == nil {
				wins++
			}
		}
		if wins != 1 {
			t.Fatalf("round %d: %d migrations committed (errors: %v)", round, wins, results)
		}
		if total := rts[0].Load() + rts[1].Load() + rts[2].Load(); total != 1 {
			t.Fatalf("round %d: %d live copies across the cluster", round, total)
		}
		if n, err := p.Invoke("Len"); err != nil || n != 1 {
			t.Fatalf("round %d: object after race: Len = %v, %v", round, n, err)
		}
	}
}

// TestAcceptObjectDuplicateAndStale: the receiving half of a migration is
// idempotent against the channel's at-most-once retry caveat — a
// duplicate transfer reports success without re-creating, and a stale
// duplicate arriving after the object moved onward must not resurrect old
// state over the forwarding tombstone.
func TestAcceptObjectDuplicateAndStale(t *testing.T) {
	rts := startNodes(t, 3, func(i int, cfg *Config) {
		cfg.Placement = &forceNode{node: 1}
	})
	registerJournal(rts)
	p, err := rts[0].NewParallelObject("journal")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke("Append", int64(1)); err != nil {
		t.Fatal(err)
	}
	if err := rts[1].Migrate(p.URI(), 2); err != nil {
		t.Fatal(err)
	}
	// Duplicate of the just-applied transfer (same gen): success, no
	// double-create.
	if _, err := rts[2].acceptObject("journal", p.URI(), 2, nil); err != nil {
		t.Fatalf("duplicate accept: %v", err)
	}
	if rts[2].Load() != 1 {
		t.Fatalf("duplicate accept changed load to %d", rts[2].Load())
	}
	// Move onward; then replay the gen-2 transfer against node 2, which
	// now only holds a tombstone. The stale state must not come back.
	if err := rts[2].Migrate(p.URI(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := rts[2].acceptObject("journal", p.URI(), 2, nil); err != nil {
		t.Fatalf("stale accept: %v", err)
	}
	if rts[2].Load() != 0 {
		t.Errorf("stale accept resurrected an object: node 2 load = %d", rts[2].Load())
	}
	if loc, _ := rts[2].Lookup(p.URI()); loc.Node != 0 || loc.Gen != 3 {
		t.Errorf("tombstone lost: node 2 directory = %+v", loc)
	}
	if n, err := p.Invoke("Len"); err != nil || n != 1 {
		t.Errorf("object after stale replay: Len = %v, %v", n, err)
	}
}

// TestAbortAcceptOrdering: a migration compensation must win regardless
// of the order it executes in relative to the transfer it undoes —
// abort-then-accept refuses the accept, accept-then-abort destroys the
// committed copy, and a newer-generation transfer clears the marker.
func TestAbortAcceptOrdering(t *testing.T) {
	rts := startNodes(t, 2, func(i int, cfg *Config) {
		cfg.Placement = LocalOnly{}
	})
	registerJournal(rts)
	uri := "obj/journal/0/77"

	// Abort first (the compensation outran the transfer): the accept at
	// that generation must refuse.
	rts[1].abortAccept(uri, 2)
	if _, err := rts[1].acceptObject("journal", uri, 2, nil); err == nil {
		t.Fatal("accept after abort committed")
	}
	if rts[1].Load() != 0 {
		t.Fatalf("aborted accept left load %d", rts[1].Load())
	}

	// Accept first, abort second: the committed copy is destroyed.
	if _, err := rts[1].acceptObject("journal", uri, 3, nil); err != nil {
		t.Fatal(err)
	}
	if rts[1].Load() != 1 {
		t.Fatalf("accept did not commit: load %d", rts[1].Load())
	}
	rts[1].abortAccept(uri, 3)
	if rts[1].Load() != 0 {
		t.Fatalf("abort did not destroy the committed copy: load %d", rts[1].Load())
	}

	// A fresh-generation transfer (the source burned gen 3 and retried)
	// commits and clears the marker.
	if _, err := rts[1].acceptObject("journal", uri, 4, nil); err != nil {
		t.Fatal(err)
	}
	if rts[1].Load() != 1 {
		t.Fatalf("retry at burned+1 generation refused: load %d", rts[1].Load())
	}
	rts[1].abortMu.Lock()
	_, lingering := rts[1].aborts[uri]
	rts[1].abortMu.Unlock()
	if lingering {
		t.Error("abort marker not cleared by newer-generation commit")
	}
}

// TestDestroyThroughTombstone: destroying via a proxy that still routes at
// the old host chases the forward and releases the live object.
func TestDestroyThroughTombstone(t *testing.T) {
	rts := startNodes(t, 3, func(i int, cfg *Config) {
		cfg.Placement = &forceNode{node: 1}
	})
	registerJournal(rts)
	p, err := rts[0].NewParallelObject("journal")
	if err != nil {
		t.Fatal(err)
	}
	stale := rts[0].Attach(p.Ref()) // routes at node 1
	if err := rts[1].Migrate(p.URI(), 2); err != nil {
		t.Fatal(err)
	}
	if err := stale.DestroyCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rts[2].Load() != 0 {
		t.Errorf("node 2 load after destroy-through-tombstone = %d", rts[2].Load())
	}
	if _, err := p.Invoke("Len"); err == nil {
		t.Error("invoke after destroy should fail")
	}
}
