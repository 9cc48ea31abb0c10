package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/errs"
	"repro/internal/remoting"
)

// TestReplicaAtFencesAndDemotesStaleCopy: a promotion census reaching a
// node that still hosts the object at a lower generation must (1) leave a
// copy at an equal-or-higher generation alone, and (2) for a genuinely
// stale copy: fence it, report its last committed (snapshot, dedup) pair,
// deposit that pair in the local replica store, record the generation
// promise, and demote the live actor — the full containment sequence that
// makes a partitioned ex-owner safe to promote past.
func TestReplicaAtFencesAndDemotesStaleCopy(t *testing.T) {
	rts := startNodes(t, 3, nil)
	registerVirtualJournal(rts, VirtualConfig{Replicas: 1})

	p, err := rts[0].VirtualObject("vjournal", "fence0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke("Append", int64(7)); err != nil {
		t.Fatal(err)
	}
	uri := virtualURI("vjournal", "fence0")
	hosts := hostOf(rts, uri)
	if len(hosts) != 1 {
		t.Fatalf("hosted on %v, want one owner", hosts)
	}
	ownerRt := rts[hosts[0]]
	other := rts[(hosts[0]+1)%3]
	ownerRt.actorsMu.Lock()
	w := ownerRt.actors[uri].w
	ownerRt.actorsMu.Unlock()
	gen := w.gen.Load()

	// A census at the copy's own generation is not promoting past it: no
	// fence, no demotion — the copy is the lineage being confirmed.
	ownerRt.replicaAt(uri, gen, other.cfg.NodeID, other.Addr())
	if w.fenced.Load() {
		t.Fatal("census at the copy's own generation fenced it")
	}
	if hosts := hostOf(rts, uri); len(hosts) != 1 || hosts[0] != ownerRt.cfg.NodeID {
		t.Fatalf("hosted on %v after same-generation census, want the owner untouched", hosts)
	}

	// A census one generation ahead IS promoting past this copy.
	info := ownerRt.replicaAt(uri, gen+1, other.cfg.NodeID, other.Addr())
	if !info.Has || info.Gen != gen || info.Seq == 0 {
		t.Fatalf("census answer = %+v, want the live copy's snapshot at gen %d", info, gen)
	}
	if !w.fenced.Load() {
		t.Error("stale live copy not fenced by the census")
	}
	if hosts := hostOf(rts, uri); len(hosts) != 0 {
		t.Errorf("still hosted on %v, want the stale copy demoted", hosts)
	}
	ownerRt.replMu.Lock()
	st := ownerRt.replicas[uri]
	promised := ownerRt.promised[uri]
	ownerRt.replMu.Unlock()
	if st == nil || st.gen != gen {
		t.Errorf("final state not deposited locally (replica = %+v), a failed quorum would lose it", st)
	}
	if promised != gen+1 {
		t.Errorf("promised floor = %d, want %d — older lineages could still deposit", promised, gen+1)
	}
}

// TestPromiseRefusesOlderDeposits: once a census promises a candidate
// generation, snapshot deposits from any older lineage are refused — the
// acknowledgement such a deposit earns is exactly the "durable elsewhere"
// claim the promotion is about to invalidate.
func TestPromiseRefusesOlderDeposits(t *testing.T) {
	rts := startNodes(t, 2, nil)
	registerVirtualJournal(rts, VirtualConfig{Replicas: 1})
	uri := virtualURI("vjournal", "promise0")

	if info := rts[1].replicaAt(uri, 5, 0, rts[0].Addr()); info.Has {
		t.Fatalf("census on a node with no knowledge answered %+v", info)
	}
	if _, err := rts[1].replicateVirtual("vjournal", uri, 4, 1, 0, rts[0].Addr(), []byte("old"), nil, 0); err == nil || !strings.Contains(err.Error(), "superseded") {
		t.Fatalf("deposit below the promised floor: err = %v, want a superseded refusal", err)
	}
	if _, err := rts[1].replicateVirtual("vjournal", uri, 5, 1, 0, rts[0].Addr(), []byte("new"), nil, 0); err != nil {
		t.Fatalf("deposit at the promised generation refused: %v", err)
	}
}

// TestMinorityCensusRefusesToActivate: a node that reaches only itself of
// three cannot promote. Its census misses the majority that every
// acknowledged call's two copies intersect, so it refuses to activate
// rather than resurrect state older than an acknowledgement.
func TestMinorityCensusRefusesToActivate(t *testing.T) {
	rts := startNodes(t, 3, nil)
	registerVirtualJournal(rts, VirtualConfig{Replicas: 1})
	survivor := rts[0]
	for _, rt := range rts[1:] {
		rt.Close()
		markDownOn([]*Runtime{survivor}, rt.cfg.NodeID)
	}

	if _, err := survivor.VirtualObject("vjournal", "minority0"); err == nil || !strings.Contains(err.Error(), "majority required") {
		t.Fatalf("activation on a minority: err = %v, want a majority refusal", err)
	}
	if hosts := hostOf(rts, virtualURI("vjournal", "minority0")); len(hosts) != 0 {
		t.Fatalf("hosted on %v after a refused census, want nowhere", hosts)
	}
}

func drec(seq, stamp uint64) remoting.DedupRecord {
	return remoting.DedupRecord{Client: 1, Seq: seq, Stamp: stamp, Result: int(seq)}
}

// TestReplicateVirtualIncrementalChain pins the receiver half of
// incremental dedup shipping: a delta is applied only onto an intact chain
// (same generation, no stamp gap); anything else is refused with
// needFull=true and WITHOUT applying, so a missed ship can never silently
// hole the replica's dedup memory.
func TestReplicateVirtualIncrementalChain(t *testing.T) {
	rt := startNodes(t, 1, nil)[0]
	registerVirtualJournal([]*Runtime{rt}, VirtualConfig{Replicas: 1})
	uri := virtualURI("vjournal", "chain0")
	ship := func(gen, seq uint64, recs []remoting.DedupRecord, base uint64) (bool, error) {
		return rt.replicateVirtual("vjournal", uri, gen, seq, 9, "mem://x", []byte("s"), recs, base)
	}
	replica := func() *replicaState {
		rt.replMu.Lock()
		defer rt.replMu.Unlock()
		return rt.replicas[uri]
	}

	// A delta with no replica to extend: full resend needed, nothing stored.
	if needFull, err := ship(1, 1, []remoting.DedupRecord{drec(4, 4)}, 3); err != nil || !needFull {
		t.Fatalf("delta onto empty replica = (needFull %v, err %v), want (true, nil)", needFull, err)
	}
	if replica() != nil {
		t.Fatal("refused delta was applied anyway")
	}

	// Full ship: applied, chain established at stamp 3.
	if needFull, err := ship(1, 1, []remoting.DedupRecord{drec(1, 1), drec(2, 2), drec(3, 3)}, 0); err != nil || needFull {
		t.Fatalf("full ship = (needFull %v, err %v), want (false, nil)", needFull, err)
	}
	if st := replica(); st == nil || st.dedupStamp != 3 || st.dedup.Len() != 3 {
		t.Fatalf("after full ship: %+v, want dedupStamp 3 with 3 records", st)
	}

	// A gap (base 8 ahead of the held stamp 3): refused, chain untouched.
	if needFull, err := ship(1, 2, []remoting.DedupRecord{drec(9, 9)}, 8); err != nil || !needFull {
		t.Fatalf("gapped delta = (needFull %v, err %v), want (true, nil)", needFull, err)
	}
	if st := replica(); st.seq != 1 || st.dedupStamp != 3 {
		t.Fatalf("gapped delta mutated the replica: %+v", st)
	}

	// An intact extension: applied on top, stamp advances.
	if needFull, err := ship(1, 2, []remoting.DedupRecord{drec(4, 4), drec(5, 5)}, 3); err != nil || needFull {
		t.Fatalf("chain extension = (needFull %v, err %v), want (false, nil)", needFull, err)
	}
	if st := replica(); st.seq != 2 || st.dedupStamp != 5 || st.dedup.Len() != 5 {
		t.Fatalf("after extension: %+v, want seq 2, dedupStamp 5, 5 records", st)
	}

	// A delta from a NEW generation cannot extend the old chain.
	if needFull, err := ship(2, 1, []remoting.DedupRecord{drec(6, 6)}, 5); err != nil || !needFull {
		t.Fatalf("cross-generation delta = (needFull %v, err %v), want (true, nil)", needFull, err)
	}
	if needFull, err := ship(2, 1, []remoting.DedupRecord{drec(6, 6)}, 0); err != nil || needFull {
		t.Fatalf("full resend at new generation = (needFull %v, err %v), want (false, nil)", needFull, err)
	}

	// A stale generation's ship is an error, not a needFull: the shipper
	// must learn it lost, not resend harder.
	if _, err := ship(1, 3, nil, 0); err == nil || !strings.Contains(err.Error(), "stale snapshot") {
		t.Fatalf("stale-generation ship: err = %v, want a stale refusal", err)
	}
}

// TestClusterCloseReapsRetryingCallers: Runtime.Close during in-flight
// retries must wake every caller sleeping in backoff (via the channel's
// close broadcast) and leave no goroutines behind — a teardown that
// strands callers leaks one goroutine per pending retry for the rest of
// its backoff. The callers call an object of the other node that sheds
// every call with a 10 s retry-after hint, so each sleeps at least that
// long between attempts.
func TestClusterCloseReapsRetryingCallers(t *testing.T) {
	base := runtime.NumGoroutine()
	rts := startNodes(t, 2, func(i int, cfg *Config) {
		cfg.Channel.Retry = remoting.RetryPolicy{MaxAttempts: 1000}
	})
	rts[1].server.Marshal("shedder", shedder{})
	ref := remoting.NewObjRef(rts[0].cfg.Channel, rts[1].Addr(), "shedder")
	const callers = 8
	done := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, err := ref.InvokeCtx(context.Background(), "Ping")
			done <- err
		}()
	}
	time.Sleep(100 * time.Millisecond) // let every caller be shed and enter backoff

	rts[0].Close()
	deadline := time.After(3 * time.Second)
	for i := 0; i < callers; i++ {
		select {
		case err := <-done:
			if err == nil {
				t.Error("invoke against a shedding object succeeded")
			}
		case <-deadline:
			t.Fatalf("%d callers still sleeping in retry backoff after Runtime.Close", callers-i)
		}
	}

	rts[1].Close()
	settleBy := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+3 {
			break
		} else if time.Now().After(settleBy) {
			t.Fatalf("goroutines %d, want back near baseline %d after closing the cluster", n, base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// shedder answers every Ping with ErrOverloaded and a 10 s retry-after hint.
type shedder struct{}

func (shedder) Ping() error {
	return errs.WithRetryAfter(fmt.Errorf("shed: %w", errs.ErrOverloaded), 10*time.Second)
}
