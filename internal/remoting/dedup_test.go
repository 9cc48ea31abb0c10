package remoting

import (
	"fmt"
	"testing"
)

func tok(seq uint64) CallToken { return CallToken{Client: 1, Seq: seq} }

func rep(v int) DedupReply { return DedupReply{Result: v} }

// TestDedupReplay: a recorded token replays its reply; an unknown one
// misses.
func TestDedupReplay(t *testing.T) {
	l := NewDedupLRU(4)
	l.Put(tok(1), rep(10))
	got, ok := l.Get(tok(1))
	if !ok || got.Result != 10 {
		t.Fatalf("Get(recorded) = (%v, %v), want (10, true)", got.Result, ok)
	}
	if _, ok := l.Get(tok(2)); ok {
		t.Error("Get(unknown token) hit")
	}
}

// TestDedupEvictionBound: the LRU never exceeds its cap, evicts strictly
// oldest-first, and keeps exactly the newest cap entries under churn.
func TestDedupEvictionBound(t *testing.T) {
	const cap = 4
	l := NewDedupLRU(cap)
	for i := uint64(1); i <= 10; i++ {
		l.Put(tok(i), rep(int(i)))
		if n := l.Len(); n > cap {
			t.Fatalf("Len = %d after %d puts, cap is %d", n, i, cap)
		}
	}
	for i := uint64(1); i <= 6; i++ {
		if _, ok := l.Get(tok(i)); ok {
			t.Errorf("token %d still present, should have been evicted", i)
		}
	}
	for i := uint64(7); i <= 10; i++ {
		if _, ok := l.Get(tok(i)); !ok {
			t.Errorf("token %d evicted, want the newest %d retained", i, cap)
		}
	}
}

// TestDedupGetRefreshesRecency: a replayed (hit) entry moves to the front
// of the eviction order — retries must not evict the very records they
// depend on.
func TestDedupGetRefreshesRecency(t *testing.T) {
	l := NewDedupLRU(3)
	for i := uint64(1); i <= 3; i++ {
		l.Put(tok(i), rep(int(i)))
	}
	l.Get(tok(1))         // refresh the oldest
	l.Put(tok(4), rep(4)) // evicts 2 (now oldest), not 1
	if _, ok := l.Get(tok(1)); !ok {
		t.Error("refreshed token 1 was evicted")
	}
	if _, ok := l.Get(tok(2)); ok {
		t.Error("token 2 survived, want it evicted as the oldest")
	}
}

// TestDedupExportSince: stamps are monotonic, a full export covers the
// counter, and an incremental export carries exactly the records touched
// after the base — including re-touched (replayed) ones.
func TestDedupExportSince(t *testing.T) {
	l := NewDedupLRU(8)
	for i := uint64(1); i <= 3; i++ {
		l.Put(tok(i), rep(int(i)))
	}
	full, upTo := l.ExportSince(0)
	if len(full) != 3 {
		t.Fatalf("full export has %d records, want 3", len(full))
	}
	for i := 1; i < len(full); i++ {
		if full[i].Stamp <= full[i-1].Stamp {
			t.Fatalf("export not stamp-ascending: %d then %d", full[i-1].Stamp, full[i].Stamp)
		}
	}
	if full[len(full)-1].Stamp != upTo {
		t.Errorf("newest record stamp %d != export counter %d", full[len(full)-1].Stamp, upTo)
	}

	// Nothing touched since: the delta is empty and the counter unmoved.
	delta, upTo2 := l.ExportSince(upTo)
	if len(delta) != 0 || upTo2 != upTo {
		t.Fatalf("ExportSince(head) = %d records, counter %d, want 0 records at %d", len(delta), upTo2, upTo)
	}

	// One new put and one replay: the delta is exactly those two.
	l.Put(tok(4), rep(4))
	l.Get(tok(2)) // replay restamps, so a mirroring replica re-learns its recency
	delta, upTo3 := l.ExportSince(upTo)
	if len(delta) != 2 {
		t.Fatalf("delta has %d records, want 2 (one put, one replayed)", len(delta))
	}
	if delta[0].Seq != 4 || delta[1].Seq != 2 {
		t.Errorf("delta tokens = %d, %d, want 4 then 2 (recency order)", delta[0].Seq, delta[1].Seq)
	}
	if upTo3 <= upTo {
		t.Error("export counter did not advance")
	}
}

// TestDedupImportMirrorsEviction: replaying exports into a second LRU of
// the same cap reproduces the owner's surviving token set and eviction
// order — the property replica promotion depends on.
func TestDedupImportMirrorsEviction(t *testing.T) {
	const cap = 8
	owner := NewDedupLRU(cap)
	replica := NewDedupLRU(cap)
	var base uint64
	for i := uint64(1); i <= 40; i++ {
		owner.Put(tok(i), rep(int(i)))
		if i%2 == 0 {
			owner.Get(tok(i - 1)) // interleave replays to shuffle recency
		}
		if i%5 == 0 { // periodic incremental ship
			delta, upTo := owner.ExportSince(base)
			replica.Import(delta)
			base = upTo
		}
	}
	delta, _ := owner.ExportSince(base)
	replica.Import(delta)

	ownerRecs := owner.Export()
	replicaRecs := replica.Export()
	if len(ownerRecs) != len(replicaRecs) {
		t.Fatalf("replica has %d records, owner %d", len(replicaRecs), len(ownerRecs))
	}
	for i := range ownerRecs {
		if ownerRecs[i].Client != replicaRecs[i].Client || ownerRecs[i].Seq != replicaRecs[i].Seq {
			t.Fatalf("eviction order diverged at %d: owner %v, replica %v",
				i, ownerRecs[i].Seq, replicaRecs[i].Seq)
		}
	}
}

// TestDedupNilSafety: every method on a nil LRU is a no-op — objects
// without idempotency wiring pass nil through the call path.
func TestDedupNilSafety(t *testing.T) {
	var l *DedupLRU
	l.Put(tok(1), rep(1))
	if _, ok := l.Get(tok(1)); ok {
		t.Error("nil LRU returned a hit")
	}
	if l.Len() != 0 {
		t.Error("nil LRU has non-zero length")
	}
	if recs, upTo := l.ExportSince(0); recs != nil || upTo != 0 {
		t.Error("nil LRU exported records")
	}
	l.Import([]DedupRecord{{Client: 1, Seq: 1}})
}

// TestDedupZeroTokenIgnored: the zero token means "no idempotency"; it must
// never be recorded or matched.
func TestDedupZeroTokenIgnored(t *testing.T) {
	l := NewDedupLRU(4)
	l.Put(CallToken{}, rep(1))
	if l.Len() != 0 {
		t.Error("zero token was recorded")
	}
	if _, ok := l.Get(CallToken{}); ok {
		t.Error("zero token hit")
	}
}

func BenchmarkDedupIncrementalExport(b *testing.B) {
	l := NewDedupLRU(16384)
	for i := uint64(0); i < 16384; i++ {
		l.Put(tok(i), rep(int(i)))
	}
	var base uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Put(tok(uint64(20000+i)), rep(i))
		recs, upTo := l.ExportSince(base)
		if len(recs) == 0 {
			b.Fatal("empty delta")
		}
		base = upTo
	}
	_ = fmt.Sprint(base)
}

// FuzzDedupStamps drives a primary LRU with a byte stream of Puts and Gets
// and mirrors it, after every operation, into a replica through the
// incremental export a synchronous ship carries (ExportSince the stamp the
// replica acknowledged, Import, advance). The first byte picks the cap
// (1-4); each later byte is one operation: bit 0 Get (1) or Put (0), bits
// 1-3 the token's Seq and bit 4 its Client, 16 tokens in all, so Gets hit and
// Puts evict. After every operation the replica holds the primary's tokens in
// the primary's order with the primary's replies, every export's stamps rise
// strictly, and neither LRU holds more than its cap.
func FuzzDedupStamps(f *testing.F) {
	f.Add([]byte{1, 0x00, 0x02, 0x01, 0x04})       // cap 2: put A, put B, get A, put C evicts B
	f.Add([]byte{0, 0x00, 0x00, 0x01, 0x02, 0x03}) // cap 1: a repeated put, a hit, a miss
	f.Add([]byte{3, 0x00, 0x02, 0x04, 0x06, 0x01, 0x03, 0x08, 0x0a, 0x05, 0x1e, 0x1f})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		limit := 1 + int(ops[0]%4)
		primary, replica := NewDedupLRU(limit), NewDedupLRU(limit)
		var ack uint64
		rising := func(what string, recs []DedupRecord) {
			for i := 1; i < len(recs); i++ {
				if recs[i].Stamp <= recs[i-1].Stamp {
					t.Fatalf("%s: stamp %d after %d", what, recs[i].Stamp, recs[i-1].Stamp)
				}
			}
		}
		for i, b := range ops[1:] {
			tk := CallToken{Client: 1 + uint64(b>>4&1), Seq: 1 + uint64(b>>1&7)}
			if b&1 == 1 {
				primary.Get(tk)
			} else {
				primary.Put(tk, rep(i))
			}
			delta, upTo := primary.ExportSince(ack)
			rising("delta", delta)
			replica.Import(delta)
			ack = upTo

			want, got := primary.Export(), replica.Export()
			rising("primary", want)
			rising("replica", got)
			if len(got) != len(want) {
				t.Fatalf("op %d: replica holds %d records, primary %d", i, len(got), len(want))
			}
			for j := range want {
				if got[j].Client != want[j].Client || got[j].Seq != want[j].Seq || got[j].Result != want[j].Result {
					t.Fatalf("op %d: record %d is %d/%d=%v on the replica, %d/%d=%v on the primary",
						i, j, got[j].Client, got[j].Seq, got[j].Result, want[j].Client, want[j].Seq, want[j].Result)
				}
			}
			if n := primary.Len(); n > limit {
				t.Fatalf("op %d: primary holds %d, cap %d", i, n, limit)
			}
			if n := replica.Len(); n > limit {
				t.Fatalf("op %d: replica holds %d, cap %d", i, n, limit)
			}
		}
	})
}
