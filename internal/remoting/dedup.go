// Dedup LRU: the server-side half of effectively-once calls.
//
// Each object runtime keeps a bounded LRU of (call token → recorded reply).
// A retried call whose token is present returns the recorded reply instead
// of executing again — the retry may arrive over a different connection, a
// different channel, or (after a failover) at a promoted replica on a
// different node, because the records travel with replicated state
// (DedupRecord is wire-registered for exactly that trip).
//
// The cap bounds memory under token churn: one entry per remembered call,
// oldest evicted first. A token evicted before its retry arrives degrades
// to the historical at-least-once behaviour — the window is sized so that
// retries within any sane policy's deadline budget land well inside it.
package remoting

import (
	"sync"

	"repro/internal/wire"
)

// DedupReply is the recorded outcome of an executed call: enough to rebuild
// the reply envelope without re-executing.
type DedupReply struct {
	Result  any
	ErrMsg  string
	ErrCode string
	IsErr   bool
}

// DedupRecord is one exported LRU entry; it crosses the wire with
// replicated object state so a promoted replica inherits the executed-call
// memory of the failed owner. Stamp is the LRU's monotonic write counter
// at the entry's last touch: incremental replication ships only records
// stamped after what the receiver acknowledged, instead of the whole LRU
// on every synchronous snapshot.
type DedupRecord struct {
	Client  uint64
	Seq     uint64
	Stamp   uint64
	Result  any
	ErrMsg  string
	ErrCode string
	IsErr   bool
}

func init() {
	wire.RegisterName("remoting.DedupRecord", DedupRecord{})
}

// defaultDedupPerObject is the per-object LRU cap when the configuration
// leaves it zero.
const defaultDedupPerObject = 256

type dedupNode struct {
	tok        CallToken
	reply      DedupReply
	stamp      uint64
	prev, next *dedupNode
}

// DedupLRU is a bounded most-recently-used map of call tokens to recorded
// replies. Safe for concurrent use.
type DedupLRU struct {
	mu      sync.Mutex
	cap     int
	stamp   uint64 // monotonic write counter, see DedupRecord.Stamp
	entries map[CallToken]*dedupNode
	head    *dedupNode // most recently used
	tail    *dedupNode // next eviction victim
}

// NewDedupLRU returns an LRU bounded to cap entries (cap <= 0 selects
// defaultDedupPerObject).
func NewDedupLRU(cap int) *DedupLRU {
	if cap <= 0 {
		cap = defaultDedupPerObject
	}
	return &DedupLRU{cap: cap, entries: make(map[CallToken]*dedupNode)}
}

// Get returns the recorded reply for tok, refreshing its recency.
func (l *DedupLRU) Get(tok CallToken) (DedupReply, bool) {
	if l == nil || tok.Zero() {
		return DedupReply{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.entries[tok]
	if n == nil {
		return DedupReply{}, false
	}
	l.unlink(n)
	l.pushFront(n)
	// A hit refreshes recency, which changes the future eviction order; the
	// restamp makes the next incremental export carry the entry again, so a
	// replica mirroring the exports keeps the same eviction order too.
	l.stamp++
	n.stamp = l.stamp
	return n.reply, true
}

// Put records the reply for tok, evicting the oldest entry past the cap.
func (l *DedupLRU) Put(tok CallToken, reply DedupReply) {
	if l == nil || tok.Zero() {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stamp++
	if n := l.entries[tok]; n != nil {
		n.reply = reply
		n.stamp = l.stamp
		l.unlink(n)
		l.pushFront(n)
		return
	}
	n := &dedupNode{tok: tok, reply: reply, stamp: l.stamp}
	l.entries[tok] = n
	l.pushFront(n)
	for len(l.entries) > l.cap {
		victim := l.tail
		l.unlink(victim)
		delete(l.entries, victim.tok)
	}
}

// Len returns the number of recorded entries.
func (l *DedupLRU) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Export snapshots the entries oldest-first, so a receiver replaying them
// through Import reproduces the same recency order (and the same future
// eviction order).
func (l *DedupLRU) Export() []DedupRecord {
	recs, _ := l.ExportSince(0)
	return recs
}

// ExportSince snapshots the entries touched after the given stamp,
// oldest-recency-first, and returns the write counter the export covers
// through. A sender that remembers what a receiver acknowledged ships only
// the records the receiver is missing; ExportSince(0) is the full export.
func (l *DedupLRU) ExportSince(after uint64) ([]DedupRecord, uint64) {
	if l == nil {
		return nil, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []DedupRecord
	for n := l.tail; n != nil; n = n.prev {
		if n.stamp <= after {
			continue
		}
		out = append(out, DedupRecord{
			Client:  n.tok.Client,
			Seq:     n.tok.Seq,
			Stamp:   n.stamp,
			Result:  n.reply.Result,
			ErrMsg:  n.reply.ErrMsg,
			ErrCode: n.reply.ErrCode,
			IsErr:   n.reply.IsErr,
		})
	}
	return out, l.stamp
}

// Import replays exported records (oldest-first) into the LRU.
func (l *DedupLRU) Import(recs []DedupRecord) {
	if l == nil {
		return
	}
	for _, r := range recs {
		l.Put(CallToken{Client: r.Client, Seq: r.Seq}, DedupReply{
			Result:  r.Result,
			ErrMsg:  r.ErrMsg,
			ErrCode: r.ErrCode,
			IsErr:   r.IsErr,
		})
	}
}

func (l *DedupLRU) unlink(n *dedupNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (l *DedupLRU) pushFront(n *dedupNode) {
	n.next = l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}
