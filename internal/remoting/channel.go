package remoting

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/errs"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// Channel is a configured remoting channel bound to a transport network. A
// single Channel value serves both roles: clients call GetObject/Invoke
// through it and servers call ListenAndServe on it, mirroring
// ChannelServices.RegisterChannel making one channel object serve both
// directions. It also holds the counters of the node it serves (Metrics).
type Channel struct {
	net     transport.Network
	metrics metrics.Registry

	// records, frames and encoders are the audits the channel's calls and
	// its servers count in (CountRecord, countFrame, outFrame): the ones
	// installed when it was made (AuditRecords; frameAudit and encoderAudit
	// in tests), nil in production.
	records  *recordCounts
	frames   *frameCounts
	encoders *encoderCounts

	// MaxInFlight bounds concurrent exchanges per multiplexed lane; calls
	// beyond the bound wait in the lane's admission queue, in order, until
	// a slot frees. Zero selects DefaultMaxInFlight. The bound is per lane:
	// a channel with N lanes admits up to N×MaxInFlight concurrent
	// exchanges per peer.
	MaxInFlight int

	// MuxLanes sets how many multiplexed connections (lanes) the channel
	// opens per peer address, each with its own writer goroutine and
	// in-flight table; a peer's objects are striped across lanes, every call
	// to one object riding one lane, so calls to unrelated objects never
	// share a lock or a TCP stream. Zero selects defaultMuxLanes
	// (min(GOMAXPROCS, 4)); 1 restores the single-connection behaviour.
	MuxLanes int

	// Retry, when enabled (MaxAttempts > 1), applies the retry/backoff
	// loop to ObjRef.InvokeCtx calls (retry.go). Set it before the first
	// call, like the other configuration fields.
	Retry RetryPolicy

	seq atomic.Uint64

	// tokClient/tokSeq back NewCallToken (token.go).
	tokClient atomic.Uint64
	tokSeq    atomic.Uint64

	// closeMu guards backoffs, the retries waiting out their delay
	// (Backoff), which Close ends.
	closeMu  sync.Mutex
	backoffs map[*Backoff]struct{}

	// dialMu guards dialPeers, the channel's one per-peer breaker: the dial
	// backoff shared by every lane to a peer (so a dead peer is probed by
	// one capped, jittered schedule instead of a redial storm).
	dialMu    sync.Mutex
	dialPeers map[string]*dialBackoff

	muxMu    sync.Mutex
	muxPeers map[muxKey]*muxConn
}

// NewMultiplexedChannel returns a channel over net: one long-lived
// connection per lane and peer multiplexes many concurrent calls, matched by
// sequence number and completing in any order.
func NewMultiplexedChannel(net transport.Network) *Channel {
	return &Channel{net: net, records: recordAudit.Load(), frames: frameAudit.Load(), encoders: encoderAudit.Load()}
}

// Metrics returns the channel's counters: its servers count into them, and
// so does the runtime the channel serves.
func (ch *Channel) Metrics() *metrics.Registry { return &ch.metrics }

// urlScheme is the scheme of the URLs buildURL makes for the channel's
// objects (self-describing addresses such as mem:// keep their own).
const urlScheme = "tcp"

// nextSeq allocates a call sequence number.
func (ch *Channel) nextSeq() uint64 { return ch.seq.Add(1) }

// laneCount resolves the effective mux lane count (see MuxLanes).
func (ch *Channel) laneCount() int {
	n := ch.MuxLanes
	if n == 0 {
		n = defaultMuxLanes()
	}
	if n < 1 {
		n = 1
	}
	if n > maxMuxLanes {
		n = maxMuxLanes
	}
	return n
}

// laneForURI is the one lane rule: calls are striped by destination object.
// Every call to one object rides one lane, blocking or completion-driven, so
// a scatter round's frames to that object coalesce into the lane writer's
// batched wire writes, and per-object send order falls out of the single
// ordered outbound queue.
func (ch *Channel) laneForURI(uri string) int {
	n := ch.laneCount()
	if n <= 1 {
		return 0
	}
	return int(fnv1a(fnvOffset, uri) % uint32(n))
}

// fnvOffset is the 32-bit FNV-1a offset basis, the hash of no bytes.
const fnvOffset = 2166136261

// fnv1a folds s into h, a 32-bit FNV-1a hash: the hash of the lane rule and
// of the bind table's stripes.
func fnv1a(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// recycleFrame applies the one ownership rule for receive frames, on the
// server and the client alike: a frame that decoded values alias is
// forgotten, the GC owns it, so whoever still reaches an argument or a
// result (a method that keeps its []byte parameter, a caller holding a
// result, a dedup record) keeps valid memory and nothing is received into it
// again; a frame nothing aliases goes back at once to the connection it was
// received on (transport.ReleaseFrame). audit is what countFrame returned
// when the frame was received.
func recycleFrame(audit *frameCounts, from transport.Conn, raw []byte, borrowed bool) {
	if borrowed {
		audit.add(frameBorrowed)
		return
	}
	audit.add(frameBack)
	if framePoison.Load() {
		all := raw[:cap(raw)]
		for i := range all {
			all[i] = poisonByte
		}
	}
	transport.ReleaseFrame(from, raw)
}

// framePoison, when a test sets it, has recycleFrame overwrite every frame it
// hands back with poisonByte: a value that still aliases a recycled frame
// then fails its payload check every time, not only when a later receive
// happens to land on it. Nothing sets it in production.
var framePoison atomic.Bool

const poisonByte = 0xDB

// frameAudit, when a test installs one, is the frame audit of the channels
// made from then on (NewMultiplexedChannel), as recordAudit is for records:
// the channel's two read loops count every frame they were handed
// (countFrame) and recycleFrame what became of it, so that a frame an
// earlier test's channel receives is not counted; out must equal back plus
// borrowed once everything is closed. Nothing installs or reads it in
// production.
var frameAudit atomic.Pointer[frameCounts]

type frameCounts [3]atomic.Int64

const (
	frameOut = iota
	frameBack
	frameBorrowed
)

// add counts event; on a nil audit it does nothing.
func (a *frameCounts) add(event int) {
	if a != nil {
		a[event].Add(1)
	}
}

// countFrame counts a frame a read loop was handed on a, its channel's frame
// audit, and returns a, for recycleFrame.
func countFrame(a *frameCounts) *frameCounts {
	a.add(frameOut)
	return a
}

// dial opens a fresh connection. Dials to a peer that recently refused one
// are gated by the peer's shared backoff entry (see dialBackoff), so a dead
// peer is probed on one capped, jittered schedule no matter how many
// callers and lanes want it. A bypassed dial (WithoutBreaker) skips the
// gate but records its outcome like any other.
func (ch *Channel) dial(netaddr string, bypass bool) (transport.Conn, error) {
	db := ch.dialBackoffFor(netaddr)
	if !bypass {
		if err := db.gate(); err != nil {
			return nil, err
		}
	}
	c, err := ch.net.Dial(netaddr)
	if err != nil {
		err = dialError{fmt.Errorf("remoting: dial %s: %v: %w", netaddr, err, errs.ErrNodeDown)}
		db.failed(err)
		return nil, err
	}
	db.succeeded()
	return c, nil
}

// dialBackoff base delay and cap: the first refused dial blocks redials for
// ~dialBackoffBase, doubling per consecutive failure up to dialBackoffCap,
// each window jittered to 50–100% so peers probing the same dead node do
// not synchronize.
const (
	dialBackoffBase = 10 * time.Millisecond
	dialBackoffCap  = 500 * time.Millisecond
)

// dialBackoff is the per-peer redial schedule shared by every lane of one
// Channel, and the channel's one breaker. A refused dial opens it; while
// the window is open, gate() fast-fails every call that needs a connection
// with the last dial error (which wraps ErrNodeDown) instead of hitting the
// transport — the fix for the redial storm where a dead peer's every lane
// (and every queued caller) dialled it in lockstep. The first dial after
// the window is the trial: its success closes the breaker, its refusal
// opens it for twice as long. Only dials count: a peer that answers,
// even with an error, is reachable.
type dialBackoff struct {
	mu      sync.Mutex
	fails   int
	until   time.Time
	lastErr error
}

// dialBackoffFor returns the peer's shared backoff entry, creating it on
// first use.
func (ch *Channel) dialBackoffFor(netaddr string) *dialBackoff {
	ch.dialMu.Lock()
	defer ch.dialMu.Unlock()
	if ch.dialPeers == nil {
		ch.dialPeers = make(map[string]*dialBackoff)
	}
	db := ch.dialPeers[netaddr]
	if db == nil {
		db = &dialBackoff{}
		ch.dialPeers[netaddr] = db
	}
	return db
}

// gate fast-fails with the last dial error while the backoff window is
// open; otherwise it admits the dial (including the probe that ends a
// window).
func (db *dialBackoff) gate() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.fails > 0 && time.Now().Before(db.until) {
		return db.lastErr
	}
	return nil
}

// failed records a refused dial and opens (or extends) the backoff window.
func (db *dialBackoff) failed(err error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.fails++
	shift := db.fails - 1
	if shift > 8 {
		shift = 8
	}
	d := dialBackoffBase << shift
	if d > dialBackoffCap {
		d = dialBackoffCap
	}
	d = time.Duration(float64(d) * (0.5 + 0.5*rand.Float64()))
	db.until = time.Now().Add(d)
	db.lastErr = err
}

// succeeded resets the schedule after a successful dial.
func (db *dialBackoff) succeeded() {
	db.mu.Lock()
	db.fails = 0
	db.until = time.Time{}
	db.lastErr = nil
	db.mu.Unlock()
}

// Close releases the channel's client-side connections: every lane to every
// peer is shut down, failing any in-flight calls with ErrNodeDown (Closed),
// and every retry waiting out its backoff ends with the same error. The
// channel itself stays usable — a later call dials afresh — so teardown
// order between a node's server role and its client role does not matter.
// Cluster and node teardown call it so long-running processes do not leak
// sockets.
func (ch *Channel) Close() {
	// End the backoffs first, so their callers observe the teardown
	// promptly instead of finishing their backoff against a closed channel.
	ch.closeMu.Lock()
	backoffs := ch.backoffs
	ch.backoffs = nil
	ch.closeMu.Unlock()
	for b := range backoffs {
		if b.t != nil {
			b.t.Stop()
		}
		b.then(fmt.Errorf("remoting: %w", errChannelClosed))
	}
	ch.dialMu.Lock()
	ch.dialPeers = nil
	ch.dialMu.Unlock()
	// Each lane leaves the table once it has failed its calls (fail).
	for _, mc := range ch.lanes() {
		mc.shutdown()
	}
}

// FailLanes fails every lane the channel has now, as a connection that died
// under it does: every call a lane holds is told ErrNodeDown, not Close's
// error, so its caller sends it again as after a dead connection, and the
// next call dials afresh. Unlike Close it forgets no breaker and ends no
// backoff. Tests of what a caller does when its connections die use it.
func (ch *Channel) FailLanes() {
	for _, mc := range ch.lanes() {
		mc.fail(fmt.Errorf("remoting: lane to %s failed: %w", mc.netaddr, errs.ErrNodeDown))
	}
}

// lanes returns the lanes in the channel's table.
func (ch *Channel) lanes() []*muxConn {
	ch.muxMu.Lock()
	defer ch.muxMu.Unlock()
	lanes := make([]*muxConn, 0, len(ch.muxPeers))
	for _, mc := range ch.muxPeers {
		lanes = append(lanes, mc)
	}
	return lanes
}
