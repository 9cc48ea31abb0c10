package remoting

// This file holds a lane's client bind table and its request frames.

import (
	"sync"
	"sync/atomic"

	"repro/internal/keep"
	"repro/internal/wire"
)

// bindShardCount stripes the client bind table by the hash of its key.
// Binding is cold-path (first call per triple), but the handle lookup on
// every call shares the stripes' read locks, so they must not funnel
// through one RWMutex.
const bindShardCount = 8

type bindShard struct {
	mu sync.RWMutex
	m  map[bindKey]*clientBind
}

// hash is FNV-1a over uri, call and method, each followed by '.' — cheap,
// and uniform enough for eight stripes.
func (k *bindKey) hash() uint32 {
	h := uint32(fnvOffset)
	for _, s := range [...]string{k.uri, k.call, k.method} {
		h = fnv1a(fnv1a(h, s), ".")
	}
	return h
}

// bindKey identifies one bindable (URI, call, method) triple.
type bindKey struct {
	uri, call, method string
}

// clientBind tracks one handle. confirmed flips once a frame declaring it
// has entered the lane's outbound queue; from then on calls for the triple
// send the bare call frame.
type clientBind struct {
	handle    uint32
	confirmed atomic.Bool
}

// unboundSentinel is the entry of every triple that found the lane's
// handles spent: handle 0, never confirmed (it declares nothing), so every
// call of the triple declares itself and is dispatched by URI.
var unboundSentinel = &clientBind{}

// bindFor returns the bind entry for req's triple, giving it a fresh dense
// handle on first use, or the sentinel once the lane's handles are spent.
// Either is stored, so the triple's later calls find it under the read lock.
func (mc *muxConn) bindFor(req *callRequest) *clientBind {
	k := bindKey{uri: req.URI, call: req.Call, method: req.Method}
	sh := &mc.bindShards[k.hash()&(bindShardCount-1)]
	sh.mu.RLock()
	cb := sh.m[k]
	sh.mu.RUnlock()
	if cb != nil {
		return cb
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if cb := sh.m[k]; cb != nil {
		return cb
	}
	cb = unboundSentinel
	for h := mc.handles.Load(); h < maxBindHandles; h = mc.handles.Load() {
		if mc.handles.CompareAndSwap(h, h+1) {
			cb = &clientBind{handle: h + 1}
			break
		}
	}
	if sh.m == nil {
		sh.m = make(map[bindKey]*clientBind)
	}
	sh.m[k] = cb
	return cb
}

// encodeRequest produces the frame for c's request on this lane: the bare
// call once a frame declaring the triple's handle has been queued
// (enqueueFrame), the declaring call until then. The frame's encoder is one
// of the lane's (mc.encs), and goes back there.
func (mc *muxConn) encodeRequest(c *CallRecord) (outFrame, error) {
	req := c.envelope()
	cb := mc.bindFor(&req)
	declare := !cb.confirmed.Load()
	_, enc, err := encodeBoundCall(&mc.encs, cb.handle, declare, &req)
	if err != nil {
		return outFrame{}, err
	}
	of := outFrame{enc: enc, audit: mc.ch.encoders}
	of.audit.add(encoderDrawn)
	if declare && cb.handle != 0 {
		of.declares = cb
	}
	return of, nil
}

// outFrame is one queued frame, a request on a lane or a reply on a server
// connection. Its bytes are enc's, an encoder of the lane's or the
// connection's (their encs): whoever consumes the frame (normally the writer
// or the flusher, after the bytes hit the wire) gives it back there; nil for
// a frame that failed to encode. Frames stranded in outQ when a lane fails
// are simply collected by the GC with the lane. declares is the handle the
// frame declares, nil for a bare frame, for handle 0 and for a reply. audit
// is the encoder audit of the channel the frame is written for.
type outFrame struct {
	enc      *wire.Encoder
	declares *clientBind
	audit    *encoderCounts // the encoder audit of the frame's channel
}

// release gives the frame's encoder back to encs, its owner's.
func (of outFrame) release(encs *keep.Store[wire.Encoder]) {
	if of.enc != nil {
		of.audit.add(encoderReturned)
		encs.Put(wire.Encoders, of.enc)
	}
}

// encoderAudit, when a test installs one, is the encoder audit of the
// channels made from then on (NewMultiplexedChannel), as recordAudit is for
// records: a lane (encodeRequest) and a server connection (respond) of the
// channel count each encoder they draw for a frame, and outFrame.release
// each one given back; drawn must equal returned once everything is closed.
// A frame a lane queued after its writer left is collected with the lane,
// uncounted. Nothing installs or reads it in production.
var encoderAudit atomic.Pointer[encoderCounts]

type encoderCounts [2]atomic.Int64

const (
	encoderDrawn = iota
	encoderReturned
)

// add counts event; on a nil audit it does nothing.
func (a *encoderCounts) add(event int) {
	if a != nil {
		a[event].Add(1)
	}
}
