package remoting

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// heard is a Completer that counts how often it was told, and keeps what.
type heard struct {
	told atomic.Int32
	done chan struct{}
	v    any
	err  error
}

func newHeard() *heard { return &heard{done: make(chan struct{})} }

func (h *heard) Complete(v any, err error) {
	if h.told.Add(1) == 1 {
		h.v, h.err = v, err
		close(h.done)
	}
}

func (h *heard) wait(t *testing.T) (any, error) {
	t.Helper()
	select {
	case <-h.done:
	case <-time.After(10 * time.Second):
		t.Fatal("the call never completed")
	}
	return h.v, h.err
}

// waitedSink is the Completer of a call its caller waits for (callInto), as
// core's attempt is for a blocking call: a ResultSink that forwards to the
// caller's slot, and hears a reply decoded there as itself.
type waitedSink struct {
	sink ResultSink
	v    any
	err  error
	done chan struct{}
}

func (w *waitedSink) DecodeResult(d *wire.Decoder) bool { return w.sink.DecodeResult(d) }

func (w *waitedSink) Complete(v any, err error) {
	if v == any(w) {
		v = w.sink
	}
	w.v, w.err = v, err
	close(w.done)
}

// callInto makes the runtime call call(method) on ref with sink as the
// result's typed slot, and waits for its outcome: the sink itself when the
// reply was decoded into it.
func callInto(ctx context.Context, ref *ObjRef, sink ResultSink, call, method string) (any, error) {
	w := &waitedSink{sink: sink, done: make(chan struct{})}
	c := new(CallRecord)
	c.SetCall(ctx, call, method, nil)
	c.SetCompleter(w)
	if err := ref.StartCall(c); err != nil {
		return nil, err
	}
	<-w.done
	return w.v, w.err
}

// slotHeard is a heard that is its own typed slot, as a completion-driven
// call's Completer is.
type slotHeard[T any] struct {
	heard
	typedSink[T]
}

func newSlotHeard[T any]() *slotHeard[T] {
	return &slotHeard[T]{heard: heard{done: make(chan struct{})}}
}

// TestCancelAgainstReply: a completion-driven call with a typed slot,
// cancelled while its reply is on the wire, a thousand times over. Whichever
// of the reader and the Cancel takes the record, the Completer hears once:
// the sink itself with the echo in it, or context.Canceled and never a
// value; and nobody hears a second time when the other side arrives.
func TestCancelAgainstReply(t *testing.T) {
	poisoned(t)
	ch, srv, _ := newMuxServer(t)
	srv.Marshal("h", &heldEcho{})
	ref, _ := GetObject(ch, srv.URLFor("h"))
	ctx := context.Background()
	for i := 0; i < 2; i++ { // declare and confirm the handle: from here calls are bound
		if _, err := ref.InvokeCtx(ctx, "Now", i); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 1000
	calls := make([]*heard, rounds)
	var replied, cancelled int
	for i := range calls {
		rec, h := new(CallRecord), newSlotHeard[int]()
		calls[i] = &h.heard
		sink := &h.typedSink
		if err := ref.InvokeAsyncCb(ctx, rec, "Now", []any{i}, h); err != nil {
			t.Fatal(err)
		}
		for spin := i % 16; spin > 0; spin-- {
			runtime.Gosched() // let the reply come closer, by a varying amount
		}
		rec.Cancel()
		switch v, err := h.wait(t); {
		case err == nil:
			if v != any(h) || sink.val != i {
				t.Fatalf("round %d: completed with %v, slot holds %d", i, v, sink.val)
			}
			replied++
		case errors.Is(err, context.Canceled) && v == nil:
			cancelled++
		default:
			t.Fatalf("round %d: completed with %v, %v", i, v, err)
		}
	}
	// A blocking call behind them all, then the close: every late reply has
	// been routed, or never will be.
	if _, err := ref.InvokeCtx(ctx, "Now", 0); err != nil {
		t.Fatal(err)
	}
	ch.Close()
	srv.Close()
	for i, h := range calls {
		if n := h.told.Load(); n != 1 {
			t.Errorf("round %d: the Completer heard %d times", i, n)
		}
	}
	t.Logf("%d calls answered before their Cancel, %d cancelled first", replied, cancelled)
}

// slowBytes hands out 4 KiB when its gate opens.
type slowBytes struct {
	started chan struct{}
	gate    chan struct{}
}

func (s *slowBytes) Held() []byte {
	s.started <- struct{}{}
	<-s.gate
	return bytes.Repeat([]byte{0x5A}, 4<<10)
}

// settled waits until every frame the read loops were handed has been
// recycled (the count follows the delivery) and at least out of them were.
func settled(t *testing.T, audit *frameCounts, out int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if o := audit[frameOut].Load(); o >= out && o == audit[frameBack].Load()+audit[frameBorrowed].Load() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("frames out %d (want %d), back %d, borrowed %d", audit[frameOut].Load(), out, audit[frameBack].Load(), audit[frameBorrowed].Load())
		}
	}
}

// TestTypedSlotFrames: what a reply's frame becomes when the result goes to
// a typed slot, over loopback TCP. A 4 KiB []byte lands in the slot as a view
// of its frame, which is forgotten and never received into again; a 100 B
// one is copied and the buffer goes back to the connection; and the 4 KiB
// reply to a call cancelled before it arrived is not decoded at all: its
// frame goes back too, and its sink is never touched.
func TestTypedSlotFrames(t *testing.T) {
	audit, _ := poisoned(t)

	ch := NewMultiplexedChannel(transport.TCPNetwork{})
	defer ch.Close()
	srv, err := ch.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Marshal("keeper", &keeper{})
	slow := &slowBytes{started: make(chan struct{}, 1), gate: make(chan struct{})}
	srv.Marshal("slow", slow)
	ref, _ := GetObject(ch, srv.URLFor("keeper"))
	slowRef, _ := GetObject(ch, srv.URLFor("slow"))
	ctx := context.Background()
	var out int64 // frames handed out so far, both ends
	invoke := func(ref *ObjRef, method string, args ...any) any {
		t.Helper()
		v, err := ref.InvokeCtx(ctx, method, args...)
		if err != nil {
			t.Fatal(err)
		}
		out += 2
		return v
	}
	for i := 0; i < 2; i++ { // bind Kept
		invoke(ref, "Kept")
	}
	kept := func(want []byte) (slot []byte, borrowed int64) {
		t.Helper()
		invoke(ref, "Keep", want)
		settled(t, audit, out)
		before := audit[frameBorrowed].Load()
		rec, h := new(CallRecord), newSlotHeard[[]byte]()
		sink := &h.typedSink
		if err := ref.InvokeAsyncCb(ctx, rec, "Kept", nil, h); err != nil {
			t.Fatal(err)
		}
		if v, err := h.wait(t); err != nil || v != any(h) {
			t.Fatalf("Kept completed with %v, %v, want the sink", v, err)
		}
		out += 2
		settled(t, audit, out)
		if !bytes.Equal(sink.val, want) {
			t.Fatalf("the slot holds %d bytes starting %#x", len(sink.val), sink.val[:1])
		}
		return sink.val, audit[frameBorrowed].Load() - before
	}
	big := bytes.Repeat([]byte{0xB1}, 4<<10)
	view, borrowed := kept(big)
	if borrowed != 1 {
		t.Errorf("4 KiB result into a slot: %d frames borrowed, want the reply's", borrowed)
	}
	small, borrowed := kept(bytes.Repeat([]byte{0x51}, 100))
	if borrowed != 0 {
		t.Errorf("100 B result into a slot: %d frames borrowed, want it copied", borrowed)
	}
	for i := 0; i < 50; i++ { // later replies, into the connection's buffer
		invoke(ref, "Keep", bytes.Repeat([]byte{byte(i)}, 100+i))
		invoke(ref, "Kept")
	}
	if !bytes.Equal(view, big) || !bytes.Equal(small, bytes.Repeat([]byte{0x51}, 100)) {
		t.Error("a result held in a typed slot was overwritten by a later reply")
	}

	for i := 0; i < 2; i++ { // bind Held
		go func() { <-slow.started; slow.gate <- struct{}{} }()
		invoke(slowRef, "Held")
	}
	settled(t, audit, out)
	before := audit[frameBorrowed].Load()
	rec, h := new(CallRecord), newSlotHeard[[]byte]()
	sink := &h.typedSink
	if err := slowRef.InvokeAsyncCb(ctx, rec, "Held", nil, h); err != nil {
		t.Fatal(err)
	}
	<-slow.started
	rec.Cancel()
	if v, err := h.wait(t); v != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call completed with %v, %v", v, err)
	}
	slow.gate <- struct{}{}
	out += 2
	settled(t, audit, out) // the late reply has come and gone
	if n := audit[frameBorrowed].Load() - before; n != 0 || sink.took || sink.val != nil {
		t.Errorf("late reply to a cancelled call: %d frames borrowed, sink took=%v holds %d bytes; want it skipped undecoded", n, sink.took, len(sink.val))
	}
	if n := h.told.Load(); n != 1 {
		t.Errorf("the Completer heard %d times", n)
	}
}

// TestReplyBodyFailureFailsItsCall: a compact reply whose header names a
// call in flight and whose body does not decode (here: trailing bytes) takes
// the lane down, and the call it named, already out of the in-flight table,
// hears of it like every other: once, with the decode error.
func TestReplyBodyFailureFailsItsCall(t *testing.T) {
	poisoned(t)
	net := transport.NewMemNetwork()
	l, err := net.Listen("mem://badpeer")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { // a peer that answers every request with result 7 and a byte too many
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				for {
					raw, err := c.Recv()
					if err != nil {
						return
					}
					var req callRequest
					if _, _, _, err := decodeBoundCall(raw, &req, nil); err != nil {
						return
					}
					frame, enc, err := encodeBoundReply(&testEncs, &callResponse{Seq: req.Seq, Result: 7})
					if err != nil {
						return
					}
					err = c.Send(append(bytes.Clone(frame), 0x00))
					enc.Release()
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	ch := NewMultiplexedChannel(net)
	defer ch.Close()
	ref := NewObjRef(ch, l.Addr(), "x")
	if v, err := ref.Invoke("M"); err == nil || !strings.Contains(err.Error(), "trailing bytes") {
		t.Errorf("blocking call = %v, %v, want the decode error", v, err)
	}
	// Until the failed lane leaves the table, getMux holds a
	// completion-driven call and then declines it: wait, so the next call
	// dials.
	ch.muxMu.Lock()
	lanes := make([]*muxConn, 0, len(ch.muxPeers))
	for _, mc := range ch.muxPeers {
		lanes = append(lanes, mc)
	}
	ch.muxMu.Unlock()
	for _, mc := range lanes {
		select {
		case <-mc.drained:
		case <-time.After(5 * time.Second):
			t.Fatal("the failed lane never left the channel's table")
		}
	}
	rec, h := new(CallRecord), newSlotHeard[int]()
	if err := ref.InvokeAsyncCb(context.Background(), rec, "M", nil, h); err != nil {
		t.Fatal(err)
	}
	if v, err := h.wait(t); v != nil || err == nil || !strings.Contains(err.Error(), "trailing bytes") {
		t.Errorf("completion-driven call = %v, %v, want the decode error", v, err)
	}
	time.Sleep(10 * time.Millisecond)
	if n := h.told.Load(); n != 1 {
		t.Errorf("the Completer heard %d times", n)
	}
}

// probeValues answers Value(name, nil) with probeValue(name).
type probeValues struct{}

func (probeValues) Value(name string, _ []any) any { return probeValue(name) }

// probeValue is a value of the sinkProbes type whose name is name, or a
// 4 KiB []byte, which a reply borrows from its frame, for "bytes4k". The
// []byte named after its type is 100 B, which a reply copies.
func probeValue(name string) any {
	if name == "bytes4k" {
		return bytes.Repeat([]byte{0xB4}, 4<<10)
	}
	for _, newProbe := range sinkProbes {
		typ := reflect.TypeOf(newProbe().slot())
		if typ.String() != name {
			continue
		}
		switch v := reflect.New(typ).Elem(); v.Kind() {
		case reflect.Slice:
			if typ == reflect.TypeOf([]byte(nil)) {
				return bytes.Repeat([]byte{0x51}, 100)
			}
			return reflect.MakeSlice(typ, 3, 3).Interface()
		case reflect.String:
			return "result"
		case reflect.Bool:
			return true
		default:
			return reflect.ValueOf(77).Convert(typ).Interface()
		}
	}
	panic("no probe of type " + name)
}

// TestBlockingRecordSink: a call its caller waits for, given a typed slot of
// every type through its record's Completer (callInto, as core's blocking
// call gives its caller's slot), over loopback TCP with recycled frames
// poisoned, has its reply decoded into the slot and returns the sink itself,
// holding what the generic decode gives; a result of another type is
// returned as a value and leaves the sink alone. A []byte result held in a slot stays what it
// was through a hundred later replies on the connection, whether it was
// copied out of its frame (100 B, which went back to the connection) or
// borrowed (4 KiB, whose frame did not).
func TestBlockingRecordSink(t *testing.T) {
	frames, _ := poisoned(t)
	ch := NewMultiplexedChannel(transport.TCPNetwork{})
	defer ch.Close()
	srv, err := ch.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Marshal("probes", probeValues{})
	ref, _ := GetObject(ch, srv.URLFor("probes"))
	ctx := context.Background()
	for i := 0; i < 2; i++ { // declare and confirm the handle: calls are bound from here
		if _, err := ref.InvokeNestedCtx(ctx, "Value", "string", nil); err != nil {
			t.Fatal(err)
		}
	}
	var kept [][]byte
	for _, newProbe := range sinkProbes {
		p := newProbe()
		name := reflect.TypeOf(p.slot()).String()
		names := []string{name}
		if name == "[]uint8" {
			names = append(names, "bytes4k")
		}
		for _, name := range names {
			p := newProbe()
			settled(t, frames, 0)
			borrowed := frames[frameBorrowed].Load()
			v, err := callInto(ctx, ref, p.sink, "Value", name)
			if took, _ := p.state(); err != nil || v != any(p.sink) || !took || !sameValue(t, p.slot(), probeValue(name)) {
				t.Fatalf("%s: returned %v, %v, slot took=%v and holds %v", name, v, err, took, p.slot())
			}
			if b, ok := p.slot().([]byte); ok {
				kept = append(kept, b)
				settled(t, frames, 0) // the reader recycles the reply's frame after it delivered
				if n := frames[frameBorrowed].Load() - borrowed; (n == 1) != (len(b) >= wire.BorrowMin) {
					t.Errorf("%s: %d B result, %d frames borrowed", name, len(b), n)
				}
			}
		}
		other := "string"
		if name == other {
			other = "int"
		}
		v, err := callInto(ctx, ref, p.sink, "Value", other)
		if took, moved := p.state(); err != nil || v == any(p.sink) || took || moved || !sameValue(t, v, probeValue(other)) {
			t.Errorf("sink of %s offered a %s: returned %v, %v, took=%v moved=%v", name, other, v, err, took, moved)
		}
	}
	for i := 0; i < 100; i++ {
		if _, err := ref.InvokeNestedCtx(ctx, "Value", []string{"[]uint8", "bytes4k"}[i%2], nil); err != nil {
			t.Fatal(err)
		}
	}
	for i, name := range []string{"[]uint8", "bytes4k"} {
		if want := probeValue(name).([]byte); !bytes.Equal(kept[i], want) {
			t.Errorf("%d B result held in a slot was overwritten by later replies: it starts %#x", len(want), kept[i][:1])
		}
	}
}
