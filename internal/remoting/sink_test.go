package remoting

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
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

// TestCancelAgainstReply: a completion-driven call with a typed slot,
// cancelled while its reply is on the wire, a thousand times over. Whichever
// of the reader and the Cancel takes the record, the Completer hears once:
// the sink itself with the echo in it, or context.Canceled and never a
// value; and nobody hears a second time when the other side arrives.
func TestCancelAgainstReply(t *testing.T) {
	ch, srv, _ := newMuxServer(t)
	srv.RegisterWellKnown("h", Singleton, func() any { return &heldEcho{} })
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
		rec, sink, h := new(CallRecord), &typedSink[int]{}, newHeard()
		calls[i] = h
		rec.SetSink(sink)
		if err := ref.InvokeAsyncCb(ctx, rec, "Now", []any{i}, h); err != nil {
			t.Fatal(err)
		}
		for spin := i % 16; spin > 0; spin-- {
			runtime.Gosched() // let the reply come closer, by a varying amount
		}
		rec.Cancel()
		switch v, err := h.wait(t); {
		case err == nil:
			if v != any(sink) || sink.val != i {
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
func settled(t *testing.T, audit *[3]atomic.Int64, out int64) {
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
	audit := new([3]atomic.Int64)
	frameAudit.Store(audit)
	defer frameAudit.Store(nil)

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
		rec, sink, h := new(CallRecord), &typedSink[[]byte]{}, newHeard()
		rec.SetSink(sink)
		if err := ref.InvokeAsyncCb(ctx, rec, "Kept", nil, h); err != nil {
			t.Fatal(err)
		}
		if v, err := h.wait(t); err != nil || v != any(sink) {
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
	rec, sink, h := new(CallRecord), &typedSink[[]byte]{}, newHeard()
	rec.SetSink(sink)
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
					frame, enc, err := encodeBoundReply(&callResponse{Seq: req.Seq, Result: 7}, 0)
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
	rec, sink, h := new(CallRecord), &typedSink[int]{}, newHeard()
	rec.SetSink(sink)
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
