package remoting

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// nestedGolden are compact call frames as the parent commit's
// encodeBoundCall wrote them for Args: []any{sub, args}, the flat list of a
// runtime call. They are the wire contract of the nested-call shape.
var nestedGolden = []struct {
	name   string
	handle uint32
	req    callRequest // header fields only
	sub    string
	args   []any
	frame  string
}{
	{"plain", 3, callRequest{Seq: 7}, "Ints", []any{[]int32{1, -2, 300000}},
		"bc03070018020f04496e74731801120301000000feffffffe0930400"},
	{"token and deadline", 65536, callRequest{Seq: 300, Deadline: 1234567890123, TokClient: 9, TokSeq: 70000}, "Echo", []any{"hi", 42, 2.5},
		"be808004ac029693d89fee4709f0a20418020f044563686f18030f02686907540e0000000000000440"},
	{"nil args", 1, callRequest{Seq: 1}, "Noop", nil,
		"bc01010018020f044e6f6f701800"},
	{"empty args", 1, callRequest{Seq: 1}, "Noop", []any{},
		"bc01010018020f044e6f6f701800"},
	{"empty sub", 2, callRequest{Seq: 2}, "", []any{true},
		"bc02020018020f00180101"},
	{"batch with token", 4, callRequest{Seq: 5, TokClient: 1, TokSeq: 1}, "Add", []any{[]any{1}, []any{2}},
		"be040500010118020f0341646418021801070218010704"},
}

// declaringGolden are declaring call frames: the declaration (marker, URI,
// method) in front of the bound frame of the same handle, the last two
// with the bound bytes of nestedGolden's "nil args" (at handle 0) and
// "batch with token".
var declaringGolden = []struct {
	name        string
	handle      uint32
	uri, method string
	req         callRequest // header fields only
	sub         string
	args        []any
	frame       string
}{
	{"declaring handle 3", 3, "obj/1", "Invoke1", callRequest{Seq: 7}, "Ints", []any{[]int32{1, -2, 300000}},
		"bf0f056f626a2f310f07496e766f6b6531" + "bc03070018020f04496e74731801120301000000feffffffe0930400"},
	{"declaring handle 0", 0, "obj/2", "Invoke1", callRequest{Seq: 1}, "Noop", nil,
		"bf0f056f626a2f320f07496e766f6b6531" + "bc00010018020f044e6f6f701800"},
	{"declaring with token", 4, "obj/3", "InvokeBatch", callRequest{Seq: 5, TokClient: 1, TokSeq: 1}, "Add", []any{[]any{1}, []any{2}},
		"bf0f056f626a2f330f0b496e766f6b654261746368" + "be040500010118020f0341646418021801070218010704"},
}

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// boundCallBytes encodes req and returns a copy of the frame.
func boundCallBytes(t testing.TB, handle uint32, declare bool, req *callRequest) []byte {
	t.Helper()
	raw, enc, err := encodeBoundCall(handle, declare, req)
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Release()
	return bytes.Clone(raw)
}

// TestNestedCallBytesIdentical: a request in the nested-call shape encodes
// to the bytes the flat list did at the parent commit, bound or declaring,
// decodes back into the two fields with the inner list in the lent array
// (and a declaring frame into its URI and method), and re-encodes to the
// same frame.
func TestNestedCallBytesIdentical(t *testing.T) {
	poisoned(t)
	for _, g := range nestedGolden {
		t.Run(g.name, func(t *testing.T) { checkNestedFrame(t, g.handle, false, g.req, g.sub, g.args, g.frame) })
	}
	for _, g := range declaringGolden {
		req := g.req
		req.URI, req.Method = g.uri, g.method
		t.Run(g.name, func(t *testing.T) { checkNestedFrame(t, g.handle, true, req, g.sub, g.args, g.frame) })
	}
	// Close to the shape, but not it: these decode by the flat path.
	for name, frame := range map[string]string{
		"count in two bytes": "bc0101001882000f044e6f6f701800",
		"nil inner list":     "bc01010018020f044e6f6f7000",
		"three elements":     "bc01010018030f044e6f6f70180000",
		"string then int":    "bc01010018020f044e6f6f700702",
	} {
		_, req, _, err := decodeCall(mustHex(t, frame))
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if req.nested {
			t.Errorf("%s: taken for the nested shape", name)
		}
	}
}

// checkNestedFrame holds one golden frame: req's header (and, declaring,
// its URI and method) with the nested call sub(args).
func checkNestedFrame(t *testing.T, handle uint32, declare bool, req callRequest, sub string, args []any, frame string) {
	want := mustHex(t, frame)
	nested, flat := req, req
	nested.sub, nested.Args, nested.nested = sub, args, true
	flat.Args = []any{sub, args}
	if got := boundCallBytes(t, handle, declare, &nested); !bytes.Equal(got, want) {
		t.Errorf("nested request encodes to\n%x, want\n%x", got, want)
	}
	if got := boundCallBytes(t, handle, declare, &flat); !bytes.Equal(got, want) {
		t.Errorf("flat request encodes to\n%x, want\n%x", got, want)
	}

	var got callRequest
	lent := make([]any, 0, 8)
	h, declared, _, err := decodeBoundCall(want, &got, lent)
	if err != nil {
		t.Fatal(err)
	}
	if h != handle || declared != declare || !got.nested || got.sub != sub {
		t.Fatalf("decoded handle %d declared %v nested %v sub %q, want %d %v true %q", h, declared, got.nested, got.sub, handle, declare, sub)
	}
	if got.URI != req.URI || got.Method != req.Method {
		t.Errorf("decoded pair %q.%q, want %q.%q", got.URI, got.Method, req.URI, req.Method)
	}
	if got.Seq != req.Seq || got.Deadline != req.Deadline || got.TokClient != req.TokClient || got.TokSeq != req.TokSeq {
		t.Errorf("decoded header %+v, want %+v", got, req)
	}
	if len(got.Args) != len(args) || (len(args) > 0 && !reflect.DeepEqual(got.Args, args)) {
		t.Errorf("decoded args %#v, want %#v", got.Args, args)
	}
	if len(got.Args) > 0 && &got.Args[0] != &lent[:1][0] {
		t.Error("the inner list was not decoded into the lent array")
	}
	if !bytes.Equal(boundCallBytes(t, h, declared, &got), want) {
		t.Error("decode then encode changed the frame")
	}
}

// flatDecodeBoundCall is the parent commit's decodeBoundCall, with the
// declaration in front: header, then the whole argument list by the
// generic decoder.
func flatDecodeBoundCall(raw []byte) (handle uint64, declared bool, req callRequest, err error) {
	d := wire.NewDecoder(raw)
	defer d.Release()
	d.SetBorrow(true)
	b := d.RawByte()
	if b == markDeclare {
		req.URI, req.Method = d.String(), d.String()
		declared, b = true, d.RawByte()
	}
	if b != markBoundCall && b != markBoundCallTok {
		return 0, false, req, errors.New("marker")
	}
	handle = d.RawUvarint()
	req.Seq = d.RawUvarint()
	req.Deadline = d.RawVarint()
	if b == markBoundCallTok {
		req.TokClient = d.RawUvarint()
		req.TokSeq = d.RawUvarint()
	}
	req.Args = d.AnySlice()
	if err := d.Err(); err != nil {
		return 0, false, req, err
	}
	if d.Rest() != 0 {
		return 0, false, req, errors.New("trailing bytes")
	}
	if handle > maxBindHandles || handle == 0 && !declared {
		return 0, false, req, errors.New("handle")
	}
	return handle, declared, req, nil
}

// FuzzDecodeBoundCall: no frame makes the decoder panic; a frame decodes by
// the nested-aware decoder exactly when it decodes by the flat one, and to
// the same request, the method name of a nested call included, whether the
// invoker registry had it or it was copied from the frame, and the same
// declaration; and what decodes re-encodes to a frame that is its own
// decode-encode image, a declaring one to its declaration in front of the
// bound frame. Every seed the encoder wrote that is accepted re-encodes to
// itself, byte for byte. (An arbitrary input need not: binfmt reads a
// varint padded with continuation bytes, a bool slice element of 2 or a
// name spelled twice instead of back-referenced, and writes each back in
// its one canonical form.)
func FuzzDecodeBoundCall(f *testing.F) {
	var seeds [][]byte
	for _, g := range nestedGolden {
		seeds = append(seeds, mustHex(f, g.frame))
	}
	for _, g := range declaringGolden {
		seeds = append(seeds, mustHex(f, g.frame))
	}
	seeds = append(seeds,
		boundCallBytes(f, 9, false, &callRequest{Seq: 1, Args: []any{int32(7), "flat", []float64{1.5}}}),
		boundCallBytes(f, 9, false, &callRequest{Seq: 2, Args: []any{"Tag", []any{"user", "method"}, 3}}))
	// Names the registry answers for (heldEcho's "Now"), almost answers for,
	// and never will.
	for _, sub := range []string{"Now", "No", "Nowhere", "", strings.Repeat("n", 1024)} {
		seeds = append(seeds, boundCallBytes(f, 3, false, &callRequest{Seq: 4, sub: sub, nested: true, Args: []any{1}}))
	}
	// Declarations: at the edges of the handle space, of an empty pair, of a
	// URI longer than the frame, and with no call after them.
	for _, h := range []uint32{0, maxBindHandles, maxBindHandles + 1} {
		seeds = append(seeds, boundCallBytes(f, h, true, &callRequest{URI: "obj/1", Method: "Invoke1", Seq: 5, sub: "Now", nested: true, Args: []any{1}}))
	}
	seeds = append(seeds,
		boundCallBytes(f, 6, true, &callRequest{Seq: 6, Args: []any{}}),
		[]byte{markDeclare, wire.TagString, 0x7f, 'o', 'b', 'j', wire.TagString, 1, 'M', markBoundCall, 1, 1, 0, wire.TagAnySlice, 0},
		[]byte{markDeclare, wire.TagString, 1, 'd', wire.TagString, 1, 'M'})
	for _, seed := range seeds {
		var req callRequest
		if handle, declared, _, err := decodeBoundCall(seed, &req, nil); err == nil {
			if once := boundCallBytes(f, handle, declared, &req); !bytes.Equal(once, seed) {
				f.Fatalf("seed\n%x re-encodes to\n%x", seed, once)
			}
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req callRequest
		handle, declared, _, err := decodeBoundCall(data, &req, make([]any, 0, 4))
		flatHandle, flatDeclared, flat, flatErr := flatDecodeBoundCall(data)
		if (err == nil) != (flatErr == nil) {
			t.Fatalf("nested-aware decode: %v; flat decode: %v", err, flatErr)
		}
		if err != nil {
			return
		}
		if declared != flatDeclared || req.URI != flat.URI || req.Method != flat.Method {
			t.Fatalf("declaration read as %v %q.%q, the flat read gives %v %q.%q", declared, req.URI, req.Method, flatDeclared, flat.URI, flat.Method)
		}
		if req.nested {
			if copied, _ := flat.Args[0].(string); req.sub != copied {
				t.Fatalf("method name read as %q, the copying read gives %q", req.sub, copied)
			}
		}
		viaFlat := boundCallBytes(t, uint32(flatHandle), flatDeclared, &flat)
		once := boundCallBytes(t, handle, declared, &req)
		if !bytes.Equal(once, viaFlat) {
			t.Fatalf("re-encoded after nested-aware decode\n%x, after flat decode\n%x", once, viaFlat)
		}
		if bare := boundCallBytes(t, handle, false, &req); declared && !bytes.HasSuffix(once, bare) {
			t.Fatalf("declaring frame\n%x does not end in its bound frame\n%x", once, bare)
		}
		var again callRequest
		handle2, declared2, _, err := decodeBoundCall(once, &again, nil)
		if err != nil {
			t.Fatalf("re-encoded frame %x does not decode: %v", once, err)
		}
		if twice := boundCallBytes(t, handle2, declared2, &again); !bytes.Equal(twice, once) {
			t.Fatalf("encode is not a fixed point:\n%x then\n%x", once, twice)
		}
	})
}

func boundReplyBytes(t testing.TB, resp *callResponse, ack uint32) []byte {
	t.Helper()
	raw, enc, err := encodeBoundReply(resp, ack)
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Release()
	return bytes.Clone(raw)
}

// typedSink is a ResultSink with a slot of type T, as parc's asyncResult[R]
// is one, that also notes what a ResultSink must never do: refuse a value
// and move the decoder all the same.
type typedSink[T any] struct {
	val         T
	took, moved bool
}

func (s *typedSink[T]) DecodeResult(d *wire.Decoder) bool {
	before := d.Rest()
	s.took = d.ValueInto(&s.val)
	s.moved = !s.took && d.Rest() != before
	return s.took
}

// sinkProbe is one fresh typedSink and how to look into it.
type sinkProbe struct {
	sink  ResultSink
	slot  func() any
	state func() (took, moved bool)
}

func probe[T any]() sinkProbe {
	s := &typedSink[T]{}
	return sinkProbe{s, func() any { return s.val }, func() (bool, bool) { return s.took, s.moved }}
}

// sinkProbes makes a sink of every type a typed slot can have.
var sinkProbes = []func() sinkProbe{
	probe[[]byte], probe[[]int], probe[[]int32], probe[[]int64], probe[[]float32], probe[[]float64],
	probe[[]string], probe[[]bool], probe[string], probe[bool],
	probe[int], probe[int8], probe[int16], probe[int32], probe[int64],
	probe[uint], probe[uint8], probe[uint16], probe[uint32], probe[uint64],
	probe[float32], probe[float64],
}

// sameValue compares two decoded values by their encoding (a NaN is itself).
func sameValue(t testing.TB, a, b any) bool {
	t.Helper()
	enc := func(v any) []byte {
		e := wire.NewEncoder()
		defer e.Release()
		e.Value(v)
		if err := e.Err(); err != nil {
			t.Fatal(err)
		}
		return bytes.Clone(e.Bytes())
	}
	return reflect.TypeOf(a) == reflect.TypeOf(b) && bytes.Equal(enc(a), enc(b))
}

// FuzzDecodeBoundReply is FuzzDecodeBoundCall for the reply frame, and holds
// the reader's way of decoding one (header, then the body into the caller's
// typed slot) to the generic decode: with a sink of every slot type, a frame
// is accepted or refused as the generic decode accepts or refuses it; a
// result whose tag is the slot's lands in the slot, equal to the generic
// decode's, and the result is then the sink itself; any other result leaves
// the sink untouched and the decoder where it was, and is decoded as a value;
// an error reply never touches a sink.
func FuzzDecodeBoundReply(f *testing.F) {
	for _, resp := range []callResponse{
		{Seq: 7, Result: []int32{1, -2, 300000}},
		{Seq: 300, Result: nil},
		{Seq: 8, IsErr: true, ErrCode: "no_such_method", ErrMsg: "boom"},
		{Seq: 9, IsErr: true, ErrCode: "moved", ErrMsg: "moved", FwdAddr: "127.0.0.1:9", FwdNode: 3, FwdGen: 5, FwdURI: "obj/x"},
		{Seq: 10, IsErr: true, ErrCode: "overloaded", ErrMsg: "full", RetryAfterMs: 25},
		{Seq: 11, Result: []any{"mixed", 1}},
		{Seq: 12, Result: bytes.Repeat([]byte{7}, 2<<10)}, // above wire.BorrowMin
	} {
		f.Add(boundReplyBytes(f, &resp, uint32(resp.Seq%3)))
	}
	// Every typed tag, so every sink meets its own type and all the others
	// (a []float64 reply to an []int32 sink among them).
	for i, p := range sinkProbes {
		v := reflect.New(reflect.TypeOf(p().slot())).Elem()
		switch v.Kind() {
		case reflect.Slice:
			v = reflect.MakeSlice(v.Type(), 3, 3)
		case reflect.Bool:
			v.SetBool(true)
		case reflect.String:
			v.SetString("result")
		}
		frame := boundReplyBytes(f, &callResponse{Seq: uint64(20 + i), Result: v.Interface()}, 0)
		f.Add(frame)
		f.Add(append(frame, 0x00))  // trailing bytes
		f.Add(frame[:len(frame)-1]) // a count that exceeds the frame
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp callResponse
		ack, _, err := decodeBoundReply(data, &resp)
		d := wire.NewDecoder(nil)
		defer d.Release()
		d.SetBorrow(true)
		for _, newProbe := range sinkProbes {
			p := newProbe()
			viaSink := callResponse{}
			seq, ack2, flags, herr := decodeReplyHeader(d, data)
			viaSink.Seq = seq
			var result any
			berr := herr
			if herr == nil {
				result, berr = decodeReplyBody(d, flags, &viaSink, p.sink)
			}
			if (berr == nil) != (err == nil) {
				t.Fatalf("sink of %T: header then body: %v; generic decode: %v", p.slot(), berr, err)
			}
			took, moved := p.state()
			if moved {
				t.Fatalf("sink of %T refused the result and moved the decoder", p.slot())
			}
			if err != nil {
				continue
			}
			if ack2 != ack || seq != resp.Seq {
				t.Fatalf("header read seq %d ack %d, generic decode %d and %d", seq, ack2, resp.Seq, ack)
			}
			switch {
			case resp.IsErr:
				if took || !reflect.ValueOf(p.slot()).IsZero() || !reflect.DeepEqual(viaSink, resp) {
					t.Fatalf("error reply: sink of %T took=%v, envelope %+v, generic decode %+v", p.slot(), took, viaSink, resp)
				}
			case took:
				if result != any(p.sink) || !sameValue(t, p.slot(), resp.Result) {
					t.Fatalf("sink of %T took %v, generic decode gives %T %v", p.slot(), p.slot(), resp.Result, resp.Result)
				}
			default:
				if reflect.TypeOf(resp.Result) == reflect.TypeOf(p.slot()) {
					t.Fatalf("sink of %T refused a result of its own type", p.slot())
				}
				if !reflect.ValueOf(p.slot()).IsZero() || !sameValue(t, result, resp.Result) {
					t.Fatalf("sink of %T refused the result but holds %v; fallback gives %v, generic decode %v", p.slot(), p.slot(), result, resp.Result)
				}
			}
		}
		if err != nil {
			return
		}
		once := boundReplyBytes(t, &resp, ack)
		var again callResponse
		ack2, _, err := decodeBoundReply(once, &again)
		if err != nil {
			t.Fatalf("re-encoded frame %x does not decode: %v", once, err)
		}
		if twice := boundReplyBytes(t, &again, ack2); !bytes.Equal(twice, once) {
			t.Fatalf("encode is not a fixed point:\n%x then\n%x", once, twice)
		}
	})
}

// TestNilContextIsBackground: both kinds of call take a nil context as
// context.Background().
func TestNilContextIsBackground(t *testing.T) {
	poisoned(t)
	ch, srv, _ := newMuxServer(t)
	srv.RegisterWellKnown("h", Singleton, func() any { return &heldEcho{} })
	ref, _ := GetObject(ch, srv.URLFor("h"))
	for i := 0; i < 3; i++ { // declaring, then bound
		if v, err := ref.InvokeCtx(nil, "Now", i); err != nil || v != i {
			t.Fatalf("InvokeCtx(nil): %v, %v", v, err)
		}
		done := make(chan error, 1)
		err := ref.InvokeAsyncCb(nil, new(CallRecord), "Now", []any{i}, CompletionFunc(func(v any, err error) {
			if err == nil && v != i {
				err = errors.New("wrong echo")
			}
			done <- err
		}))
		if err != nil {
			t.Fatalf("InvokeAsyncCb(nil): %v", err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("async call with a nil context never completed")
		}
	}
}

// TestCallRecordsAccountedFor: across blocking calls, abandoned ones,
// failed ones and requests the server refuses, every record either end drew
// from its pool has, once the server and the channel are closed, gone back
// or been let go on purpose (a blocking call abandoned while the reader
// held its record); and every record a completion-driven caller supplied,
// one slab for the lot, is its caller's again, whether the call was
// answered, cancelled in flight, cut off by the close or never submitted.
func TestCallRecordsAccountedFor(t *testing.T) {
	_, audit := poisoned(t)

	ch, srv, _ := newMuxServer(t)
	h := &heldEcho{gate: make(chan struct{})}
	srv.RegisterWellKnown("h", Singleton, func() any { return h })
	ref, _ := GetObject(ch, srv.URLFor("h"))
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if v, err := ref.InvokeNestedCtx(ctx, nil, "Now", "x", nil); err == nil {
			t.Fatalf("Now(string, []any) = %v, want an arity error", v)
		}
		if v, err := ref.InvokeCtx(ctx, "Now", i); err != nil || v != i {
			t.Fatalf("Now = %v, %v", v, err)
		}
	}
	if _, err := ref.InvokeCtx(ctx, "NoSuchMethod"); err == nil {
		t.Fatal("unknown method succeeded")
	}
	// Calls parked in Echo: a third gives up while in flight, a third is
	// answered, and the last third is still waiting when the channel closes.
	const parked = 30
	var wg sync.WaitGroup
	cancelCtx, cancel := context.WithCancel(ctx)
	for i := 0; i < parked; i++ {
		callCtx := ctx
		if i%3 == 0 {
			callCtx = cancelCtx
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ref.InvokeCtx(callCtx, "Echo", i) //nolint:errcheck // every outcome is legal here
		}()
	}
	// The same three thirds, completion-driven, on records of one slab, and
	// one call answered before any of that.
	slab := make([]CallRecord, parked+2)
	var told atomic.Int64
	heard := CompletionFunc(func(any, error) { told.Add(1) })
	answered := make(chan error, 1)
	if err := ref.InvokeAsyncCb(ctx, &slab[parked], "Now", []any{7}, CompletionFunc(func(v any, err error) {
		if err == nil && v != 7 {
			err = errors.New("wrong echo")
		}
		answered <- err
	})); err != nil {
		t.Fatal(err)
	}
	if err := <-answered; err != nil {
		t.Fatalf("completion-driven Now: %v", err)
	}
	for i := 0; i < parked; i++ {
		if err := ref.InvokeAsyncCb(ctx, &slab[i], "Echo", []any{i}, heard); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); h.started.Load() < 2*parked; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d calls reached the server", h.started.Load(), 2*parked)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	for i := 0; i < parked; i += 3 {
		slab[i].Cancel()
	}
	if err := ref.InvokeAsyncCb(cancelCtx, &slab[parked+1], "Now", []any{7}, heard); err == nil {
		t.Error("a call whose context had ended was submitted")
	}
	ch.Close()
	close(h.gate)
	wg.Wait()
	srv.Close()
	if n := told.Load(); n != parked {
		t.Errorf("%d of %d submitted completion-driven calls reported an outcome", n, parked)
	}

	drawn, returned, dropped := audit[recordDrawn].Load(), audit[recordReturned].Load(), audit[recordDropped].Load()
	t.Logf("records drawn %d, returned %d, let go %d", drawn, returned, dropped)
	if drawn != returned+dropped {
		t.Errorf("%d records drawn, %d returned and %d let go: %d unaccounted for", drawn, returned, dropped, drawn-returned-dropped)
	}
	if min := int64(2*(41+parked) + parked + 2); drawn < min {
		t.Errorf("%d records drawn, want at least %d (one per end per call)", drawn, min)
	}
	if dropped > parked {
		t.Errorf("%d records let go, but only %d calls were ever abandoned", dropped, parked)
	}
}

// TestAsyncAdmissionQueueDrains: completion-driven calls far beyond
// MaxInFlight wait in the lane's admission queue, and every one completes
// with its own echo, whether the calls came as one wave or as a backlog
// kept topped up while it drained (where some find the queue empty and a
// slot free, and start at once).
func TestAsyncAdmissionQueueDrains(t *testing.T) {
	poisoned(t)
	ch, srv, _ := newMuxServer(t)
	ch.MuxLanes, ch.MaxInFlight = 1, 4
	srv.RegisterWellKnown("h", Singleton, func() any { return &heldEcho{} })
	ref, _ := GetObject(ch, srv.URLFor("h"))
	const calls = 2000
	var wg sync.WaitGroup
	var wrong atomic.Int64
	submit := func(i int) {
		wg.Add(1)
		err := ref.InvokeAsyncCb(context.Background(), new(CallRecord), "Now", []any{i}, CompletionFunc(func(v any, err error) {
			if err != nil || v != i {
				wrong.Add(1)
			}
			wg.Done()
		}))
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < calls; i++ { // one wave
		submit(i)
	}
	wg.Wait()
	for i := 0; i < calls; i++ { // a backlog of about 16, topped up as it drains
		submit(i)
		if i%16 == 15 {
			wg.Wait()
		}
	}
	wg.Wait()
	if n := wrong.Load(); n != 0 {
		t.Errorf("%d of %d async calls failed or received another call's echo", n, 2*calls)
	}
}
