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

// callGolden are call frames as encodeBoundCall writes them, the wire
// contract: the bare frame, with and without a token, carries the user's
// arguments and nothing else; the declaring frame puts the URI, the call and
// the user's method (empty for a plain call) in front of it.
var callGolden = []struct {
	name    string
	handle  uint32
	declare bool
	req     callRequest
	frame   string
}{
	{"plain", 3, false, callRequest{Seq: 7, Args: []any{[]int32{1, -2, 300000}}},
		"bc030700" + "1801120301000000feffffffe0930400"},
	{"token and deadline", 65536, false, callRequest{Seq: 300, Deadline: 1234567890123, TokClient: 9, TokSeq: 70000, Args: []any{"hi", 42, 2.5}},
		"be808004ac029693d89fee4709f0a204" + "18030f02686907540e0000000000000440"},
	{"nil args", 1, false, callRequest{Seq: 1},
		"bc010100" + "1800"},
	{"empty args", 1, false, callRequest{Seq: 1, Args: []any{}},
		"bc010100" + "1800"},
	{"batch with token", 4, false, callRequest{Seq: 5, TokClient: 1, TokSeq: 1, Args: []any{[]any{1}, []any{2}}},
		"be0405000101" + "18021801070218010704"},
	{"declaring handle 3", 3, true, callRequest{URI: "obj/1", Call: "Invoke1", Method: "Ints", Seq: 7, Args: []any{[]int32{1, -2, 300000}}},
		"bf" + "0f056f626a2f31" + "0f07496e766f6b6531" + "0f04496e7473" + "bc030700" + "1801120301000000feffffffe0930400"},
	{"declaring handle 0", 0, true, callRequest{URI: "obj/2", Call: "Invoke1", Method: "Noop", Seq: 1},
		"bf" + "0f056f626a2f32" + "0f07496e766f6b6531" + "0f044e6f6f70" + "bc000100" + "1800"},
	{"declaring with token", 4, true, callRequest{URI: "obj/3", Call: "InvokeBatch", Method: "Add", Seq: 5, TokClient: 1, TokSeq: 1, Args: []any{[]any{1}, []any{2}}},
		"bf" + "0f056f626a2f33" + "0f0b496e766f6b654261746368" + "0f03416464" + "be0405000101" + "18021801070218010704"},
	// A plain call: no user method, the call is the method.
	{"empty sub", 2, true, callRequest{URI: "d", Call: "Divide", Seq: 2, Args: []any{10.0, 4.0}},
		"bf" + "0f0164" + "0f06446976696465" + "0f00" + "bc020200" + "18020e00000000000024400e0000000000001040"},
}

// replyGolden are reply frames as encodeBoundReply writes them: the
// sequence number, the flags, the body.
var replyGolden = []struct {
	name  string
	resp  callResponse
	frame string
}{
	{"reply result", callResponse{Seq: 7, Result: []int32{1, -2, 300000}},
		"bd07" + "00" + "120301000000feffffffe0930400"},
	{"reply nil", callResponse{Seq: 300},
		"bdac02" + "00" + "00"},
	{"reply error", callResponse{Seq: 8, IsErr: true, ErrCode: "no_such_method", ErrMsg: "boom"},
		"bd08" + "01" + "0f0e6e6f5f737563685f6d6574686f64" + "0f04626f6f6d"},
	{"reply forward", callResponse{Seq: 9, IsErr: true, ErrCode: "moved", ErrMsg: "gone", FwdAddr: "127.0.0.1:9", FwdNode: 3, FwdGen: 5, FwdURI: "obj/x"},
		"bd09" + "03" + "0f056d6f766564" + "0f04676f6e65" + "0f0b3132372e302e302e313a39" + "06" + "05" + "0f056f626a2f78"},
	{"reply retry-after", callResponse{Seq: 10, IsErr: true, ErrCode: "overloaded", ErrMsg: "full", RetryAfterMs: 25},
		"bd0a" + "05" + "0f0a6f7665726c6f61646564" + "0f0466756c6c" + "32"},
	{"reply unbound", callResponse{Seq: 11, IsErr: true, ErrMsg: "unbound call handle 9", Unbound: true},
		"bd0b" + "09" + "0f00" + "0f15756e626f756e642063616c6c2068616e646c652039"},
}

// parentFrames are frames in the layout this envelope replaced, which
// acknowledged a declaration in the reply and carried a runtime call's user
// method in front of the arguments: declaring frames whose declaration is
// the URI and the call alone, and replies with a bind ack after the
// sequence number.
var parentFrames = []struct {
	name, frame string
	call        bool
}{
	{"declaring", "bf0f056f626a2f310f07496e766f6b6531" + "bc03070018020f04496e74731801120301000000feffffffe0930400", true},
	{"declaring handle 0", "bf0f056f626a2f320f07496e766f6b6531" + "bc00010018020f044e6f6f701800", true},
	{"declaring with token", "bf0f056f626a2f330f0b496e766f6b654261746368" + "be040500010118020f0341646418021801070218010704", true},
	{"declaring a plain call", "bf0f01640f06446976696465" + "bc020200" + "18020e00000000000024400e0000000000001040", true},
	{"reply, no ack", "bd07" + "00" + "00" + "120301000000feffffffe0930400", false},
	{"reply, ack 1", "bd07" + "01" + "00" + "120301000000feffffffe0930400", false},
	{"reply, ack 2", "bd07" + "02" + "00" + "0f026f6b", false},
	{"reply nil, ack 3", "bdac02" + "03" + "00" + "00", false},
	{"reply, ack 200", "bd07" + "c801" + "00" + "0f026f6b", false},
	{"reply, last handle", "bd07" + "808004" + "00" + "00", false},
	{"error reply, no ack", "bd08" + "00" + "01" + "0f0e6e6f5f737563685f6d6574686f64" + "0f04626f6f6d", false},
	{"error reply, ack 4", "bd08" + "04" + "01" + "0f0e6e6f5f737563685f6d6574686f64" + "0f04626f6f6d", false},
	{"retry-after reply, ack 1", "bd0a" + "01" + "05" + "0f0a6f7665726c6f61646564" + "0f0466756c6c" + "32", false},
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
	raw, enc, err := encodeBoundCall(&testEncs, handle, declare, req)
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Release()
	return bytes.Clone(raw)
}

// TestNestedCallBytesIdentical: every golden frame, runtime call, plain
// call or reply, is byte for byte what the encoder writes for it; it decodes
// back to what it was written from, a call's arguments into the lent array;
// and it re-encodes to itself.
func TestNestedCallBytesIdentical(t *testing.T) {
	poisoned(t)
	for _, g := range callGolden {
		t.Run(g.name, func(t *testing.T) { checkCallFrame(t, g.handle, g.declare, g.req, g.frame) })
	}
	for _, g := range replyGolden {
		t.Run(g.name, func(t *testing.T) {
			want := mustHex(t, g.frame)
			if got := boundReplyBytes(t, &g.resp); !bytes.Equal(got, want) {
				t.Errorf("reply encodes to\n%x, want\n%x", got, want)
			}
			got, _, err := decodeReply(want)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*got, g.resp) {
				t.Errorf("decoded %+v, want %+v", *got, g.resp)
			}
			if !bytes.Equal(boundReplyBytes(t, got), want) {
				t.Error("decode then encode changed the frame")
			}
		})
	}
}

// checkCallFrame holds one golden call frame.
func checkCallFrame(t *testing.T, handle uint32, declare bool, req callRequest, frame string) {
	want := mustHex(t, frame)
	if got := boundCallBytes(t, handle, declare, &req); !bytes.Equal(got, want) {
		t.Errorf("request encodes to\n%x, want\n%x", got, want)
	}
	var got callRequest
	lent := make([]any, 0, 8)
	h, declared, _, err := decodeBoundCall(want, &got, lent)
	if err != nil {
		t.Fatal(err)
	}
	if h != handle || declared != declare {
		t.Fatalf("decoded handle %d declared %v, want %d %v", h, declared, handle, declare)
	}
	if got.URI != req.URI || got.Call != req.Call || got.Method != req.Method {
		t.Errorf("decoded triple %q %q %q, want %q %q %q", got.URI, got.Call, got.Method, req.URI, req.Call, req.Method)
	}
	if got.Seq != req.Seq || got.Deadline != req.Deadline || got.TokClient != req.TokClient || got.TokSeq != req.TokSeq {
		t.Errorf("decoded header %+v, want %+v", got, req)
	}
	if len(got.Args) != len(req.Args) || (len(req.Args) > 0 && !reflect.DeepEqual(got.Args, req.Args)) {
		t.Errorf("decoded args %#v, want %#v", got.Args, req.Args)
	}
	if len(got.Args) > 0 && &got.Args[0] != &lent[:1][0] {
		t.Error("the argument list was not decoded into the lent array")
	}
	if !bytes.Equal(boundCallBytes(t, h, declared, &got), want) {
		t.Error("decode then encode changed the frame")
	}
}

// TestParentFramesRejected: the wire changed on purpose. A declaring frame
// in the replaced layout, and a reply carrying a bind ack, are refused
// rather than misread: a server drops the connection that sends one, and a
// client fails the lane.
func TestParentFramesRejected(t *testing.T) {
	for _, p := range parentFrames {
		frame := mustHex(t, p.frame)
		var err error
		if p.call {
			_, _, _, err = decodeBoundCall(frame, new(callRequest), nil)
		} else {
			_, _, err = decodeReply(frame)
		}
		if err == nil {
			t.Errorf("%s: %x accepted", p.name, frame)
		}
	}
}

// FuzzDecodeBoundCall: no frame makes the decoder panic; what decodes names
// a handle in range, handle 0 only when declared, and no triple when bare;
// it re-encodes to a frame that is its own decode-encode image, a declaring
// one to its declaration in front of its bare frame. Every seed the encoder
// wrote that is accepted re-encodes to itself, byte for byte. (An arbitrary
// input need not: binfmt reads a varint padded with continuation bytes, a
// bool slice element of 2 or a name spelled twice instead of
// back-referenced, and writes each back in its one canonical form.)
func FuzzDecodeBoundCall(f *testing.F) {
	var seeds [][]byte
	for _, g := range callGolden {
		seeds = append(seeds, mustHex(f, g.frame))
	}
	for _, p := range parentFrames {
		if p.call {
			seeds = append(seeds, mustHex(f, p.frame))
		}
	}
	seeds = append(seeds,
		boundCallBytes(f, 9, false, &callRequest{Seq: 1, Args: []any{int32(7), "flat", []float64{1.5}}}),
		boundCallBytes(f, 9, false, &callRequest{Seq: 2, Args: []any{"Tag", []any{"user", "method"}, 3}}))
	// Declarations: at the edges of the handle space, of user methods short
	// and long, of an empty triple, of a URI longer than the frame, and with
	// no call, or only part of the triple, after them.
	for _, h := range []uint32{0, maxBindHandles, maxBindHandles + 1} {
		seeds = append(seeds, boundCallBytes(f, h, true, &callRequest{URI: "obj/1", Call: "Invoke1", Method: "Now", Seq: 5, Args: []any{1}}))
	}
	for _, m := range []string{"N", strings.Repeat("n", 1024)} {
		seeds = append(seeds, boundCallBytes(f, 3, true, &callRequest{URI: "obj/1", Call: "InvokeBatch", Method: m, Seq: 4, TokClient: 2, TokSeq: 3, Args: []any{[]any{1}}}))
	}
	seeds = append(seeds,
		boundCallBytes(f, 6, true, &callRequest{Seq: 6, Args: []any{}}),
		[]byte{markDeclare, wire.TagString, 0x7f, 'o', 'b', 'j', wire.TagString, 1, 'M', wire.TagString, 0, markBoundCall, 1, 1, 0, wire.TagAnySlice, 0},
		[]byte{markDeclare, wire.TagString, 1, 'd', wire.TagString, 1, 'M', wire.TagString, 1, 'N'},
		[]byte{markDeclare, wire.TagString, 1, 'd', wire.TagString, 1, 'M', markBoundCall, 1, 1, 0, wire.TagAnySlice, 0})
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
		if err != nil {
			return
		}
		if handle > maxBindHandles || handle == 0 && !declared {
			t.Fatalf("accepted handle %d, declared %v", handle, declared)
		}
		if !declared && (req.URI != "" || req.Call != "" || req.Method != "") {
			t.Fatalf("a bare frame named %q %q %q", req.URI, req.Call, req.Method)
		}
		once := boundCallBytes(t, handle, declared, &req)
		if declared {
			bare := boundCallBytes(t, handle, false, &req)
			e := wire.NewEncoder()
			e.RawByte(markDeclare)
			e.String(req.URI)
			e.String(req.Call)
			e.String(req.Method)
			declaration := bytes.Clone(e.Bytes())
			e.Release()
			if !bytes.Equal(once, append(declaration, bare...)) {
				t.Fatalf("declaring frame\n%x is not its declaration\n%x then its bare frame\n%x", once, declaration, bare)
			}
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

func boundReplyBytes(t testing.TB, resp *callResponse) []byte {
	t.Helper()
	raw, enc, err := encodeBoundReply(&testEncs, resp)
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Release()
	return bytes.Clone(raw)
}

// typedSink is a ResultSink with a slot of type T, as a parc Result[R]'s slot
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
		f.Add(boundReplyBytes(f, &resp))
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
		frame := boundReplyBytes(f, &callResponse{Seq: uint64(20 + i), Result: v.Interface()})
		f.Add(frame)
		f.Add(append(frame, 0x00))  // trailing bytes
		f.Add(frame[:len(frame)-1]) // a count that exceeds the frame
	}
	for _, p := range parentFrames {
		if !p.call {
			f.Add(mustHex(f, p.frame))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp callResponse
		_, err := decodeBoundReply(data, &resp)
		d := wire.NewDecoder(nil)
		defer d.Release()
		d.SetBorrow(true)
		for _, newProbe := range sinkProbes {
			p := newProbe()
			viaSink := callResponse{}
			seq, flags, herr := decodeReplyHeader(d, data)
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
			if seq != resp.Seq {
				t.Fatalf("header read seq %d, generic decode %d", seq, resp.Seq)
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
		once := boundReplyBytes(t, &resp)
		var again callResponse
		if _, err := decodeBoundReply(once, &again); err != nil {
			t.Fatalf("re-encoded frame %x does not decode: %v", once, err)
		}
		if twice := boundReplyBytes(t, &again); !bytes.Equal(twice, once) {
			t.Fatalf("encode is not a fixed point:\n%x then\n%x", once, twice)
		}
	})
}

// TestNilContextIsBackground: both kinds of call take a nil context as
// context.Background().
func TestNilContextIsBackground(t *testing.T) {
	poisoned(t)
	ch, srv, _ := newMuxServer(t)
	srv.Marshal("h", &heldEcho{})
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

// TestCallRecordsAccountedFor holds the one lifetime rule of a call record:
// it is drawn from its owner's store and goes back when the lane and every
// hook on its context are done with it, or else to the GC. Across blocking
// calls, abandoned ones, failed ones and requests the server refuses, every
// record either end drew has, once the server and the channel are closed,
// gone back or been let go on purpose (a blocking call abandoned while the
// reader held its record). A completion-driven call's record is its owner's
// (here one slab for the lot; core's asynchronous calls draw theirs, inside
// their attempts, from their proxy's store, which parc's
// TestCallRecordsAccountedForAcrossWaves audits): the lane lends it back
// once it has told the call, whether the call was answered, cancelled in
// flight, cut off by the close or never submitted.
func TestCallRecordsAccountedFor(t *testing.T) {
	_, audit := poisoned(t)

	ch, srv, _ := newMuxServer(t)
	h := &heldEcho{gate: make(chan struct{})}
	openGate := sync.OnceFunc(func() { close(h.gate) })
	t.Cleanup(openGate) // before the server closes, should a check fail first
	srv.Marshal("h", h)
	ref, _ := GetObject(ch, srv.URLFor("h"))
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if v, err := ref.InvokeNestedCtx(ctx, "Now", "x", nil); err == nil {
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
	openGate()
	wg.Wait()
	srv.Close()
	if n := told.Load(); n != parked {
		t.Errorf("%d of %d submitted completion-driven calls reported an outcome", n, parked)
	}

	drawn, returned, dropped := audit[RecordDrawn].Load(), audit[RecordReturned].Load(), audit[RecordDropped].Load()
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
	srv.Marshal("h", &heldEcho{})
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

// TestQueuedFramesGiveEncodersBack: calls waiting in a lane's admission
// queue behind MaxInFlight hold their encoded frames there, and every encoder
// a frame was drawn in, either end's, goes back: when the lane fails with
// the calls queued, and when the calls are cancelled while they wait and
// refused at their turn. The record and frame audits balance too (poisoned).
func TestQueuedFramesGiveEncodersBack(t *testing.T) {
	for _, how := range []string{"lane_failed", "cancelled"} {
		t.Run(how, func(t *testing.T) {
			poisoned(t)
			encs := auditEncoders(t)
			ch, srv, _ := newMuxServer(t)
			ch.MuxLanes, ch.MaxInFlight = 1, 1
			h := &heldEcho{gate: make(chan struct{})}
			openGate := sync.OnceFunc(func() { close(h.gate) })
			t.Cleanup(openGate) // before the server closes, should a check fail first
			srv.Marshal("h", h)
			ref, _ := GetObject(ch, srv.URLFor("h"))
			held := make(chan error, 1)
			if err := ref.InvokeAsyncCb(context.Background(), new(CallRecord), "Echo", []any{0}, CompletionFunc(func(_ any, err error) { held <- err })); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(10 * time.Second); h.started.Load() < 1; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the held call never reached the server")
				}
			}
			const queued = 16
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			outcomes := make(chan error, queued)
			for i := 0; i < queued; i++ {
				if err := ref.InvokeAsyncCb(ctx, new(CallRecord), "Now", []any{i}, CompletionFunc(func(_ any, err error) { outcomes <- err })); err != nil {
					t.Fatal(err)
				}
			}
			mc, err := laneFor(ref)
			if err != nil {
				t.Fatal(err)
			}
			mc.admitMu.Lock()
			waiting := len(mc.admitQ)
			mc.admitMu.Unlock()
			if waiting != queued {
				t.Fatalf("%d calls wait in the admission queue, want %d", waiting, queued)
			}
			if d := encs[encoderDrawn].Load() - encs[encoderReturned].Load(); d < queued {
				t.Fatalf("%d encoders out with %d frames queued", d, queued)
			}
			want := errors.New("lane failed by the test")
			if how == "lane_failed" {
				mc.fail(want)
			} else {
				cancel()
				want = context.Canceled
			}
			openGate()
			for i := 0; i < queued; i++ {
				if err := <-outcomes; !errors.Is(err, want) {
					t.Errorf("queued call = %v, want %v", err, want)
				}
			}
			if err := <-held; (err == nil) != (how == "cancelled") {
				t.Errorf("held call = %v", err)
			}
		})
	}
}

// laneFor returns ref's lane (getMux), dialling it if need be.
func laneFor(ref *ObjRef) (*muxConn, error) {
	return ref.ch.getMux(ref.netaddr, &CallRecord{ref: ref, ctx: context.Background()})
}

// auditEncoders installs a fresh encoder audit for t and, once t's channel
// and server are closed, checks that every encoder drawn for a frame went
// back.
func auditEncoders(t *testing.T) *encoderCounts {
	a := new(encoderCounts)
	encoderAudit.Store(a)
	t.Cleanup(func() {
		defer encoderAudit.Store(nil)
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			drawn, returned := a[encoderDrawn].Load(), a[encoderReturned].Load()
			if drawn == returned {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("encoders drawn %d, returned %d", drawn, returned)
				return
			}
		}
	})
	return a
}

// TestBlockingCallDeadlineWhileQueued: a blocking call that waits for
// admission behind a full lane gives up when its deadline passes, without
// waiting for a slot to free; the lane stays up, later calls succeed on its
// one connection once the slot frees, and every record is accounted for,
// the abandoned call's included.
func TestBlockingCallDeadlineWhileQueued(t *testing.T) {
	poisoned(t)
	ch, srv, net := newMuxServer(t)
	ch.MuxLanes, ch.MaxInFlight = 1, 1
	h := &heldEcho{gate: make(chan struct{})}
	openGate := sync.OnceFunc(func() { close(h.gate) })
	t.Cleanup(openGate) // before the server closes, should a check fail first
	srv.Marshal("h", h)
	ref, _ := GetObject(ch, srv.URLFor("h"))
	held := goInvoke(ref, "Echo", 1)
	for deadline := time.Now().Add(10 * time.Second); h.started.Load() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the held call never reached the server")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if v, err := ref.InvokeCtx(ctx, "Now", 2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued call = %v, %v, want deadline exceeded", v, err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Errorf("the queued call returned after %v, want its 50 ms deadline", waited)
	}
	openGate()
	if got := <-held; got.err != nil || got.v != 1 {
		t.Fatalf("held call = %v, %v", got.v, got.err)
	}
	for i := 0; i < 4; i++ {
		if v, err := ref.InvokeCtx(context.Background(), "Now", i); err != nil || v != i {
			t.Fatalf("Now after the gate opened = %v, %v", v, err)
		}
	}
	if d := net.dials.Load(); d != 1 {
		t.Errorf("dials = %d, want 1: a call given up in the queue must not cost the lane", d)
	}
}
