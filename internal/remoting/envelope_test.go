package remoting

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/keep"
	"repro/internal/transport"
	"repro/internal/wire"
)

// testEncs is where the tests' frames are encoded, as a lane's or a server
// connection's are encoded into theirs.
var testEncs keep.Store[wire.Encoder]

func TestBoundCallRoundTrip(t *testing.T) {
	req := &callRequest{
		Seq:      12345,
		Deadline: 1753776000000000000,
		Args:     []any{int32(7), "hello", []float64{1.5, 2.5}},
	}
	raw, enc, err := encodeBoundCall(&testEncs, 42, false, req)
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Release()
	handle, got, _, err := decodeCall(raw)
	if err != nil {
		t.Fatal(err)
	}
	if handle != 42 {
		t.Errorf("handle = %d, want 42", handle)
	}
	if got.Seq != req.Seq || got.Deadline != req.Deadline {
		t.Errorf("header = seq %d deadline %d, want seq %d deadline %d",
			got.Seq, got.Deadline, req.Seq, req.Deadline)
	}
	if len(got.Args) != 3 || got.Args[0] != int32(7) || got.Args[1] != "hello" {
		t.Errorf("args = %#v", got.Args)
	}
	if got.URI != "" || got.Call != "" || got.Method != "" {
		t.Errorf("compact envelope decoded strings: URI=%q Call=%q Method=%q", got.URI, got.Call, got.Method)
	}
}

// TestBoundCallIsStringFree is the point of the exercise: once its handle
// is confirmed, a call frame must not contain the URI, the call or method
// name, or any struct/field name, and is the declaring frame less exactly
// the declaration in front of it.
func TestBoundCallIsStringFree(t *testing.T) {
	req := &callRequest{
		URI:    "DivideServer/7",
		Call:   "Invoke1",
		Method: "Divide",
		Seq:    99991,
		Args:   []any{10.0, 4.0},
	}
	declaring, encD, err := encodeBoundCall(&testEncs, 3, true, req)
	if err != nil {
		t.Fatal(err)
	}
	bound, encB, err := encodeBoundCall(&testEncs, 3, false, req)
	if err != nil {
		t.Fatal(err)
	}
	defer encD.Release()
	defer encB.Release()
	for _, needle := range []string{"DivideServer", "Invoke1", "Divide", "callRequest", "Seq", "Args"} {
		if strings.Contains(string(bound), needle) {
			t.Errorf("bound call frame contains %q", needle)
		}
	}
	prefix := []byte{markDeclare, wire.TagString, byte(len(req.URI))}
	prefix = append(append(prefix, req.URI...), wire.TagString, byte(len(req.Call)))
	prefix = append(append(prefix, req.Call...), wire.TagString, byte(len(req.Method)))
	prefix = append(prefix, req.Method...)
	if want := append(prefix, bound...); !bytes.Equal(declaring, want) {
		t.Errorf("declaring frame\n%x, want the declaration then the bound frame\n%x", declaring, want)
	}
	t.Logf("declaring call %d bytes, bound %d bytes", len(declaring), len(bound))
}

func TestBoundReplyRoundTripResult(t *testing.T) {
	resp := &callResponse{Seq: 77, Result: []int32{1, 2, 3}}
	raw, enc, err := encodeBoundReply(&testEncs, resp)
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Release()
	got, _, err := decodeReply(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 77 || got.IsErr {
		t.Errorf("reply = %+v", got)
	}
	if s, ok := got.Result.([]int32); !ok || len(s) != 3 || s[2] != 3 {
		t.Errorf("result = %#v", got.Result)
	}
}

func TestBoundReplyRoundTripError(t *testing.T) {
	resp := &callResponse{Seq: 78, IsErr: true, ErrCode: "no_such_method", ErrMsg: "boom"}
	raw, enc, err := encodeBoundReply(&testEncs, resp)
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Release()
	got, _, err := decodeReply(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsErr || got.ErrCode != "no_such_method" || got.ErrMsg != "boom" {
		t.Errorf("reply = %+v", got)
	}
}

func TestBoundCallRejectsBadFrames(t *testing.T) {
	req := &callRequest{Seq: 1, Args: []any{}}
	raw, enc, err := encodeBoundCall(&testEncs, 5, false, req)
	if err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), raw...)
	enc.Release()

	if _, _, _, err := decodeCall(append(frame, 0xFF)); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, _, _, err := decodeCall(frame[:len(frame)-1]); err == nil {
		t.Error("truncated frame accepted")
	}
	bad := append([]byte(nil), frame...)
	bad[0] = markBoundReply
	if _, _, _, err := decodeCall(bad); err == nil {
		t.Error("wrong marker accepted")
	}
	// Handle 0 is rejected unless declared, an out-of-range handle always.
	for _, declare := range []bool{false, true} {
		if raw0, enc0, err := encodeBoundCall(&testEncs, 0, declare, req); err == nil {
			if _, _, _, err := decodeCall(raw0); (err == nil) != declare {
				t.Errorf("handle 0, declaring %v: %v", declare, err)
			}
			enc0.Release()
		}
		if rawBig, encBig, err := encodeBoundCall(&testEncs, maxBindHandles+1, declare, req); err == nil {
			if _, _, _, err := decodeCall(rawBig); err == nil {
				t.Errorf("out-of-range handle accepted, declaring %v", declare)
			}
			encBig.Release()
		}
	}
	// A declaration must be followed by a call, and only one.
	req.URI, req.Call = "d", "Divide"
	declaring := boundCallBytes(t, 5, true, req)
	prefix := declaring[:len(declaring)-len(frame)]
	if _, _, _, err := decodeCall(prefix); err == nil {
		t.Error("a declaration with no call after it accepted")
	}
	if _, _, _, err := decodeCall(append(bytes.Clone(prefix), declaring...)); err == nil {
		t.Error("a declaration of a declaration accepted")
	}
}

// doubler is a published object whose method binds its argument.
type doubler struct{}

func (doubler) Twice(v int) int { return 2 * v }

// TestBadArgumentsFailTheirCall: a request whose header reads but whose
// arguments do not (here, a byte after the last one) is answered with the
// decode error, found where its argument is bound, and the connection goes
// on: the request pipelined behind it on the same connection runs.
func TestBadArgumentsFailTheirCall(t *testing.T) {
	poisoned(t)
	net := transport.NewMemNetwork()
	ch := NewMultiplexedChannel(net)
	defer ch.Close()
	srv, err := ch.ListenAndServe("mem://badargs")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Marshal("doubler", doubler{})
	c, err := net.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bad := append(boundCallBytes(t, 1, true, &callRequest{URI: "doubler", Call: "Twice", Seq: 1, Args: []any{21}}), 0x00)
	good := boundCallBytes(t, 1, false, &callRequest{Seq: 2, Args: []any{4}})
	if err := transport.SendBatch(c, [][]byte{bad, good}); err != nil {
		t.Fatal(err)
	}
	replies := map[uint64]*callResponse{}
	for len(replies) < 2 {
		raw, err := c.Recv()
		if err != nil {
			t.Fatalf("after %d replies: %v", len(replies), err)
		}
		resp, _, err := decodeReply(raw)
		if err != nil {
			t.Fatal(err)
		}
		replies[resp.Seq] = resp
	}
	if r := replies[1]; r == nil || !r.IsErr || !strings.Contains(r.ErrMsg, "1 trailing bytes") {
		t.Errorf("the request with a trailing byte was answered %+v, want its decode error", r)
	}
	if r := replies[2]; r == nil || r.IsErr || r.Result != 8 {
		t.Errorf("the request behind it was answered %+v, want 8", r)
	}
}

func TestBoundReplyRejectsBadFrames(t *testing.T) {
	resp := &callResponse{Seq: 2, Result: "ok"}
	raw, enc, err := encodeBoundReply(&testEncs, resp)
	if err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), raw...)
	enc.Release()

	if _, _, err := decodeReply(append(frame, 0x00)); err == nil {
		t.Error("trailing bytes accepted")
	}
	bad := append([]byte(nil), frame...)
	bad[0] = markBoundCall
	if _, _, err := decodeReply(bad); err == nil {
		t.Error("wrong marker accepted")
	}
	bad[0], bad[2] = markBoundReply, 0x10
	if _, _, err := decodeReply(bad); err == nil {
		t.Error("unknown flag bit accepted")
	}
}

// decodeBoundCall and decodeBoundReply are the one-shot forms of what the
// two read loops do with the decoder they keep: a frame in, an envelope out,
// and whether anything in it aliases the frame. decodeBoundCall then decodes
// the pending argument list, boxed, into argv's array when it fits, and an
// element that does not decode is its error too. decodeBoundReply is header
// then body with no sink, the generic decode that a sink's outcome is
// compared with.
func decodeBoundCall(raw []byte, req *callRequest, argv []any) (handle uint32, declared, borrowed bool, err error) {
	d := wire.NewDecoder(nil)
	defer d.Release()
	d.SetBorrow(true)
	var args wire.PendingList
	if handle, declared, err = readBoundCall(d, raw, req, &args); err != nil {
		return handle, declared, false, err
	}
	req.Args = append(argv[:0], req.Args...)
	err = wire.DecodeArgs(req.Args)
	return handle, declared, args.Borrowed(), err
}

func decodeBoundReply(raw []byte, resp *callResponse) (borrowed bool, err error) {
	d := wire.NewDecoder(nil)
	defer d.Release()
	d.SetBorrow(true)
	*resp = callResponse{}
	seq, flags, err := decodeReplyHeader(d, raw)
	if err != nil {
		return false, err
	}
	resp.Seq = seq
	resp.Result, err = decodeReplyBody(d, flags, resp, nil)
	return d.Borrowed(), err
}

// decodeCall and decodeReply decode into a fresh envelope, for tests that
// look at the values rather than at the record they land in.
func decodeCall(raw []byte) (uint32, *callRequest, bool, error) {
	req := &callRequest{}
	handle, _, borrowed, err := decodeBoundCall(raw, req, nil)
	return handle, req, borrowed, err
}

func decodeReply(raw []byte) (*callResponse, bool, error) {
	resp := &callResponse{}
	borrowed, err := decodeBoundReply(raw, resp)
	return resp, borrowed, err
}
