// The envelope: the one wire format of a call and its reply.
//
// Shipping the object URI and method name on every call would make those
// fixed bytes dominate the payload under fine-grained fan-out (the
// grain-size lesson of the paper, applied to the envelope itself). A call
// names its target by a dense per-connection handle instead:
//
//   - The first call of a (URI, Method) pair on a connection is a declaring
//     call: the URI and method ride in front of the ordinary call frame,
//     whose handle H declares "H means this pair on this connection".
//   - The server records the handle in a per-connection slice-indexed bind
//     table and acknowledges it in its reply (the ack rides the reply
//     header). From then on the client sends the bare call frame, and the
//     server resolves the handle with a slice index instead of URI/method
//     strings and map lookups. Until the ack arrives the client keeps
//     declaring; redeclaring a handle is idempotent.
//   - Handle 0 declares nothing: the server dispatches the call by URI and
//     never acknowledges it. A connection sends it once its maxBindHandles
//     handles are spent. Handles are per-connection state, so a redial
//     rebuilds them: the first call on the fresh connection declares again.
//
// Frames are hand-framed rather than registered wire structs: a marker
// byte that no binfmt value can start with, raw varint header fields, then
// the ordinary tagged encoding for names, arguments and results.
//
//	declare: 0xBF | tagged URI string | tagged method string | call
//	call:    0xBC | uvarint handle | uvarint seq | varint deadline | args ([]any, tagged)
//	         0xBE | uvarint handle | uvarint seq | varint deadline | uvarint tokClient | uvarint tokSeq | args
//	reply:   0xBD | uvarint seq | uvarint bindAck | flag byte | body
//
// where the 0xBE call variant carries an idempotency token (token.go) and
// flag is 0 (body = tagged result value) or has bit 1 set (body =
// tagged error code string + tagged error message string). Error replies
// with bit 2 set additionally append a migration forward — tagged new
// address string, raw varint node id, raw uvarint generation, tagged
// moved-object URI — carrying a moved object's new location
// (errs.CodeMoved); bit 4 appends a retry-after hint (raw varint
// milliseconds) for overload sheds. bindAck, when non-zero,
// confirms that handle for future calls on this connection. A connection
// carries nothing else, from its first frame: the server drops one whose
// frame starts with any other byte, and the client fails a lane whose
// peer sends it anything but a reply.
//
// The nested-call shape. Every call of the SCOOPP runtime is
// Invoke1(method, args) or InvokeBatch(method, calls) on a published
// endpoint, so the args of nearly every compact call are the two-element
// list [string sub, []any inner]. Neither end builds it: a request with
// callRequest.nested set is written as the list's own bytes straight from
// sub and Args, and a call frame whose args start that way is read back
// into the two fields, the inner list into the array its serverCall lends.
// The format did not change: every frame has the bytes it had when the flat
// list was built and encoded (TestNestedCallBytesIdentical), and a frame
// whose args merely happen to have the shape decodes to the same values.
package remoting

import (
	"encoding/binary"
	"fmt"

	"repro/internal/dispatch"
	"repro/internal/errs"
	"repro/internal/wire"
)

const (
	// markBoundCall and markBoundReply are the first byte of compact
	// frames. Binfmt values start with a tag byte (< 0x20) and the
	// textual codecs with ASCII, so the 0xBC-0xBF markers are unambiguous.
	markBoundCall  = 0xBC
	markBoundReply = 0xBD
	// markBoundCallTok is the token-bearing call variant: the 0xBC layout
	// with the idempotency token (uvarint client id, uvarint client seq)
	// inserted after the deadline. A separate marker rather than a flag
	// byte keeps the tokenless hot path byte-identical to the historical
	// frame.
	markBoundCallTok = 0xBE
	// markDeclare prefixes a declaring call: the pair's URI and method,
	// then the 0xBC or 0xBE frame for its handle.
	markDeclare = 0xBF

	// flagReplyErr marks a compact reply carrying an error instead of a
	// result.
	flagReplyErr = 0x01
	// flagReplyFwd marks an error reply that appends a migration forward
	// (new addr, node, generation) after the error strings.
	flagReplyFwd = 0x02
	// flagReplyRetryAfter marks an error reply that appends a retry-after
	// hint (raw varint milliseconds) after the error strings and any
	// forward — an overloaded server telling the caller when a retry has a
	// chance (callResponse.RetryAfterMs).
	flagReplyRetryAfter = 0x04

	// maxBindHandles caps the per-connection handle space on both sides: a
	// client stops declaring new handles past it (sending handle 0), and a
	// server refuses a frame naming one beyond it, so a misbehaving peer
	// cannot grow the bind table without bound.
	maxBindHandles = 1 << 16
)

// encodeBoundCall produces the call frame for handle, behind the declaring
// prefix when declare is set. The bytes live in the returned pooled
// encoder, which whoever consumes the frame must Release.
func encodeBoundCall(handle uint32, declare bool, req *callRequest) (raw []byte, enc *wire.Encoder, err error) {
	e := wire.NewEncoder()
	if declare {
		e.RawByte(markDeclare)
		e.String(req.URI)
		e.String(req.Method)
	}
	if req.TokClient != 0 {
		e.RawByte(markBoundCallTok)
	} else {
		e.RawByte(markBoundCall)
	}
	e.RawUvarint(uint64(handle))
	e.RawUvarint(req.Seq)
	e.RawVarint(req.Deadline)
	if req.TokClient != 0 {
		e.RawUvarint(req.TokClient)
		e.RawUvarint(req.TokSeq)
	}
	if req.nested {
		// The bytes of []any{sub, Args}, without the slice.
		e.RawByte(wire.TagAnySlice)
		e.RawUvarint(2)
		e.String(req.sub)
	}
	e.AnySlice(req.Args)
	if err := e.Err(); err != nil {
		e.Release()
		return nil, nil, fmt.Errorf("remoting: encode bound call %s.%s: %w", req.URI, req.Method, err)
	}
	return e.Bytes(), e, nil
}

// nestedShape reports whether args, a compact call's tagged argument list,
// is [string, list] in the encoding encodeBoundCall writes. Anything else
// (a padded varint, a nil inner list, a truncated string) decodes by the
// flat path, to the same values or the same error.
func nestedShape(args []byte) bool {
	if len(args) < 4 || args[0] != wire.TagAnySlice || args[1] != 2 || args[2] != wire.TagString {
		return false
	}
	n, w := binary.Uvarint(args[3:])
	if w <= 0 || n >= uint64(len(args)-3-w) {
		return false
	}
	return args[3+w+int(n)] == wire.TagAnySlice
}

// readBoundCall parses the call frame raw into *req, overwriting it, and
// returns the handle and whether the frame declared it. A declaring frame
// fills URI and Method and may name handle 0; a bare one leaves them empty
// (the server fills them from its bind table) and must name a handle. Args
// in the nested-call shape land in req.sub and req.Args; either way
// req.Args is decoded into argv's array when it fits. d is the read loop's
// decoder, in borrow mode: large []byte arguments alias raw, and
// d.Borrowed reports whether any does (see recycleFrame).
func readBoundCall(d *wire.Decoder, raw []byte, req *callRequest, argv []any) (handle uint32, declared bool, err error) {
	*req = callRequest{}
	d.Reset(raw)
	b := d.RawByte()
	if b == markDeclare {
		req.URI, req.Method = d.String(), d.String()
		declared, b = true, d.RawByte()
	}
	if b != markBoundCall && b != markBoundCallTok {
		if err := d.Err(); err != nil {
			return 0, false, fmt.Errorf("remoting: decode call: %w", err)
		}
		return 0, false, fmt.Errorf("remoting: call marker 0x%02x, want 0x%02x or 0x%02x", b, markBoundCall, markBoundCallTok)
	}
	h := d.RawUvarint()
	req.Seq = d.RawUvarint()
	req.Deadline = d.RawVarint()
	if b == markBoundCallTok {
		req.TokClient = d.RawUvarint()
		req.TokSeq = d.RawUvarint()
	}
	if d.Err() == nil && nestedShape(raw[len(raw)-d.Rest():]) {
		d.RawByte()    // the outer list's tag
		d.RawUvarint() // and its count, 2
		// The name is read where it lies and the string taken from the
		// invoker registry, which only this node's init fills; a name no
		// thunk is registered under is copied.
		name := d.StringRaw()
		sub, known := dispatch.MethodName(name)
		if !known {
			sub = string(name)
		}
		req.sub, req.nested = sub, true
	}
	req.Args = d.AnySliceInto(argv)
	if err := d.Err(); err != nil {
		return 0, false, fmt.Errorf("remoting: decode call: %w", err)
	}
	if rest := d.Rest(); rest != 0 {
		return 0, false, fmt.Errorf("remoting: call: %d trailing bytes", rest)
	}
	if h > maxBindHandles || h == 0 && !declared {
		return 0, false, fmt.Errorf("remoting: call handle %d out of range", h)
	}
	return uint32(h), declared, nil
}

// encodeBoundReply produces the compact reply frame. bindAck, when
// non-zero, confirms a handle the client declared. The bytes live in the
// returned pooled encoder.
func encodeBoundReply(resp *callResponse, bindAck uint32) (raw []byte, enc *wire.Encoder, err error) {
	e := wire.NewEncoder()
	e.RawByte(markBoundReply)
	e.RawUvarint(resp.Seq)
	e.RawUvarint(uint64(bindAck))
	if resp.IsErr {
		flags := byte(flagReplyErr)
		fwd := resp.FwdAddr != "" || resp.FwdNode != 0 || resp.FwdGen != 0
		if fwd {
			flags |= flagReplyFwd
		}
		if resp.RetryAfterMs > 0 {
			flags |= flagReplyRetryAfter
		}
		e.RawByte(flags)
		e.String(resp.ErrCode)
		e.String(resp.ErrMsg)
		if fwd {
			e.String(resp.FwdAddr)
			e.RawVarint(int64(resp.FwdNode))
			e.RawUvarint(resp.FwdGen)
			e.String(resp.FwdURI)
		}
		if resp.RetryAfterMs > 0 {
			e.RawVarint(resp.RetryAfterMs)
		}
	} else {
		e.RawByte(0)
		e.Value(resp.Result)
	}
	if err := e.Err(); err != nil {
		e.Release()
		return nil, nil, fmt.Errorf("remoting: encode bound reply: %w", err)
	}
	return e.Bytes(), e, nil
}

// ResultSink is the typed slot a caller may give a call for its result: a
// completion-driven call in its CallRecord (SetSink), a blocking one as an
// argument (InvokeNestedCtx). On a success reply the lane's reader offers it
// the decoder at the result's position: DecodeResult either consumes exactly
// that one value, keeping it, and returns true, or consumes nothing and
// returns false (wire.Decoder.ValueInto is this contract), and the result is
// then decoded as a value, as for any other call. A call whose sink took the
// result completes with the sink itself as its value: a pointer in an
// interface, where the decoded value would have been boxed.
type ResultSink interface {
	DecodeResult(d *wire.Decoder) bool
}

// decodeReplyHeader points d, the read loop's decoder, at the compact reply
// raw and reads its header: the sequence number of the call it answers, the
// handle it confirms (0 when none) and the flags that say what the body is.
// The body is read (decodeReplyBody) once the reader has taken that call's
// record, into the record, and not at all when nobody wants it any more.
// A frame that is no reply at all means the peer does not speak this
// protocol, which for the lane is the same as a peer that is down.
func decodeReplyHeader(d *wire.Decoder, raw []byte) (seq uint64, bindAck uint32, flags byte, err error) {
	d.Reset(raw)
	if b := d.RawByte(); b != markBoundReply {
		return 0, 0, 0, fmt.Errorf("remoting: reply marker 0x%02x, want 0x%02x: %w", b, markBoundReply, errs.ErrNodeDown)
	}
	seq = d.RawUvarint()
	ack := d.RawUvarint()
	flags = d.RawByte()
	if err := d.Err(); err != nil {
		return 0, 0, 0, fmt.Errorf("remoting: decode bound reply: %w", err)
	}
	if ack > maxBindHandles {
		return 0, 0, 0, fmt.Errorf("remoting: bound reply ack %d out of range", ack)
	}
	return seq, uint32(ack), flags, nil
}

// decodeReplyBody reads what follows the header. An error reply's fields go
// into *resp, overwriting all of it but Seq. A result goes into sink when
// there is one and it takes the value, in which case result is sink itself,
// and is returned as a value otherwise; resp is not touched. d decodes in
// borrow mode: a large []byte result aliases the frame, in a sink as
// anywhere, and d.Borrowed reports it (see recycleFrame).
func decodeReplyBody(d *wire.Decoder, flags byte, resp *callResponse, sink ResultSink) (result any, err error) {
	switch {
	case flags&flagReplyErr != 0:
		*resp = callResponse{Seq: resp.Seq, IsErr: true}
		resp.ErrCode = d.String()
		resp.ErrMsg = d.String()
		if flags&flagReplyFwd != 0 {
			resp.FwdAddr = d.String()
			resp.FwdNode = int(d.RawVarint())
			resp.FwdGen = d.RawUvarint()
			resp.FwdURI = d.String()
		}
		if flags&flagReplyRetryAfter != 0 {
			resp.RetryAfterMs = d.RawVarint()
		}
	case sink != nil && sink.DecodeResult(d):
		result = sink
	default:
		result = d.Value()
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("remoting: decode bound reply: %w", err)
	}
	if rest := d.Rest(); rest != 0 {
		return nil, fmt.Errorf("remoting: bound reply: %d trailing bytes", rest)
	}
	return result, nil
}
