// The envelope: the one wire format of a call and its reply.
//
// Shipping the object URI and method name on every call would make those
// fixed bytes dominate the payload under fine-grained fan-out (the
// grain-size lesson of the paper, applied to the envelope itself). A call
// names its target by a dense per-connection handle instead:
//
//   - A handle stands for a (URI, call, method) triple: the object, the
//     method of the published object the call invokes, and the user's
//     method a runtime call carries (every call of the SCOOPP runtime is
//     Invoke1(method, args) or InvokeBatch(method, calls) on an endpoint),
//     empty for a plain call. A call frame carries the user's arguments
//     and nothing else.
//   - The first call of a triple on a connection is a declaring call: the
//     three strings ride in front of the ordinary call frame, whose handle
//     H declares "H means this triple on this connection". The server
//     records it in a per-connection slice-indexed bind table, keeping the
//     strings once per handle, and resolves every later frame naming H
//     with a slice index instead of strings and map lookups.
//   - The server does not acknowledge a declaration. The stream is
//     ordered and the server reads a connection's frames in order, so any
//     frame written after the declaring one finds the handle declared. The
//     client therefore sends the bare call frame for a triple once a frame
//     declaring it has entered the lane's outbound queue, which is the wire
//     order; a frame encoded and then dropped (a call whose caller gave up
//     while it waited for admission) declares nothing, and the next call
//     declares again.
//     Redeclaring a handle is idempotent. A connection that loses a frame
//     and carries on (a network that blackholes frames rather than the
//     stream) can leave a confirmed handle undeclared: the server refuses a
//     bare call on such a handle, unrun, with a flagged reply, and the
//     client sends that call again, declaring.
//   - Handle 0 declares nothing: the server dispatches the call by URI. A
//     connection sends it once its maxBindHandles handles are spent.
//     Handles are per-connection state, so a redial rebuilds them: the
//     first call on the fresh connection declares again.
//
// Frames are hand-framed rather than registered wire structs: a marker
// byte that no binfmt value can start with, raw varint header fields, then
// the ordinary tagged encoding for names, arguments and results.
//
//	declare: 0xBF | tagged URI string | tagged call string | tagged method string | call
//	call:    0xBC | uvarint handle | uvarint seq | varint deadline | args ([]any, tagged)
//	         0xBE | uvarint handle | uvarint seq | varint deadline | uvarint tokClient | uvarint tokSeq | args
//	reply:   0xBD | uvarint seq | flag byte | body
//
// where the 0xBE call variant carries an idempotency token (token.go) and
// flag is 0 (body = tagged result value) or has bit 1 set (body =
// tagged error code string + tagged error message string). Error replies
// with bit 2 set additionally append a migration forward — tagged new
// address string, raw varint node id, raw uvarint generation, tagged
// moved-object URI — carrying a moved object's new location
// (errs.CodeMoved); bit 4 appends a retry-after hint (raw varint
// milliseconds) for overload sheds; bit 8 marks the reply to a bare call on
// a handle the connection never declared. Any other flag bit is refused. A
// connection carries nothing else, from its first frame: the server drops
// one whose frame starts with any other byte, and the client fails a lane
// whose peer sends it anything but a reply.
package remoting

import (
	"fmt"

	"repro/internal/errs"
	"repro/internal/keep"
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
	// markDeclare prefixes a declaring call: the triple's URI, call and
	// method, then the 0xBC or 0xBE frame for its handle.
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
	// flagReplyUnbound marks an error reply to a call whose handle the
	// connection never declared (callResponse.Unbound).
	flagReplyUnbound = 0x08
	flagsReplyKnown  = flagReplyErr | flagReplyFwd | flagReplyRetryAfter | flagReplyUnbound

	// maxBindHandles caps the per-connection handle space on both sides: a
	// client stops declaring new handles past it (sending handle 0), and a
	// server refuses a frame naming one beyond it, so a misbehaving peer
	// cannot grow the bind table without bound.
	maxBindHandles = 1 << 16
)

// encodeBoundCall produces the call frame for handle, behind the declaring
// prefix when declare is set. The bytes live in the returned encoder, one of
// encs (the lane's), which whoever consumes the frame gives back.
func encodeBoundCall(encs *keep.Store[wire.Encoder], handle uint32, declare bool, req *callRequest) (raw []byte, enc *wire.Encoder, err error) {
	e := encs.Get(wire.Encoders)
	if declare {
		e.RawByte(markDeclare)
		e.String(req.URI)
		e.String(req.Call)
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
	e.AnySlice(req.Args)
	if err := e.Err(); err != nil {
		encs.Put(wire.Encoders, e)
		return nil, nil, fmt.Errorf("remoting: encode bound call %s.%s: %w", req.URI, req.name(), err)
	}
	return e.Bytes(), e, nil
}

// readBoundCall parses the call frame raw into *req, overwriting it, and
// returns the handle and whether the frame declared it. A declaring frame
// fills URI, Call and Method and may name handle 0; a bare one leaves them
// empty (the server fills them from its bind table) and must name a handle.
// req.Args is args' list of pending elements, decoded where the call binds
// them (wire.PendingList), or, with a nil args, decoded here. d is the read
// loop's decoder, in borrow mode: large []byte arguments alias raw, which
// args.Borrowed (d.Borrowed when args is nil) reports (see recycleFrame).
// What it reports as an error is a frame the connection cannot go on from;
// an element of the list that does not decode, or a byte after the last
// one, is the call's error, found where the element is bound.
func readBoundCall(d *wire.Decoder, raw []byte, req *callRequest, args *wire.PendingList) (handle uint32, declared bool, err error) {
	*req = callRequest{}
	d.Reset(raw)
	b := d.RawByte()
	if b == markDeclare {
		req.URI, req.Call, req.Method = d.String(), d.String(), d.String()
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
	req.Args = d.AnySlice(args)
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

// encodeBoundReply produces the compact reply frame. The bytes live in the
// returned encoder, one of encs (the server connection's), which whoever
// consumes the frame gives back.
func encodeBoundReply(encs *keep.Store[wire.Encoder], resp *callResponse) (raw []byte, enc *wire.Encoder, err error) {
	e := encs.Get(wire.Encoders)
	e.RawByte(markBoundReply)
	e.RawUvarint(resp.Seq)
	if resp.IsErr {
		flags := byte(flagReplyErr)
		fwd := resp.FwdAddr != "" || resp.FwdNode != 0 || resp.FwdGen != 0
		if fwd {
			flags |= flagReplyFwd
		}
		if resp.RetryAfterMs > 0 {
			flags |= flagReplyRetryAfter
		}
		if resp.Unbound {
			flags |= flagReplyUnbound
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
		encs.Put(wire.Encoders, e)
		return nil, nil, fmt.Errorf("remoting: encode bound reply: %w", err)
	}
	return e.Bytes(), e, nil
}

// ResultSink is the typed slot a caller may give a call for its result: a
// completion-driven call as its Completer (SetCompleter), a blocking one as
// an argument (InvokeNestedCtx), which the call's record forwards to. On a
// success reply the lane's reader offers it the decoder at the result's
// position: DecodeResult either consumes exactly that one value, keeping it,
// and returns true, or consumes nothing and returns false
// (wire.Decoder.ValueInto is this contract), and the result is then decoded
// as a value, as for any other call. A call whose sink took the result
// completes with the sink itself as its value: a pointer in an interface,
// where the decoded value would have been boxed.
type ResultSink interface {
	DecodeResult(d *wire.Decoder) bool
}

// decodeReplyHeader points d, the read loop's decoder, at the compact reply
// raw and reads its header: the sequence number of the call it answers and
// the flags that say what the body is. The body is read (decodeReplyBody)
// once the reader has taken that call's record, into the record, and not at
// all when nobody wants it any more. A frame that is no reply at all means
// the peer does not speak this protocol, which for the lane is the same as
// a peer that is down.
func decodeReplyHeader(d *wire.Decoder, raw []byte) (seq uint64, flags byte, err error) {
	d.Reset(raw)
	if b := d.RawByte(); b != markBoundReply {
		return 0, 0, fmt.Errorf("remoting: reply marker 0x%02x, want 0x%02x: %w", b, markBoundReply, errs.ErrNodeDown)
	}
	seq = d.RawUvarint()
	flags = d.RawByte()
	if err := d.Err(); err != nil {
		return 0, 0, fmt.Errorf("remoting: decode bound reply: %w", err)
	}
	if flags&^flagsReplyKnown != 0 {
		return 0, 0, fmt.Errorf("remoting: bound reply flags 0x%02x", flags)
	}
	return seq, flags, nil
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
		*resp = callResponse{Seq: resp.Seq, IsErr: true, Unbound: flags&flagReplyUnbound != 0}
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
