// Compact bound-call envelopes: the string-free steady-state wire format.
//
// The string envelope (callRequest/callResponse, remoting.go) ships the
// full object URI and method name — plus the interned struct and field
// name dictionary of the binfmt codec — on every call. Under fine-grained
// fan-out those fixed bytes and the codec work to produce them dominate
// the payload (the grain-size lesson of the paper, applied to the
// envelope itself). The compact envelope amortizes them away:
//
//   - On the first call of a (URI, Method) pair over a multiplexed
//     connection the client sends the ordinary string envelope with
//     callRequest.Bind set to a dense per-connection handle, declaring
//     "handle H means this pair on this connection".
//   - A server that supports binding records the handle in a per-connection
//     slice-indexed bind table and acknowledges it in its reply (the ack
//     rides the compact reply header). From then on the client sends the
//     compact call frame below, and the server resolves the handle with a
//     slice index instead of URI/method strings, map lookups and interning.
//   - A peer that does not bind (an old server, or one with
//     Channel.DisableBinding set) simply never acknowledges, and the
//     client keeps sending string envelopes forever — full interop, no
//     negotiation round-trip. Handles are per-connection state, so a
//     redial after a stale connection rebuilds them transparently: the
//     first call on the fresh connection is a string envelope again.
//
// Compact frames are hand-framed rather than registered wire structs:
// a marker byte that no binfmt value can start with, raw varint header
// fields, then the ordinary tagged encoding for arguments and results.
//
//	call:  0xBC | uvarint handle | uvarint seq | varint deadline | args ([]any, tagged)
//	       0xBE | uvarint handle | uvarint seq | varint deadline | uvarint tokClient | uvarint tokSeq | args
//	reply: 0xBD | uvarint seq | uvarint bindAck | flag byte | body
//
// where the 0xBE call variant carries an idempotency token (token.go) and
// flag is 0 (body = tagged result value) or has bit 1 set (body =
// tagged error code string + tagged error message string). Error replies
// with bit 2 set additionally append a migration forward — tagged new
// address string, raw varint node id, raw uvarint generation, tagged
// moved-object URI — carrying a moved object's new location
// (errs.CodeMoved); bit 4 appends a retry-after hint (raw varint
// milliseconds) for overload sheds. bindAck, when non-zero,
// confirms that handle for future calls on this connection. Compact
// frames only ever appear on a connection after both ends proved they
// speak them: the client sends its first compact call only after an ack,
// and the server sends compact replies only after seeing a Bind
// declaration (which only new clients emit).
package remoting

import (
	"fmt"

	"repro/internal/wire"
)

const (
	// markBoundCall and markBoundReply are the first byte of compact
	// frames. Binfmt values start with a tag byte (< 0x20) and the
	// textual codecs with ASCII, so 0xBC/0xBD are unambiguous.
	markBoundCall  = 0xBC
	markBoundReply = 0xBD
	// markBoundCallTok is the token-bearing compact call variant: the
	// 0xBC layout with the idempotency token (uvarint client id, uvarint
	// client seq) inserted after the deadline. A separate marker rather
	// than a flag byte keeps the tokenless hot path byte-identical to the
	// historical frame; compact frames only flow after the bind handshake
	// proved both ends are this build, so no older peer can receive one.
	markBoundCallTok = 0xBE

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
	// client stops declaring new handles past it (falling back to string
	// envelopes), and a server ignores declarations beyond it, so a
	// misbehaving peer cannot grow the bind table without bound.
	maxBindHandles = 1 << 16
)

// isCompactFrame reports whether raw is a compact envelope of the given
// marker.
func isCompactFrame(raw []byte, marker byte) bool {
	return len(raw) > 0 && raw[0] == marker
}

// encodeBoundCall produces the compact call frame for a confirmed handle.
// Like Channel.encodeRequest, the bytes live in the returned pooled
// encoder, which whoever consumes the frame must Release.
func encodeBoundCall(handle uint32, req *callRequest, disableGenerated bool) (raw []byte, enc *wire.Encoder, err error) {
	e := wire.NewEncoder()
	if disableGenerated {
		e.SetGenerated(false)
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
		e.Release()
		return nil, nil, fmt.Errorf("remoting: encode bound call %s.%s: %w", req.URI, req.Method, err)
	}
	return e.Bytes(), e, nil
}

// decodeBoundCall parses a compact call frame into the handle and a
// callRequest with URI/Method left empty (the server fills them from its
// bind table). It decodes in borrow mode: large []byte arguments alias raw,
// and borrowed reports whether any does (see recycleFrame).
func decodeBoundCall(raw []byte) (handle uint32, req *callRequest, borrowed bool, err error) {
	d := wire.NewDecoder(raw)
	defer d.Release()
	d.SetBorrow(true)
	b := d.RawByte()
	if b != markBoundCall && b != markBoundCallTok {
		return 0, nil, false, fmt.Errorf("remoting: bound call marker 0x%02x, want 0x%02x or 0x%02x", b, markBoundCall, markBoundCallTok)
	}
	h := d.RawUvarint()
	req = &callRequest{}
	req.Seq = d.RawUvarint()
	req.Deadline = d.RawVarint()
	if b == markBoundCallTok {
		req.TokClient = d.RawUvarint()
		req.TokSeq = d.RawUvarint()
	}
	req.Args = d.AnySlice()
	borrowed = d.Borrowed()
	if err := d.Err(); err != nil {
		return 0, nil, borrowed, fmt.Errorf("remoting: decode bound call: %w", err)
	}
	if rest := d.Rest(); rest != 0 {
		return 0, nil, borrowed, fmt.Errorf("remoting: bound call: %d trailing bytes", rest)
	}
	if h == 0 || h > maxBindHandles {
		return 0, nil, borrowed, fmt.Errorf("remoting: bound call handle %d out of range", h)
	}
	return uint32(h), req, borrowed, nil
}

// encodeBoundReply produces the compact reply frame. bindAck, when
// non-zero, confirms a handle the client declared. The bytes live in the
// returned pooled encoder.
func encodeBoundReply(resp *callResponse, bindAck uint32, disableGenerated bool) (raw []byte, enc *wire.Encoder, err error) {
	e := wire.NewEncoder()
	if disableGenerated {
		e.SetGenerated(false)
	}
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

// decodeBoundReply parses a compact reply frame, returning the normalized
// response and the handle it confirms (0 when none). It decodes in borrow
// mode: a large []byte result aliases raw, and borrowed reports whether it
// does (see recycleFrame).
func decodeBoundReply(raw []byte) (resp *callResponse, bindAck uint32, borrowed bool, err error) {
	d := wire.NewDecoder(raw)
	defer d.Release()
	d.SetBorrow(true)
	if b := d.RawByte(); b != markBoundReply {
		return nil, 0, false, fmt.Errorf("remoting: bound reply marker 0x%02x, want 0x%02x", b, markBoundReply)
	}
	resp = &callResponse{}
	resp.Seq = d.RawUvarint()
	ack := d.RawUvarint()
	flags := d.RawByte()
	if flags&flagReplyErr != 0 {
		resp.IsErr = true
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
	} else {
		resp.Result = d.Value()
	}
	borrowed = d.Borrowed()
	if err := d.Err(); err != nil {
		return nil, 0, borrowed, fmt.Errorf("remoting: decode bound reply: %w", err)
	}
	if rest := d.Rest(); rest != 0 {
		return nil, 0, borrowed, fmt.Errorf("remoting: bound reply: %d trailing bytes", rest)
	}
	if ack > maxBindHandles {
		return nil, 0, borrowed, fmt.Errorf("remoting: bound reply ack %d out of range", ack)
	}
	return resp, uint32(ack), borrowed, nil
}
