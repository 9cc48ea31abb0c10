// The streaming surfaces of the format: Encoder and Decoder, through which
// the remoting envelopes write and read their raw header fields and their
// tagged values. Both are pooled: steady-state encodes and decodes reuse
// their buffers and interning tables, which is what brings the hot call path
// down to near-zero allocations.
package wire

import (
	"fmt"
	"reflect"
	"sync"

	"repro/internal/keep"
)

// ---------------------------------------------------------------- Encoder

// retainCap is the buffer capacity an Encoder always keeps between uses. A
// larger buffer is kept only while it is earning its size; see Release.
const retainCap = 64 << 10

// keepMax is the largest buffer an encoder its owner keeps may hold: twice
// the largest message of the paper's Fig. 8a (1 MiB), so that the buffer
// such a message grew still fits. An encoder with a larger one goes back to
// the pool, so an owner pins at most this much per encoder.
const keepMax = 2 << 20

// Encoder is the streaming encode surface of the format: what the remoting
// channel encodes request/response envelopes through, an encoder its lane or
// connection keeps (a keep.Store of Encoders). Errors are sticky: String and
// the raw writers cannot fail, Value records the first failure, and Err
// reports it.
type Encoder struct {
	e   binEncoder
	err error
}

// Encoders is the kind of every store of encoders: a remoting lane keeps
// its requests' encoders, a server connection its replies'. An encoder whose
// buffer is above keepMax goes to the pool instead of a store.
var Encoders = keep.NewKind((*Encoder).reset)

// NewEncoder returns a pooled encoder. Call Release to return it.
func NewEncoder() *Encoder { return Encoders.Get() }

// Release resets the encoder and returns it to the pool. The byte slice
// returned by Bytes is invalidated. A buffer above retainCap stays with the
// encoder when the message it just carried filled at least a quarter of it,
// so steady bulk traffic re-encodes into the same memory; the first small
// message through the encoder drops it, and sync.Pool drops idle encoders
// across collections, so a one-off giant message cannot pin its buffer.
func (e *Encoder) Release() { Encoders.Put(e) }

// reset is the rule of Encoders: the buffer trimmed by the retainCap rule,
// the interning table and the sticky error cleared; kept while the buffer is
// at most keepMax.
func (e *Encoder) reset() bool {
	if c := cap(e.e.buf); c > retainCap && len(e.e.buf) < c/4 {
		e.e.buf = nil
	} else {
		e.e.buf = e.e.buf[:0]
	}
	e.e.internReset()
	e.err = nil
	return cap(e.e.buf) <= keepMax
}

// BorrowMin is the smallest []byte payload borrow mode returns as a view
// into the input instead of a copy. Below it the memcpy is cheaper than
// pinning the receive frame for the value's lifetime, so small payloads
// always copy and their frames recycle immediately.
const BorrowMin = 1 << 10

// SetBorrow toggles zero-copy []byte borrowing (off by default): when on,
// byte payloads of BorrowMin bytes or more decode as views into the input
// buffer rather than copies. The ownership handoff is explicit — after a
// decode during which Borrowed reports true, the input buffer belongs to
// whoever holds the decoded values, and must not be recycled or rewritten
// until they are unreachable. Applies to every []byte surface that funnels
// through the decoder: ValueInto, Value/Decode, AnySlice and a PendingList
// read through it.
func (d *Decoder) SetBorrow(on bool) { d.d.opts.borrow = on }

// Borrowed reports whether any []byte decoded so far aliases the input
// buffer. False means the input can be released immediately, exactly as
// without borrow mode.
func (d *Decoder) Borrowed() bool { return d.d.borrowed }

// Bytes returns the encoded message. The slice aliases the encoder's
// internal buffer: it is valid until the next Reset or Release.
func (e *Encoder) Bytes() []byte { return e.e.buf }

// Reset drops buffered output and clears the sticky error and the interning
// table, keeping the allocated capacity.
func (e *Encoder) Reset() {
	e.e.buf = e.e.buf[:0]
	e.e.internReset()
	e.err = nil
}

// Err returns the first error recorded by Value or a nested encode.
func (e *Encoder) Err() error { return e.err }

// Encode appends the full tagged encoding of v (the same bytes
// BinFmt.Marshal produces).
func (e *Encoder) Encode(v any) error {
	if e.err != nil {
		return e.err
	}
	if err := e.e.encode(v); err != nil {
		e.err = err
	}
	return e.err
}

// String writes a tagged string.
func (e *Encoder) String(v string) {
	e.e.writeByte(tString)
	e.e.writeString(v)
}

// AnySlice writes a heterogeneous slice; failures are sticky.
func (e *Encoder) AnySlice(v []any) {
	if e.err == nil {
		e.err = e.e.encodeList(v)
	}
}

// RawByte appends one unframed byte. It exists for hand-rolled envelope
// framing layered above the tagged value model (the remoting compact call
// envelope writes a marker byte and header varints before its tagged
// payload); ordinary codecs never need it.
func (e *Encoder) RawByte(b byte) { e.e.writeByte(b) }

// RawUvarint appends an unframed unsigned varint (no tag byte). See RawByte.
func (e *Encoder) RawUvarint(u uint64) { e.e.writeUvarint(u) }

// RawVarint appends an unframed signed varint (no tag byte). See RawByte.
func (e *Encoder) RawVarint(i int64) { e.e.writeVarint(i) }

// Value writes any wire-model value, tagged as Encode writes it; failures
// are sticky.
func (e *Encoder) Value(v any) {
	if e.err != nil {
		return
	}
	if err := e.e.encode(v); err != nil {
		e.err = err
	}
}

// ---------------------------------------------------------------- Decoder

// Decoder is the streaming decode surface of the format. Errors are sticky:
// the readers return zero values once an error is recorded, and Err reports
// the first failure at the end.
type Decoder struct {
	d   binDecoder
	err error
}

var decPool = sync.Pool{New: func() any { return new(Decoder) }}

// NewDecoder returns a pooled decoder over data, borrow mode off. data is
// not copied; it must stay untouched until Release.
func NewDecoder(data []byte) *Decoder {
	d := decPool.Get().(*Decoder)
	d.d.data = data
	d.d.pos = 0
	d.d.opts = binOpts{}
	return d
}

// Reset points the decoder at data and forgets the message before it, for an
// owner that keeps one decoder and reads message after message with it (a
// connection's read loop): NewDecoder without the pool. Borrow mode
// (SetBorrow) stays as set. The names the message before interned are views
// into its frame and go with it, so a decoder kept or pooled holds no frame
// alive.
func (d *Decoder) Reset(data []byte) {
	clear(d.d.idents)
	d.d.data, d.d.pos, d.d.idents = data, 0, d.d.idents[:0]
	d.d.borrowed = false
	d.err = nil
}

// Release resets the decoder and returns it to the pool.
func (d *Decoder) Release() {
	d.Reset(nil)
	decPool.Put(d)
}

// Err returns the first error recorded by a reader.
func (d *Decoder) Err() error { return d.err }

// fail records err as the sticky error (first one wins).
func (d *Decoder) fail(err error) {
	if d.err == nil && err != nil {
		d.err = err
	}
}

// Rest reports how many bytes remain undecoded.
func (d *Decoder) Rest() int { return len(d.d.data) - d.d.pos }

// Decode reads one full tagged value (the same decoding BinFmt.Unmarshal
// performs).
func (d *Decoder) Decode() (any, error) {
	if d.err != nil {
		return nil, d.err
	}
	v, err := d.d.decode()
	if err != nil {
		d.err = err
	}
	return v, err
}

// RawByte reads one unframed byte, mirroring Encoder.RawByte.
func (d *Decoder) RawByte() byte {
	if d.err != nil {
		return 0
	}
	b, err := d.d.readByte()
	if err != nil {
		d.fail(err)
		return 0
	}
	return b
}

// RawUvarint reads an unframed unsigned varint, mirroring Encoder.RawUvarint.
func (d *Decoder) RawUvarint() uint64 {
	if d.err != nil {
		return 0
	}
	u, err := d.d.readUvarint()
	if err != nil {
		d.fail(err)
		return 0
	}
	return u
}

// RawVarint reads an unframed signed varint, mirroring Encoder.RawVarint.
func (d *Decoder) RawVarint() int64 {
	if d.err != nil {
		return 0
	}
	i, err := d.d.readVarint()
	if err != nil {
		d.fail(err)
		return 0
	}
	return i
}

// Value reads any tagged value, boxed; ValueInto reads one unboxed.
func (d *Decoder) Value() any {
	if d.err != nil {
		return nil
	}
	v, err := d.d.decode()
	if err != nil {
		d.fail(err)
		return nil
	}
	return v
}

// String reads a string.
func (d *Decoder) String() string {
	if d.err != nil {
		return ""
	}
	tag, err := d.d.readByte()
	if err != nil {
		d.fail(err)
		return ""
	}
	if tag == tString {
		s, err := d.d.readString()
		if err != nil {
			d.fail(err)
			return ""
		}
		return s
	}
	d.d.pos--
	return assignAs[string](d)
}

// readExact consumes the tag its caller matched and reads the value behind
// it into *p, which a failure leaves alone.
func readExact[T any](d *Decoder, p *T, read func(*binDecoder) (T, error)) bool {
	d.d.pos++
	if v, err := read(&d.d); err != nil {
		d.fail(err)
	} else {
		*p = v
	}
	return true
}

// ValueInto is the typed slot of a caller that knows what it expects and
// wants it unboxed (a remote call's result, read where the caller will look
// for it): it reads the next value into *dst when dst points to a type the
// Decoder has a reader for and the value's tag is exactly the one that type
// encodes to, and reports whether it did. Otherwise, and once an error is
// recorded, it consumes nothing and the caller falls back to Value and the
// conversion rules. A matching value that fails to decode records the error
// and leaves *dst alone. []byte honours borrow mode.
func (d *Decoder) ValueInto(dst any) bool {
	if d.err != nil || d.d.pos >= len(d.d.data) {
		return false
	}
	tag := d.d.data[d.d.pos]
	switch p := dst.(type) {
	case *[]byte:
		return tag == tBytes && readExact(d, p, (*binDecoder).readBytesValue)
	case *[]int:
		return tag == tIntSlice && readExact(d, p, readInt64s[int])
	case *[]int32:
		return tag == tInt32Slice && readExact(d, p, (*binDecoder).readInt32Slice)
	case *[]int64:
		return tag == tInt64Slice && readExact(d, p, readInt64s[int64])
	case *[]float32:
		return tag == tFloat32Slice && readExact(d, p, (*binDecoder).readFloat32Slice)
	case *[]float64:
		return tag == tFloat64Slice && readExact(d, p, (*binDecoder).readFloat64Slice)
	case *[]string:
		return tag == tStringSlice && readExact(d, p, (*binDecoder).readStringSlice)
	case *[]bool:
		return tag == tBoolSlice && readExact(d, p, (*binDecoder).readBoolSlice)
	case *string:
		return tag == tString && readExact(d, p, (*binDecoder).readString)
	case *bool:
		if tag != tTrue && tag != tFalse {
			return false
		}
		d.d.pos++
		*p = tag == tTrue
		return true
	case *int:
		return tag == tInt && readExact(d, p, readSigned[int])
	case *int8:
		return tag == tInt8 && readExact(d, p, readOctet[int8])
	case *int16:
		return tag == tInt16 && readExact(d, p, readSigned[int16])
	case *int32:
		return tag == tInt32 && readExact(d, p, readSigned[int32])
	case *int64:
		return tag == tInt64 && readExact(d, p, readSigned[int64])
	case *uint:
		return tag == tUint && readExact(d, p, readUnsigned[uint])
	case *uint8:
		return tag == tUint8 && readExact(d, p, readOctet[uint8])
	case *uint16:
		return tag == tUint16 && readExact(d, p, readUnsigned[uint16])
	case *uint32:
		return tag == tUint32 && readExact(d, p, readUnsigned[uint32])
	case *uint64:
		return tag == tUint64 && readExact(d, p, readUnsigned[uint64])
	case *float32:
		return tag == tFloat32 && readExact(d, p, (*binDecoder).readFloat32)
	case *float64:
		return tag == tFloat64 && readExact(d, p, (*binDecoder).readFloat64)
	}
	return false
}

// The scalar readers of ValueInto: what decode does behind the same tags,
// the conversion to the tag's width included.
func readSigned[T int | int16 | int32 | int64](d *binDecoder) (T, error) {
	i, err := d.readVarint()
	return T(i), err
}

func readUnsigned[T uint | uint16 | uint32 | uint64](d *binDecoder) (T, error) {
	u, err := d.readUvarint()
	return T(u), err
}

func readOctet[T int8 | uint8](d *binDecoder) (T, error) {
	b, err := d.readByte()
	return T(b), err
}

// assignAs is the generic fallback of String: decode the next value
// reflectively and convert it with the Assign rules.
func assignAs[T any](d *Decoder) T {
	var zero T
	v := d.Value()
	if d.err != nil {
		return zero
	}
	return convertDecoded[T](d, v)
}

func convertDecoded[T any](d *Decoder, v any) T {
	var zero T
	av, err := Assign(reflect.TypeFor[T](), v)
	if err != nil {
		d.fail(err)
		return zero
	}
	return av.Interface().(T)
}

// AssignTo converts a decoded wire value into *dst using the Assign rules,
// for a caller that holds a value Decode returned and the variable it
// belongs in.
func AssignTo(dst any, v any) error {
	rv := reflect.ValueOf(dst)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("wire: AssignTo needs a non-nil pointer, got %T", dst)
	}
	av, err := Assign(rv.Type().Elem(), v)
	if err != nil {
		return err
	}
	rv.Elem().Set(av)
	return nil
}
