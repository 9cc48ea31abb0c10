// Generated-codec support: the zero-reflection fast path of the binfmt
// codec.
//
// The reflective BinFmt encoder walks struct values with package reflect and
// boxes every field; that cost is paid on every remote call, because the
// remoting request/response envelopes are structs. parcgen (the paper's
// preprocessor) therefore emits per-type MarshalWire/UnmarshalWire methods
// for types annotated //parc:wire, and registers them here. BinFmt consults
// this registry before falling back to reflection; both paths produce
// byte-identical wire encodings, so generated and reflective peers
// interoperate freely (the fuzz tests in this package assert the identity).
//
// Encoder and Decoder are the streaming surfaces handed to generated code.
// Both are pooled: steady-state encodes and decodes reuse their buffers and
// interning tables, which is what brings the hot call path down to
// near-zero allocations.
package wire

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"

	"repro/internal/keep"
)

// Marshaler is implemented (on the pointer receiver) by types with a
// parcgen-generated binfmt codec. MarshalWire writes the struct BODY — the
// interned type name, the field count and the name/value pairs — exactly as
// the reflective encoder would; the surrounding tag byte (tStruct or
// tPtrStruct) is written by the codec fast path.
type Marshaler interface {
	MarshalWire(*Encoder) error
}

// Unmarshaler is the decode half of a generated codec. UnmarshalWire is
// called after the type name has been consumed (the registry needs it to
// find the codec) and reads the field count and the name/value pairs.
type Unmarshaler interface {
	UnmarshalWire(*Decoder) error
}

// genEnc is the encode entry for one concrete type (T and *T register
// separate entries so the fast path needs a single map lookup to know both
// the codec and the tag byte).
type genEnc struct {
	name  string
	tag   byte
	isNil func(any) bool // non-nil only for pointer entries
	enc   func(*Encoder, any) error
}

// genDec is the decode entry for one wire name.
type genDec struct {
	decVal func(*Decoder) (any, error) // returns T
	decPtr func(*Decoder) (any, error) // returns *T
}

// genTables is the immutable snapshot swapped atomically on registration,
// so the hot path reads without locking.
type genTables struct {
	byType map[reflect.Type]*genEnc
	byName map[string]*genDec
}

var (
	genMu  sync.Mutex
	genTab atomic.Pointer[genTables]
)

func init() {
	genTab.Store(&genTables{
		byType: map[reflect.Type]*genEnc{},
		byName: map[string]*genDec{},
	})
}

// generatedFor returns the encode entry for a concrete type.
func generatedFor(t reflect.Type) *genEnc {
	return genTab.Load().byType[t]
}

// generatedNameBytes returns the decode entry for a wire name, without the
// string allocation (the compiler optimises the map index with an in-place
// conversion).
func generatedNameBytes(name []byte) *genDec {
	return genTab.Load().byName[string(name)]
}

// RegisterGeneratedCodec registers the parcgen-generated codec of T under
// name. *T must implement Marshaler and Unmarshaler (parcgen emits both).
// The struct type is also registered reflectively under the same name, so
// peers without the generated code still decode it. Registering the same
// type twice is a no-op; rebinding a name to a different type panics (in
// RegisterName, matching encoding/gob).
func RegisterGeneratedCodec[T any](name string) {
	var zero T
	if _, ok := any(&zero).(Marshaler); !ok {
		panic(fmt.Sprintf("wire: RegisterGeneratedCodec(%q): *%T does not implement Marshaler", name, zero))
	}
	if _, ok := any(&zero).(Unmarshaler); !ok {
		panic(fmt.Sprintf("wire: RegisterGeneratedCodec(%q): *%T does not implement Unmarshaler", name, zero))
	}
	RegisterName(name, zero)

	valEntry := &genEnc{
		name: name,
		tag:  tStruct,
		enc: func(e *Encoder, v any) error {
			x := v.(T)
			return any(&x).(Marshaler).MarshalWire(e)
		},
	}
	ptrEntry := &genEnc{
		name:  name,
		tag:   tPtrStruct,
		isNil: func(v any) bool { p, ok := v.(*T); return ok && p == nil },
		enc: func(e *Encoder, v any) error {
			return any(v.(*T)).(Marshaler).MarshalWire(e)
		},
	}
	dec := &genDec{
		decPtr: func(d *Decoder) (any, error) {
			x := new(T)
			if err := any(x).(Unmarshaler).UnmarshalWire(d); err != nil {
				return nil, err
			}
			return x, nil
		},
		decVal: func(d *Decoder) (any, error) {
			x := new(T)
			if err := any(x).(Unmarshaler).UnmarshalWire(d); err != nil {
				return nil, err
			}
			return *x, nil
		},
	}

	genMu.Lock()
	defer genMu.Unlock()
	old := genTab.Load()
	next := &genTables{
		byType: make(map[reflect.Type]*genEnc, len(old.byType)+2),
		byName: make(map[string]*genDec, len(old.byName)+1),
	}
	for k, v := range old.byType {
		next.byType[k] = v
	}
	for k, v := range old.byName {
		next.byName[k] = v
	}
	next.byType[reflect.TypeOf(zero)] = valEntry
	next.byType[reflect.TypeOf(&zero)] = ptrEntry
	next.byName[name] = dec
	genTab.Store(next)
}

// ---------------------------------------------------------------- Encoder

// retainCap is the buffer capacity an Encoder always keeps between uses. A
// larger buffer is kept only while it is earning its size; see Release.
const retainCap = 64 << 10

// keepMax is the largest buffer an encoder its owner keeps may hold: twice
// the largest message of the paper's Fig. 8a (1 MiB), so that the buffer
// such a message grew still fits. An encoder with a larger one goes back to
// the pool, so an owner pins at most this much per encoder.
const keepMax = 2 << 20

// Encoder is the streaming encode surface of the format. It is
// handed to generated MarshalWire methods and is also what the remoting
// channel encodes request/response envelopes through, an encoder its lane or
// connection keeps (a keep.Store of Encoders). Errors are sticky: the scalar
// writers cannot fail, Value records the first failure, and Err reports it.
type Encoder struct {
	e   binEncoder
	err error
}

// Encoders is the kind of every store of encoders: a remoting lane keeps
// its requests' encoders, a server connection its replies'. An encoder whose
// buffer is above keepMax goes to the pool instead of a store.
var Encoders = keep.NewKind((*Encoder).reset)

// NewEncoder returns a pooled encoder with the generated-codec fast path
// enabled. Call Release to return it.
func NewEncoder() *Encoder { return Encoders.Get() }

// Release resets the encoder and returns it to the pool. The byte slice
// returned by Bytes is invalidated. A buffer above retainCap stays with the
// encoder when the message it just carried filled at least a quarter of it,
// so steady bulk traffic re-encodes into the same memory; the first small
// message through the encoder drops it, and sync.Pool drops idle encoders
// across collections, so a one-off giant message cannot pin its buffer.
func (e *Encoder) Release() { Encoders.Put(e) }

// reset is the rule of Encoders: the buffer trimmed by the retainCap rule,
// the interning table and the sticky error cleared and the generated-codec
// fast path on; kept while the buffer is at most keepMax.
func (e *Encoder) reset() bool {
	if c := cap(e.e.buf); c > retainCap && len(e.e.buf) < c/4 {
		e.e.buf = nil
	} else {
		e.e.buf = e.e.buf[:0]
	}
	e.e.internReset()
	e.err = nil
	e.e.opts = binOpts{generated: true}
	e.e.pub = e
	return cap(e.e.buf) <= keepMax
}

// SetGenerated toggles the generated-codec fast path (on by default); the
// tests turn it off to hold the generated codecs to the reflective path,
// which stays as their reference.
func (e *Encoder) SetGenerated(on bool) { e.e.opts.generated = on }

// SetGenerated toggles the generated-codec fast path (on by default).
func (d *Decoder) SetGenerated(on bool) { d.d.opts.generated = on }

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
// through the decoder: ByteSlice (generated codecs), Value/Decode and
// AnySlice (reflective and envelope paths).
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

// BeginStruct writes the struct-body header: the interned wire name and the
// field count. Generated MarshalWire methods call it first.
func (e *Encoder) BeginStruct(name string, fields int) {
	e.e.writeName(name)
	e.e.writeUvarint(uint64(fields))
}

// FieldName writes one interned field name.
func (e *Encoder) FieldName(name string) { e.e.writeName(name) }

// Bool writes a tagged bool.
func (e *Encoder) Bool(v bool) {
	if v {
		e.e.writeByte(tTrue)
	} else {
		e.e.writeByte(tFalse)
	}
}

// Int writes a tagged int.
func (e *Encoder) Int(v int) {
	e.e.writeByte(tInt)
	e.e.writeVarint(int64(v))
}

// Int8 writes a tagged int8.
func (e *Encoder) Int8(v int8) {
	e.e.writeByte(tInt8)
	e.e.writeByte(byte(v))
}

// Int16 writes a tagged int16.
func (e *Encoder) Int16(v int16) {
	e.e.writeByte(tInt16)
	e.e.writeVarint(int64(v))
}

// Int32 writes a tagged int32.
func (e *Encoder) Int32(v int32) {
	e.e.writeByte(tInt32)
	e.e.writeVarint(int64(v))
}

// Int64 writes a tagged int64.
func (e *Encoder) Int64(v int64) {
	e.e.writeByte(tInt64)
	e.e.writeVarint(v)
}

// Uint writes a tagged uint.
func (e *Encoder) Uint(v uint) {
	e.e.writeByte(tUint)
	e.e.writeUvarint(uint64(v))
}

// Uint8 writes a tagged uint8.
func (e *Encoder) Uint8(v uint8) {
	e.e.writeByte(tUint8)
	e.e.writeByte(v)
}

// Uint16 writes a tagged uint16.
func (e *Encoder) Uint16(v uint16) {
	e.e.writeByte(tUint16)
	e.e.writeUvarint(uint64(v))
}

// Uint32 writes a tagged uint32.
func (e *Encoder) Uint32(v uint32) {
	e.e.writeByte(tUint32)
	e.e.writeUvarint(uint64(v))
}

// Uint64 writes a tagged uint64.
func (e *Encoder) Uint64(v uint64) {
	e.e.writeByte(tUint64)
	e.e.writeUvarint(v)
}

// Float32 writes a tagged float32.
func (e *Encoder) Float32(v float32) {
	e.e.writeByte(tFloat32)
	e.e.writeFixed32(math.Float32bits(v))
}

// Float64 writes a tagged float64.
func (e *Encoder) Float64(v float64) {
	e.e.writeByte(tFloat64)
	e.e.writeFixed64(math.Float64bits(v))
}

// String writes a tagged string.
func (e *Encoder) String(v string) {
	e.e.writeByte(tString)
	e.e.writeString(v)
}

// ByteSlice writes a tagged byte slice.
func (e *Encoder) ByteSlice(v []byte) {
	e.e.writeByte(tBytes)
	e.e.writeUvarint(uint64(len(v)))
	e.e.writeBytes(v)
}

// IntSlice writes a fast-path []int.
func (e *Encoder) IntSlice(v []int) { writeInt64s(&e.e, tIntSlice, v) }

// Int32Slice writes a fast-path []int32.
func (e *Encoder) Int32Slice(v []int32) { e.e.writeInt32Slice(v) }

// Int64Slice writes a fast-path []int64.
func (e *Encoder) Int64Slice(v []int64) { writeInt64s(&e.e, tInt64Slice, v) }

// Float32Slice writes a fast-path []float32.
func (e *Encoder) Float32Slice(v []float32) { e.e.writeFloat32Slice(v) }

// Float64Slice writes a fast-path []float64.
func (e *Encoder) Float64Slice(v []float64) { e.e.writeFloat64Slice(v) }

// StringSlice writes a fast-path []string.
func (e *Encoder) StringSlice(v []string) {
	e.e.writeByte(tStringSlice)
	e.e.writeUvarint(uint64(len(v)))
	for _, s := range v {
		e.e.writeString(s)
	}
}

// BoolSlice writes a fast-path []bool.
func (e *Encoder) BoolSlice(v []bool) {
	e.e.writeByte(tBoolSlice)
	e.e.writeUvarint(uint64(len(v)))
	for _, b := range v {
		if b {
			e.e.writeByte(1)
		} else {
			e.e.writeByte(0)
		}
	}
}

// AnySlice writes a heterogeneous slice; element failures are sticky.
func (e *Encoder) AnySlice(v []any) {
	e.e.writeByte(tAnySlice)
	e.e.writeUvarint(uint64(len(v)))
	for _, el := range v {
		if e.err != nil {
			return
		}
		if err := e.e.encode(el); err != nil {
			e.err = err
			return
		}
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

// Value writes any wire-model value (the generic fallback for field types
// without a dedicated writer); failures are sticky.
func (e *Encoder) Value(v any) {
	if e.err != nil {
		return
	}
	if err := e.e.encode(v); err != nil {
		e.err = err
	}
}

// ---------------------------------------------------------------- Decoder

// Decoder is the streaming decode surface of the format, handed to
// generated UnmarshalWire methods. Errors are sticky: the typed readers
// return zero values once an error is recorded, and Err reports the first
// failure at the end.
type Decoder struct {
	d   binDecoder
	err error
}

var decPool = sync.Pool{New: func() any { return new(Decoder) }}

// NewDecoder returns a pooled decoder over data with the generated-codec
// fast path enabled. data is not copied; it must stay untouched until
// Release.
func NewDecoder(data []byte) *Decoder {
	d := decPool.Get().(*Decoder)
	d.d.data = data
	d.d.pos = 0
	d.d.opts = binOpts{generated: true}
	d.d.pub = d
	return d
}

// Reset points the decoder at data and forgets the message before it, for an
// owner that keeps one decoder and reads message after message with it (a
// connection's read loop): NewDecoder without the pool. The modes (SetBorrow,
// SetGenerated) stay as set. The names the message before interned are views
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
	d.d.pub = nil
	decPool.Put(d)
}

// Err returns the first error recorded by a reader.
func (d *Decoder) Err() error { return d.err }

// Fail records err as the sticky error (first one wins). Generated code
// uses it when a fallback conversion fails.
func (d *Decoder) Fail(err error) {
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

// BeginStruct reads the struct-body field count. Generated UnmarshalWire
// methods call it first (the wire name was already consumed by the codec
// fast path).
func (d *Decoder) BeginStruct() int {
	if d.err != nil {
		return 0
	}
	n, err := d.d.readUvarint()
	if err != nil {
		d.Fail(err)
		return 0
	}
	// A field count cannot exceed half the remaining bytes (every field
	// costs at least a 1-byte name and a 1-byte value) — the same guard the
	// reflective decoder applies, so both paths accept and reject the same
	// inputs.
	if err := d.d.checkCount(n, 2); err != nil {
		d.Fail(err)
		return 0
	}
	return int(n)
}

// FieldName reads one interned field name.
func (d *Decoder) FieldName() string {
	if d.err != nil {
		return ""
	}
	s, err := d.d.readName()
	if err != nil {
		d.Fail(err)
		return ""
	}
	return s
}

// FieldNameRaw reads one interned field name as a zero-copy view into the
// input, valid until Release. Generated codecs switch on it with
// switch string(d.FieldNameRaw()) { ... }, which the compiler compiles
// without allocating.
func (d *Decoder) FieldNameRaw() []byte {
	if d.err != nil {
		return nil
	}
	b, err := d.d.readNameBytes()
	if err != nil {
		d.Fail(err)
		return nil
	}
	return b
}

// RawByte reads one unframed byte, mirroring Encoder.RawByte.
func (d *Decoder) RawByte() byte {
	if d.err != nil {
		return 0
	}
	b, err := d.d.readByte()
	if err != nil {
		d.Fail(err)
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
		d.Fail(err)
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
		d.Fail(err)
		return 0
	}
	return i
}

// Skip consumes and discards the next tagged value (unknown fields from a
// newer peer).
func (d *Decoder) Skip() {
	if d.err != nil {
		return
	}
	if _, err := d.d.decode(); err != nil {
		d.Fail(err)
	}
}

// Value reads any tagged value (the generic fallback for field types
// without a dedicated reader).
func (d *Decoder) Value() any {
	if d.err != nil {
		return nil
	}
	v, err := d.d.decode()
	if err != nil {
		d.Fail(err)
		return nil
	}
	return v
}

// number classes for the shared numeric reader.
const (
	numInt = iota + 1
	numUint
	numFloat
)

// number consumes the next value when its tag is numeric, returning the
// class and value. When the tag is not numeric it is un-read and ok is
// false, letting the caller fall back to the generic reader.
func (d *Decoder) number() (cls int, i int64, u uint64, f float64, ok bool) {
	if d.err != nil {
		return 0, 0, 0, 0, false
	}
	tag, err := d.d.readByte()
	if err != nil {
		d.Fail(err)
		return 0, 0, 0, 0, false
	}
	switch tag {
	case tInt8:
		b, err := d.d.readByte()
		if err != nil {
			d.Fail(err)
			return 0, 0, 0, 0, false
		}
		return numInt, int64(int8(b)), 0, 0, true
	case tInt16, tInt32, tInt64, tInt:
		v, err := d.d.readVarint()
		if err != nil {
			d.Fail(err)
			return 0, 0, 0, 0, false
		}
		return numInt, v, 0, 0, true
	case tUint8:
		b, err := d.d.readByte()
		if err != nil {
			d.Fail(err)
			return 0, 0, 0, 0, false
		}
		return numUint, 0, uint64(b), 0, true
	case tUint16, tUint32, tUint64, tUint:
		v, err := d.d.readUvarint()
		if err != nil {
			d.Fail(err)
			return 0, 0, 0, 0, false
		}
		return numUint, 0, v, 0, true
	case tFloat32:
		v, err := d.d.readFixed32()
		if err != nil {
			d.Fail(err)
			return 0, 0, 0, 0, false
		}
		return numFloat, 0, 0, float64(math.Float32frombits(v)), true
	case tFloat64:
		v, err := d.d.readFixed64()
		if err != nil {
			d.Fail(err)
			return 0, 0, 0, 0, false
		}
		return numFloat, 0, 0, math.Float64frombits(v), true
	}
	d.d.pos-- // un-read the tag for the generic fallback
	return 0, 0, 0, 0, false
}

// signed converts a numeric read to int64, range-checked against [min,max]
// (the Assign narrowing rules: overflow and fractional floats are
// ErrBadConversion failures).
func (d *Decoder) signed(min, max int64) int64 {
	cls, i, u, f, ok := d.number()
	if !ok {
		return assignAs[int64](d)
	}
	switch cls {
	case numUint:
		if u > math.MaxInt64 {
			d.Fail(badConversion(fmt.Sprintf("uint value %d", u), "int"))
			return 0
		}
		i = int64(u)
	case numFloat:
		i = int64(f)
		if float64(i) != f {
			d.Fail(badConversion(fmt.Sprintf("float value %v", f), "int"))
			return 0
		}
	}
	if i < min || i > max {
		d.Fail(badConversion(fmt.Sprintf("value %d", i), fmt.Sprintf("[%d,%d]", min, max)))
		return 0
	}
	return i
}

// unsigned converts a numeric read to uint64, range-checked against max.
func (d *Decoder) unsigned(max uint64) uint64 {
	cls, i, u, f, ok := d.number()
	if !ok {
		return assignAs[uint64](d)
	}
	switch cls {
	case numInt:
		if i < 0 {
			d.Fail(badConversion(fmt.Sprintf("negative value %d", i), "uint"))
			return 0
		}
		u = uint64(i)
	case numFloat:
		if f < 0 || float64(uint64(f)) != f {
			d.Fail(badConversion(fmt.Sprintf("float value %v", f), "uint"))
			return 0
		}
		u = uint64(f)
	}
	if u > max {
		d.Fail(badConversion(fmt.Sprintf("value %d", u), fmt.Sprintf("[0,%d]", max)))
		return 0
	}
	return u
}

// Bool reads a bool.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	tag, err := d.d.readByte()
	if err != nil {
		d.Fail(err)
		return false
	}
	switch tag {
	case tTrue:
		return true
	case tFalse:
		return false
	}
	d.d.pos--
	return assignAs[bool](d)
}

// Int reads an int (any numeric tag, Assign conversion rules).
func (d *Decoder) Int() int { return int(d.signed(math.MinInt, math.MaxInt)) }

// Int8 reads an int8.
func (d *Decoder) Int8() int8 { return int8(d.signed(math.MinInt8, math.MaxInt8)) }

// Int16 reads an int16.
func (d *Decoder) Int16() int16 { return int16(d.signed(math.MinInt16, math.MaxInt16)) }

// Int32 reads an int32.
func (d *Decoder) Int32() int32 { return int32(d.signed(math.MinInt32, math.MaxInt32)) }

// Int64 reads an int64.
func (d *Decoder) Int64() int64 { return d.signed(math.MinInt64, math.MaxInt64) }

// Uint reads a uint.
func (d *Decoder) Uint() uint { return uint(d.unsigned(math.MaxUint)) }

// Uint8 reads a uint8.
func (d *Decoder) Uint8() uint8 { return uint8(d.unsigned(math.MaxUint8)) }

// Uint16 reads a uint16.
func (d *Decoder) Uint16() uint16 { return uint16(d.unsigned(math.MaxUint16)) }

// Uint32 reads a uint32.
func (d *Decoder) Uint32() uint32 { return uint32(d.unsigned(math.MaxUint32)) }

// Uint64 reads a uint64.
func (d *Decoder) Uint64() uint64 { return d.unsigned(math.MaxUint64) }

// Float32 reads a float32.
func (d *Decoder) Float32() float32 { return float32(d.float()) }

// Float64 reads a float64.
func (d *Decoder) Float64() float64 { return d.float() }

func (d *Decoder) float() float64 {
	cls, i, u, f, ok := d.number()
	if !ok {
		return assignAs[float64](d)
	}
	switch cls {
	case numInt:
		return float64(i)
	case numUint:
		return float64(u)
	}
	return f
}

// String reads a string.
func (d *Decoder) String() string {
	if d.err != nil {
		return ""
	}
	tag, err := d.d.readByte()
	if err != nil {
		d.Fail(err)
		return ""
	}
	if tag == tString {
		s, err := d.d.readString()
		if err != nil {
			d.Fail(err)
			return ""
		}
		return s
	}
	d.d.pos--
	return assignAs[string](d)
}

// StringRaw reads what String reads, as a zero-copy view into the input:
// valid while the frame is, for a reader that compares the name with one it
// already holds and copies only when it must keep it.
func (d *Decoder) StringRaw() []byte {
	if d.err == nil && d.d.pos < len(d.d.data) && d.d.data[d.d.pos] == tString {
		d.d.pos++
		b, err := d.d.readStringBytes()
		if err != nil {
			d.Fail(err)
			return nil
		}
		return b
	}
	return []byte(d.String())
}

// ByteSlice reads a []byte, honouring borrow mode (SetBorrow), which is how
// parcgen-generated codecs, whose []byte fields all decode through here, get
// zero-copy payloads without regeneration.
func (d *Decoder) ByteSlice() []byte { return sliceOf(d, tBytes, (*binDecoder).readBytesValue) }

// IntSlice reads a []int.
func (d *Decoder) IntSlice() []int { return sliceOf(d, tIntSlice, readInt64s[int]) }

// Int32Slice reads a []int32.
func (d *Decoder) Int32Slice() []int32 { return sliceOf(d, tInt32Slice, (*binDecoder).readInt32Slice) }

// Int64Slice reads a []int64.
func (d *Decoder) Int64Slice() []int64 { return sliceOf(d, tInt64Slice, readInt64s[int64]) }

// Float32Slice reads a []float32.
func (d *Decoder) Float32Slice() []float32 {
	return sliceOf(d, tFloat32Slice, (*binDecoder).readFloat32Slice)
}

// Float64Slice reads a []float64.
func (d *Decoder) Float64Slice() []float64 {
	return sliceOf(d, tFloat64Slice, (*binDecoder).readFloat64Slice)
}

// StringSlice reads a []string.
func (d *Decoder) StringSlice() []string {
	return sliceOf(d, tStringSlice, (*binDecoder).readStringSlice)
}

// BoolSlice reads a []bool.
func (d *Decoder) BoolSlice() []bool { return sliceOf(d, tBoolSlice, (*binDecoder).readBoolSlice) }

// sliceOf reads the next value with read when it starts with tag, the tag T
// encodes to: the slice is the only allocation, nothing is boxed. Anything
// else (nil, a []any from an older peer) goes through the generic reader
// and the Assign conversion rules.
func sliceOf[T any](d *Decoder, tag byte, read func(*binDecoder) (T, error)) T {
	if d.err != nil || d.d.pos >= len(d.d.data) || d.d.data[d.d.pos] != tag {
		return typedSlice[T](d)
	}
	var v T
	readExact(d, &v, read)
	return v
}

// readExact consumes the tag its caller matched and reads the value behind
// it into *p, which a failure leaves alone.
func readExact[T any](d *Decoder, p *T, read func(*binDecoder) (T, error)) bool {
	d.d.pos++
	if v, err := read(&d.d); err != nil {
		d.Fail(err)
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

// AnySlice reads a []any into a fresh backing array.
func (d *Decoder) AnySlice() []any { return d.AnySliceInto(nil) }

// AnySliceInto reads a []any, decoding the slice directly (no detour
// through a boxed `any`) into dst's backing array when the elements fit
// its capacity, and into a fresh one otherwise. It is for a caller that
// owns a reusable array, as the remoting server's call record does for the
// argument list every request decodes; the elements are fresh values
// either way. Anything that is not the plain tagged encoding (nil, a
// foreign or legacy shape) takes the slow conversion path and ignores dst.
func (d *Decoder) AnySliceInto(dst []any) []any {
	if d.err != nil {
		return nil
	}
	if d.d.pos >= len(d.d.data) || d.d.data[d.d.pos] != tAnySlice {
		return typedSlice[[]any](d)
	}
	d.d.pos++
	n, err := d.d.readUvarint()
	if err != nil {
		d.Fail(err)
		return nil
	}
	if err := d.d.checkCount(n, 1); err != nil {
		d.Fail(err)
		return nil
	}
	var out []any
	if dst != nil && uint64(cap(dst)) >= n {
		out = dst[:n]
	} else {
		out = make([]any, n)
	}
	for i := range out {
		v, err := d.d.decode()
		if err != nil {
			d.Fail(err)
			return nil
		}
		out[i] = v
	}
	return out
}

// typedSlice reads the next value, which the fast-path slice decoders
// already return as the right concrete type; mismatches (a []any from an
// older peer, nil) go through the Assign conversion rules.
func typedSlice[T any](d *Decoder) T {
	var zero T
	v := d.Value()
	if v == nil {
		return zero
	}
	if s, ok := v.(T); ok {
		return s
	}
	return convertDecoded[T](d, v)
}

// assignAs is the generic fallback of the typed readers: decode the next
// value reflectively and convert it with the Assign rules.
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
		d.Fail(err)
		return zero
	}
	return av.Interface().(T)
}

// AssignTo converts a decoded wire value into *dst using the Assign rules;
// it is the generic field fallback of generated UnmarshalWire methods.
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
