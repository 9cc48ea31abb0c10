package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
)

// BinFmt is the compact tagged binary codec, the analogue of the .NET
// BinaryFormatter used by the remoting TCP channel. Struct type and field
// names are interned per message: the first occurrence carries the string,
// later occurrences carry a small back-reference, mirroring the
// BinaryFormatter's object/string id tables. Like the BinaryFormatter, it
// walks a struct with reflection, field by field.
type BinFmt struct{}

// Name reports the format's name, "binfmt".
func (BinFmt) Name() string { return "binfmt" }

// Marshal encodes v. The returned slice is freshly allocated and owned by
// the caller; hot paths that can scope the buffer's lifetime use a pooled
// Encoder directly instead.
func (BinFmt) Marshal(v any) ([]byte, error) {
	e := NewEncoder()
	defer e.Release()
	if err := e.Encode(v); err != nil {
		return nil, err
	}
	return append([]byte(nil), e.Bytes()...), nil
}

// Unmarshal decodes a value produced by Marshal. Integers decode to the
// width they were encoded with, struct values decode to T and struct
// pointers to *T for the registered type T, heterogeneous slices decode to
// []any and maps to map[string]any.
func (BinFmt) Unmarshal(data []byte) (any, error) {
	d := NewDecoder(data)
	defer d.Release()
	v, err := d.Decode()
	if err != nil {
		return nil, err
	}
	if rest := d.Rest(); rest != 0 {
		return nil, fmt.Errorf("wire/binfmt: %d trailing bytes after value", rest)
	}
	return v, nil
}

// binOpts holds a decoder's modes.
type binOpts struct {
	// borrow lets the decoder return []byte payloads of BorrowMin bytes or
	// more as views into the input instead of copies. See Decoder.SetBorrow
	// for the ownership contract.
	borrow bool
}

type binEncoder struct {
	buf []byte
	// Interned names: a realistic message uses a handful, so the first
	// identListMax live in a linearly scanned slice (far cheaper than map
	// operations on the envelope hot path); only pathological messages
	// spill into the overflow map.
	identList []string
	idents    map[string]int // overflow beyond identListMax, ids offset by identListMax
}

// identListMax is the slice-probed intern capacity before the overflow map
// kicks in.
const identListMax = 16

func (e *binEncoder) writeByte(b byte)    { e.buf = append(e.buf, b) }
func (e *binEncoder) writeBytes(b []byte) { e.buf = append(e.buf, b...) }

func (e *binEncoder) writeUvarint(u uint64) {
	e.buf = binary.AppendUvarint(e.buf, u)
}

func (e *binEncoder) writeVarint(i int64) {
	e.buf = binary.AppendVarint(e.buf, i)
}

func (e *binEncoder) writeFixed32(u uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, u)
}

func (e *binEncoder) writeFixed64(u uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, u)
}

func (e *binEncoder) writeString(s string) {
	e.writeUvarint(uint64(len(s)))
	e.writeBytes([]byte(s))
}

// writeName writes an identifier (type or field name), interned. Interned
// references are encoded as uvarint(id+1) following a zero length, a scheme
// that keeps plain strings unambiguous.
func (e *binEncoder) writeName(s string) {
	if id, ok := e.internLookup(s); ok {
		e.writeUvarint(0)
		e.writeUvarint(uint64(id + 1))
		return
	}
	e.internAdd(s)
	// Length+1 distinguishes a literal from the back-reference marker.
	e.writeUvarint(uint64(len(s)) + 1)
	e.writeBytes([]byte(s))
}

// internLookup finds an already-interned name's id.
func (e *binEncoder) internLookup(s string) (int, bool) {
	for i, v := range e.identList {
		if v == s {
			return i, true
		}
	}
	if e.idents != nil {
		if id, ok := e.idents[s]; ok {
			return id, true
		}
	}
	return 0, false
}

// internAdd assigns the next sequential id to s (slice first, then the
// overflow map), matching the decoder's append-order numbering.
func (e *binEncoder) internAdd(s string) {
	if len(e.identList) < identListMax {
		e.identList = append(e.identList, s)
		return
	}
	if e.idents == nil {
		e.idents = make(map[string]int)
	}
	e.idents[s] = identListMax + len(e.idents)
}

// internReset clears the per-message dictionary, keeping capacity.
func (e *binEncoder) internReset() {
	e.identList = e.identList[:0]
	clear(e.idents)
}

func (e *binEncoder) encode(v any) error {
	if v == nil {
		e.writeByte(tNil)
		return nil
	}
	switch x := v.(type) {
	case bool:
		if x {
			e.writeByte(tTrue)
		} else {
			e.writeByte(tFalse)
		}
		return nil
	case int8:
		e.writeByte(tInt8)
		e.writeByte(byte(x))
		return nil
	case int16:
		e.writeByte(tInt16)
		e.writeVarint(int64(x))
		return nil
	case int32:
		e.writeByte(tInt32)
		e.writeVarint(int64(x))
		return nil
	case int64:
		e.writeByte(tInt64)
		e.writeVarint(x)
		return nil
	case int:
		e.writeByte(tInt)
		e.writeVarint(int64(x))
		return nil
	case uint8:
		e.writeByte(tUint8)
		e.writeByte(x)
		return nil
	case uint16:
		e.writeByte(tUint16)
		e.writeUvarint(uint64(x))
		return nil
	case uint32:
		e.writeByte(tUint32)
		e.writeUvarint(uint64(x))
		return nil
	case uint64:
		e.writeByte(tUint64)
		e.writeUvarint(x)
		return nil
	case uint:
		e.writeByte(tUint)
		e.writeUvarint(uint64(x))
		return nil
	case float32:
		e.writeByte(tFloat32)
		e.writeFixed32(math.Float32bits(x))
		return nil
	case float64:
		e.writeByte(tFloat64)
		e.writeFixed64(math.Float64bits(x))
		return nil
	case string:
		e.writeByte(tString)
		e.writeString(x)
		return nil
	case []byte:
		e.writeByte(tBytes)
		e.writeUvarint(uint64(len(x)))
		e.writeBytes(x)
		return nil
	case []int:
		writeInt64s(e, tIntSlice, x)
		return nil
	case []int32:
		e.writeInt32Slice(x)
		return nil
	case []int64:
		writeInt64s(e, tInt64Slice, x)
		return nil
	case []float32:
		e.writeFloat32Slice(x)
		return nil
	case []float64:
		e.writeFloat64Slice(x)
		return nil
	case []string:
		e.writeByte(tStringSlice)
		e.writeUvarint(uint64(len(x)))
		for _, s := range x {
			e.writeString(s)
		}
		return nil
	case []bool:
		e.writeByte(tBoolSlice)
		e.writeUvarint(uint64(len(x)))
		for _, b := range x {
			if b {
				e.writeByte(1)
			} else {
				e.writeByte(0)
			}
		}
		return nil
	case []any:
		e.writeByte(tAnySlice)
		e.writeUvarint(uint64(len(x)))
		for _, el := range x {
			if err := e.encode(el); err != nil {
				return err
			}
		}
		return nil
	case map[string]any:
		return e.encodeMap(reflect.ValueOf(x))
	}
	return e.encodeReflect(reflect.ValueOf(v))
}

// fixedRun starts a numeric slice: the tag, the count, and room for n
// elements of size bytes, grown once, which the caller fills.
func (e *binEncoder) fixedRun(tag byte, n, size int) []byte {
	e.writeByte(tag)
	e.writeUvarint(uint64(n))
	at := len(e.buf)
	e.buf = slices.Grow(e.buf, n*size)[:at+n*size]
	return e.buf[at:]
}

// writeInt64s is []int and []int64, which differ in tag only.
func writeInt64s[T int | int64](e *binEncoder, tag byte, x []T) {
	b := e.fixedRun(tag, len(x), 8)
	for i, n := range x {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(n))
	}
}

func (e *binEncoder) writeInt32Slice(x []int32) {
	b := e.fixedRun(tInt32Slice, len(x), 4)
	for i, n := range x {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(n))
	}
}

func (e *binEncoder) writeFloat32Slice(x []float32) {
	b := e.fixedRun(tFloat32Slice, len(x), 4)
	for i, f := range x {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(f))
	}
}

func (e *binEncoder) writeFloat64Slice(x []float64) {
	b := e.fixedRun(tFloat64Slice, len(x), 8)
	for i, f := range x {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(f))
	}
}

// encodeReflect handles struct values, struct pointers, generic slices and
// string-keyed maps that did not match a fast path.
func (e *binEncoder) encodeReflect(rv reflect.Value) error {
	switch rv.Kind() {
	case reflect.Pointer:
		if rv.IsNil() {
			e.writeByte(tNil)
			return nil
		}
		if rv.Elem().Kind() == reflect.Struct {
			e.writeByte(tPtrStruct)
			return e.encodeStructBody(rv.Elem())
		}
		return e.encode(rv.Elem().Interface())
	case reflect.Struct:
		e.writeByte(tStruct)
		return e.encodeStructBody(rv)
	case reflect.Slice, reflect.Array:
		e.writeByte(tAnySlice)
		e.writeUvarint(uint64(rv.Len()))
		for i := 0; i < rv.Len(); i++ {
			if err := e.encode(rv.Index(i).Interface()); err != nil {
				return err
			}
		}
		return nil
	case reflect.Map:
		if rv.Type().Key().Kind() != reflect.String {
			return &UnsupportedTypeError{Type: rv.Type()}
		}
		return e.encodeMap(rv)
	case reflect.Interface:
		if rv.IsNil() {
			e.writeByte(tNil)
			return nil
		}
		return e.encode(rv.Elem().Interface())
	}
	return &UnsupportedTypeError{Type: rv.Type()}
}

func (e *binEncoder) encodeMap(rv reflect.Value) error {
	e.writeByte(tMap)
	keys := rv.MapKeys()
	// Deterministic key order keeps encodings reproducible for golden
	// tests and size accounting.
	sorted := make([]string, len(keys))
	for i, k := range keys {
		sorted[i] = k.String()
	}
	sort.Strings(sorted)
	e.writeUvarint(uint64(len(sorted)))
	for _, k := range sorted {
		e.writeString(k)
		if err := e.encode(rv.MapIndex(reflect.ValueOf(k)).Interface()); err != nil {
			return err
		}
	}
	return nil
}

func (e *binEncoder) encodeStructBody(rv reflect.Value) error {
	t := rv.Type()
	name, ok := nameOf(t)
	if !ok {
		return &UnsupportedTypeError{Type: t}
	}
	fields := fieldsOf(t)
	e.writeName(name)
	e.writeUvarint(uint64(len(fields)))
	for _, f := range fields {
		e.writeName(f.name)
		if err := e.encode(rv.Field(f.index).Interface()); err != nil {
			return err
		}
	}
	return nil
}

type binDecoder struct {
	data []byte
	pos  int
	opts binOpts
	// idents holds interned names as zero-copy views into data (valid for
	// the decode's duration).
	idents [][]byte
	// borrowed records that at least one decoded []byte aliases data
	// (opts.borrow): the producer of data must not recycle it while the
	// decoded values live.
	borrowed bool
}

// checkCount guards a decoded element count against the remaining input:
// every element costs at least elemSize bytes, so a count that cannot fit
// is corrupt and must be rejected before it sizes an allocation.
func (d *binDecoder) checkCount(n uint64, elemSize int) error {
	if n > uint64(len(d.data)-d.pos)/uint64(elemSize) {
		return fmt.Errorf("wire/binfmt: count %d exceeds remaining %d bytes at offset %d",
			n, len(d.data)-d.pos, d.pos)
	}
	return nil
}

// readBytesValue reads a length-prefixed byte payload (tBytes tag already
// consumed). In borrow mode, payloads of BorrowMin bytes or more are
// sliced straight out of the input (full-capacity-clipped so appends
// cannot scribble on neighbouring frame bytes) and the decoder is marked
// borrowed; smaller payloads are always copied, so small messages never
// pin their receive frame.
func (d *binDecoder) readBytesValue() ([]byte, error) {
	n, err := d.readUvarint()
	if err != nil {
		return nil, err
	}
	if err := d.checkCount(n, 1); err != nil {
		return nil, err
	}
	if d.pos+int(n) > len(d.data) {
		return nil, fmt.Errorf("wire/binfmt: truncated bytes of length %d", n)
	}
	if d.opts.borrow && int(n) >= BorrowMin {
		b := d.data[d.pos : d.pos+int(n) : d.pos+int(n)]
		d.pos += int(n)
		d.borrowed = true
		return b, nil
	}
	b := make([]byte, n)
	copy(b, d.data[d.pos:])
	d.pos += int(n)
	return b, nil
}

func (d *binDecoder) readByte() (byte, error) {
	if d.pos >= len(d.data) {
		return 0, fmt.Errorf("wire/binfmt: truncated message at offset %d", d.pos)
	}
	b := d.data[d.pos]
	d.pos++
	return b, nil
}

func (d *binDecoder) readUvarint() (uint64, error) {
	u, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("wire/binfmt: bad uvarint at offset %d", d.pos)
	}
	d.pos += n
	return u, nil
}

func (d *binDecoder) readVarint() (int64, error) {
	i, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("wire/binfmt: bad varint at offset %d", d.pos)
	}
	d.pos += n
	return i, nil
}

func (d *binDecoder) readFixed32() (uint32, error) {
	if d.pos+4 > len(d.data) {
		return 0, fmt.Errorf("wire/binfmt: truncated fixed32 at offset %d", d.pos)
	}
	u := binary.LittleEndian.Uint32(d.data[d.pos:])
	d.pos += 4
	return u, nil
}

func (d *binDecoder) readFixed64() (uint64, error) {
	if d.pos+8 > len(d.data) {
		return 0, fmt.Errorf("wire/binfmt: truncated fixed64 at offset %d", d.pos)
	}
	u := binary.LittleEndian.Uint64(d.data[d.pos:])
	d.pos += 8
	return u, nil
}

func (d *binDecoder) readFloat32() (float32, error) {
	u, err := d.readFixed32()
	return math.Float32frombits(u), err
}

func (d *binDecoder) readFloat64() (float64, error) {
	u, err := d.readFixed64()
	return math.Float64frombits(u), err
}

func (d *binDecoder) readString() (string, error) {
	n, err := d.readUvarint()
	if err != nil {
		return "", err
	}
	if err := d.checkCount(n, 1); err != nil {
		return "", err
	}
	if d.pos+int(n) > len(d.data) {
		return "", fmt.Errorf("wire/binfmt: truncated string of length %d at offset %d", n, d.pos)
	}
	s := string(d.data[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s, nil
}

// readName reads an identifier (type or field name). The names a message
// interns are kept as views into d.data, valid until the decoder is reset.
func (d *binDecoder) readName() (string, error) {
	n, err := d.readUvarint()
	if err != nil {
		return "", err
	}
	if n == 0 {
		id, err := d.readUvarint()
		if err != nil {
			return "", err
		}
		idx := int(id) - 1
		if idx < 0 || idx >= len(d.idents) {
			return "", fmt.Errorf("wire/binfmt: bad name back-reference %d", id)
		}
		return string(d.idents[idx]), nil
	}
	// n >= 1 here (literal marker is length+1); bound it in uint64 space
	// BEFORE any int conversion — a crafted length near 2^63 would wrap
	// int(n)-1 positive and slip past a signed check into a slice panic.
	if err := d.checkCount(n-1, 1); err != nil {
		return "", err
	}
	length := int(n - 1)
	if d.pos+length > len(d.data) {
		return "", fmt.Errorf("wire/binfmt: truncated name of length %d at offset %d", length, d.pos)
	}
	b := d.data[d.pos : d.pos+length : d.pos+length]
	d.pos += length
	d.idents = append(d.idents, b)
	return string(b), nil
}

// readStringBytes reads a length-prefixed string as a zero-copy view.
func (d *binDecoder) readStringBytes() ([]byte, error) {
	n, err := d.readUvarint()
	if err != nil {
		return nil, err
	}
	if err := d.checkCount(n, 1); err != nil {
		return nil, err
	}
	if d.pos+int(n) > len(d.data) {
		return nil, fmt.Errorf("wire/binfmt: truncated string of length %d at offset %d", n, d.pos)
	}
	b := d.data[d.pos : d.pos+int(n) : d.pos+int(n)]
	d.pos += int(n)
	return b, nil
}

// boxed is a typed reader's result as decode returns it: nil on failure.
func boxed[T any](v T, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	return v, nil
}

// sliceHeader reads what follows a fast-path slice's tag: the count, checked
// once against the input that is left at elemSize bytes an element at least.
func (d *binDecoder) sliceHeader(elemSize int) (int, error) {
	n, err := d.readUvarint()
	if err != nil {
		return 0, err
	}
	if err := d.checkCount(n, elemSize); err != nil {
		return 0, err
	}
	return int(n), nil
}

// fixedRun reads a numeric slice's header and returns the n*size bytes of
// its elements, which sliceHeader has shown to be there, so the typed
// readers below (shared by decode and the Decoder's box-free readers) loop
// over them with nothing left to fail.
func (d *binDecoder) fixedRun(size int) ([]byte, int, error) {
	n, err := d.sliceHeader(size)
	if err != nil {
		return nil, 0, err
	}
	b := d.data[d.pos : d.pos+n*size]
	d.pos += len(b)
	return b, n, nil
}

// readInt64s is []int and []int64, which differ in tag only.
func readInt64s[T int | int64](d *binDecoder) ([]T, error) {
	b, n, err := d.fixedRun(8)
	if err != nil {
		return nil, err
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

func (d *binDecoder) readInt32Slice() ([]int32, error) {
	b, n, err := d.fixedRun(4)
	if err != nil {
		return nil, err
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, nil
}

func (d *binDecoder) readFloat32Slice() ([]float32, error) {
	b, n, err := d.fixedRun(4)
	if err != nil {
		return nil, err
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, nil
}

func (d *binDecoder) readFloat64Slice() ([]float64, error) {
	b, n, err := d.fixedRun(8)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

func (d *binDecoder) readStringSlice() ([]string, error) {
	n, err := d.sliceHeader(1)
	if err != nil {
		return nil, err
	}
	out := make([]string, n)
	for i := range out {
		if out[i], err = d.readString(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (d *binDecoder) readBoolSlice() ([]bool, error) {
	n, err := d.sliceHeader(1)
	if err != nil {
		return nil, err
	}
	out := make([]bool, n)
	for i, b := range d.data[d.pos : d.pos+n] {
		out[i] = b != 0
	}
	d.pos += n
	return out, nil
}

func (d *binDecoder) decode() (any, error) {
	tag, err := d.readByte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tNil:
		return nil, nil
	case tTrue:
		return true, nil
	case tFalse:
		return false, nil
	case tInt8:
		b, err := d.readByte()
		return int8(b), err
	case tInt16:
		i, err := d.readVarint()
		return int16(i), err
	case tInt32:
		i, err := d.readVarint()
		return int32(i), err
	case tInt64:
		return d.readVarint()
	case tInt:
		i, err := d.readVarint()
		return int(i), err
	case tUint8:
		b, err := d.readByte()
		return b, err
	case tUint16:
		u, err := d.readUvarint()
		return uint16(u), err
	case tUint32:
		u, err := d.readUvarint()
		return uint32(u), err
	case tUint64:
		return d.readUvarint()
	case tUint:
		u, err := d.readUvarint()
		return uint(u), err
	case tFloat32:
		return boxed(d.readFloat32())
	case tFloat64:
		return boxed(d.readFloat64())
	case tString:
		return d.readString()
	case tBytes:
		return d.readBytesValue()
	case tIntSlice:
		return boxed(readInt64s[int](d))
	case tInt32Slice:
		return boxed(d.readInt32Slice())
	case tInt64Slice:
		return boxed(readInt64s[int64](d))
	case tFloat32Slice:
		return boxed(d.readFloat32Slice())
	case tFloat64Slice:
		return boxed(d.readFloat64Slice())
	case tStringSlice:
		return boxed(d.readStringSlice())
	case tBoolSlice:
		return boxed(d.readBoolSlice())
	case tAnySlice:
		n, err := d.readUvarint()
		if err != nil {
			return nil, err
		}
		if err := d.checkCount(n, 1); err != nil {
			return nil, err
		}
		out := make([]any, n)
		for i := range out {
			v, err := d.decode()
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	case tMap:
		n, err := d.readUvarint()
		if err != nil {
			return nil, err
		}
		if err := d.checkCount(n, 2); err != nil {
			return nil, err
		}
		out := make(map[string]any, n)
		for i := uint64(0); i < n; i++ {
			k, err := d.readString()
			if err != nil {
				return nil, err
			}
			v, err := d.decode()
			if err != nil {
				return nil, err
			}
			out[k] = v
		}
		return out, nil
	case tStruct:
		return d.decodeStructAny(false)
	case tPtrStruct:
		return d.decodeStructAny(true)
	}
	return nil, fmt.Errorf("wire/binfmt: unknown tag 0x%02x at offset %d", tag, d.pos-1)
}

// decodeStructAny decodes a struct body. ptr selects whether the caller saw
// tPtrStruct (*T) or tStruct (T).
func (d *binDecoder) decodeStructAny(ptr bool) (any, error) {
	name, err := d.readName()
	if err != nil {
		return nil, err
	}
	v, err := d.decodeStructFields(name)
	if err != nil {
		return nil, err
	}
	if ptr {
		return v.Interface(), nil
	}
	return v.Elem().Interface(), nil
}

// decodeStructFields reads a struct body reflectively (the wire name has
// already been consumed), returning a pointer to a fresh struct.
func (d *binDecoder) decodeStructFields(name string) (reflect.Value, error) {
	t, ok := RegisteredType(name)
	if !ok {
		return reflect.Value{}, &UnknownTypeError{Name: name}
	}
	n, err := d.readUvarint()
	if err != nil {
		return reflect.Value{}, err
	}
	if err := d.checkCount(n, 2); err != nil {
		return reflect.Value{}, err
	}
	ptr := reflect.New(t)
	for i := uint64(0); i < n; i++ {
		fname, err := d.readName()
		if err != nil {
			return reflect.Value{}, err
		}
		v, err := d.decode()
		if err != nil {
			return reflect.Value{}, err
		}
		if err := setStructField(ptr.Elem(), fname, v); err != nil {
			return reflect.Value{}, err
		}
	}
	return ptr, nil
}

// setStructField assigns a decoded value to the named field, tolerating
// fields removed on the receiving side (the value is discarded) so that
// schema evolution does not break old peers.
func setStructField(st reflect.Value, name string, v any) error {
	f := st.FieldByName(name)
	if !f.IsValid() {
		return nil
	}
	av, err := Assign(f.Type(), v)
	if err != nil {
		return fmt.Errorf("wire: field %s.%s: %w", st.Type(), name, err)
	}
	f.Set(av)
	return nil
}
