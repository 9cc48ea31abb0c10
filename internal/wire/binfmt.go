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
		return e.encodeList(x)
	case *[]any:
		// The list it points at, as the reflective path writes it, without
		// boxing the list: a batch's argument lists are sent this way.
		if x == nil {
			e.writeByte(tNil)
			return nil
		}
		return e.encodeList(*x)
	case map[string]any:
		return e.encodeMap(reflect.ValueOf(x))
	}
	return e.encodeReflect(reflect.ValueOf(v))
}

func (e *binEncoder) encodeList(x []any) error {
	e.writeByte(tAnySlice)
	e.writeUvarint(uint64(len(x)))
	for _, el := range x {
		if err := e.encode(el); err != nil {
			return err
		}
	}
	return nil
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
