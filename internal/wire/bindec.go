package wire

// This file holds the decoder half of BinFmt.

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
)

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
