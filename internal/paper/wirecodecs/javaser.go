package wirecodecs

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"

	"repro/internal/wire"
)

// JavaSer is the analogue of Java object serialisation as used by RMI in the
// paper's baseline. Compared with wire.BinFmt it is deliberately heavier:
//
//   - every message starts with a stream magic and protocol version,
//     mirroring java.io.ObjectOutputStream's 4-byte header;
//   - every struct occurrence carries a full class descriptor (type name
//     plus all field names) — there is no per-message interning;
//   - numeric array fast paths carry a Java-style array class name
//     ("[I", "[D", ...);
//   - the whole payload is wrapped in block-data segments of at most
//     blockSize bytes, each with a header, mirroring the TC_BLOCKDATA
//     chunking of the Java stream protocol.
//
// These overheads are what make the RMI stack's messages measurably larger
// than the remoting stack's in experiment E1/A3. Scalars (nil, booleans,
// numbers, strings and byte slices) are encoded as wire encodes them.
type JavaSer struct{}

// Name implements Codec.
func (JavaSer) Name() string { return "javaser" }

var jserMagic = [4]byte{0xAC, 0xED, 0x00, 0x05}

// blockSize is the maximum block-data segment length (1 KiB, like the Java
// serialisation buffer).
const blockSize = 1024

// Tag bytes of the values JavaSer lays out itself. They number the kinds as
// wire's tags do, so a JavaSer body reads as a BinFmt value up to the
// descriptors; the goldens in testdata hold the two numberings together.
const (
	tIntSlice     byte = 17
	tInt32Slice   byte = 18
	tInt64Slice   byte = 19
	tFloat32Slice byte = 20
	tFloat64Slice byte = 21
	tStringSlice  byte = 22
	tBoolSlice    byte = 23
	tAnySlice          = wire.TagAnySlice
	tMap          byte = 25
	tStruct       byte = 26
	tPtrStruct    byte = 27
)

// Marshal implements Codec.
func (JavaSer) Marshal(v any) ([]byte, error) {
	e := jserEncoder{scalars: wire.NewEncoder()}
	defer e.scalars.Release()
	if err := e.encode(v); err != nil {
		return nil, err
	}
	body := e.buf
	out := make([]byte, 0, len(body)+len(body)/blockSize*5+16)
	out = append(out, jserMagic[:]...)
	for off := 0; off < len(body); off += blockSize {
		end := off + blockSize
		if end > len(body) {
			end = len(body)
		}
		seg := body[off:end]
		if len(seg) < 256 {
			// Short block: TC_BLOCKDATA, 1-byte length.
			out = append(out, 0x77, byte(len(seg)))
		} else {
			// Long block: TC_BLOCKDATALONG, 4-byte length.
			out = append(out, 0x7A)
			out = binary.BigEndian.AppendUint32(out, uint32(len(seg)))
		}
		out = append(out, seg...)
	}
	if len(body) == 0 {
		out = append(out, 0x77, 0)
	}
	return out, nil
}

// Unmarshal implements Codec.
func (JavaSer) Unmarshal(data []byte) (any, error) {
	if len(data) < 4 || data[0] != jserMagic[0] || data[1] != jserMagic[1] ||
		data[2] != jserMagic[2] || data[3] != jserMagic[3] {
		return nil, fmt.Errorf("javaser: bad stream magic")
	}
	pos := 4
	var body []byte
	for pos < len(data) {
		switch data[pos] {
		case 0x77:
			if pos+2 > len(data) {
				return nil, fmt.Errorf("javaser: truncated block header at %d", pos)
			}
			n := int(data[pos+1])
			pos += 2
			if pos+n > len(data) {
				return nil, fmt.Errorf("javaser: truncated block of length %d at %d", n, pos)
			}
			body = append(body, data[pos:pos+n]...)
			pos += n
		case 0x7A:
			if pos+5 > len(data) {
				return nil, fmt.Errorf("javaser: truncated long block header at %d", pos)
			}
			n := int(binary.BigEndian.Uint32(data[pos+1:]))
			pos += 5
			if pos+n > len(data) {
				return nil, fmt.Errorf("javaser: truncated long block of length %d at %d", n, pos)
			}
			body = append(body, data[pos:pos+n]...)
			pos += n
		default:
			return nil, fmt.Errorf("javaser: unexpected block tag 0x%02x at %d", data[pos], pos)
		}
	}
	if len(body) == 0 {
		return nil, fmt.Errorf("javaser: empty stream body")
	}
	d := &jserDecoder{data: body}
	v, err := d.decode()
	if err != nil {
		return nil, err
	}
	if d.pos != len(d.data) {
		return nil, fmt.Errorf("javaser: %d trailing bytes after value", len(d.data)-d.pos)
	}
	return v, nil
}

// jserEncoder walks a value into a JavaSer body: slices, maps and structs
// here, scalars through a wire.Encoder.
type jserEncoder struct {
	buf     []byte
	scalars *wire.Encoder
}

func (e *jserEncoder) writeUvarint(u uint64) { e.buf = binary.AppendUvarint(e.buf, u) }

func (e *jserEncoder) writeString(s string) {
	e.writeUvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// scalar appends v's tagged encoding as wire writes it.
func (e *jserEncoder) scalar(v any) error {
	e.scalars.Reset()
	if err := e.scalars.Encode(v); err != nil {
		return err
	}
	e.buf = append(e.buf, e.scalars.Bytes()...)
	return nil
}

// array starts a fast-path slice: its tag, its Java array class name and
// its length.
func (e *jserEncoder) array(tag byte, class string, n int) {
	e.buf = append(e.buf, tag)
	e.writeString(class)
	e.writeUvarint(uint64(n))
}

// fixedRun starts a numeric slice and returns room for its n elements of
// size bytes, grown once, which the caller fills.
func (e *jserEncoder) fixedRun(tag byte, class string, n, size int) []byte {
	e.array(tag, class, n)
	at := len(e.buf)
	e.buf = slices.Grow(e.buf, n*size)[:at+n*size]
	return e.buf[at:]
}

func (e *jserEncoder) encode(v any) error {
	le := binary.LittleEndian
	switch x := v.(type) {
	case nil, bool, int8, int16, int32, int64, int, uint8, uint16, uint32, uint64, uint,
		float32, float64, string, []byte:
		return e.scalar(v)
	case []int:
		b := e.fixedRun(tIntSlice, "[J", len(x), 8)
		for i, n := range x {
			le.PutUint64(b[8*i:], uint64(n))
		}
	case []int32:
		b := e.fixedRun(tInt32Slice, "[I", len(x), 4)
		for i, n := range x {
			le.PutUint32(b[4*i:], uint32(n))
		}
	case []int64:
		b := e.fixedRun(tInt64Slice, "[J", len(x), 8)
		for i, n := range x {
			le.PutUint64(b[8*i:], uint64(n))
		}
	case []float32:
		b := e.fixedRun(tFloat32Slice, "[F", len(x), 4)
		for i, f := range x {
			le.PutUint32(b[4*i:], math.Float32bits(f))
		}
	case []float64:
		b := e.fixedRun(tFloat64Slice, "[D", len(x), 8)
		for i, f := range x {
			le.PutUint64(b[8*i:], math.Float64bits(f))
		}
	case []bool:
		b := e.fixedRun(tBoolSlice, "[Z", len(x), 1)
		for i, t := range x {
			if t {
				b[i] = 1
			} else {
				b[i] = 0
			}
		}
	case []string:
		e.array(tStringSlice, "[Ljava.lang.String;", len(x))
		for _, s := range x {
			e.writeString(s)
		}
	case []any:
		e.buf = append(e.buf, tAnySlice)
		e.writeUvarint(uint64(len(x)))
		for _, el := range x {
			if err := e.encode(el); err != nil {
				return err
			}
		}
	case map[string]any:
		return e.encodeMap(reflect.ValueOf(x))
	default:
		return e.encodeReflect(reflect.ValueOf(v))
	}
	return nil
}

// encodeReflect handles struct values, struct pointers, generic slices and
// string-keyed maps that did not match a fast path.
func (e *jserEncoder) encodeReflect(rv reflect.Value) error {
	switch rv.Kind() {
	case reflect.Pointer:
		if rv.IsNil() {
			return e.scalar(nil)
		}
		if rv.Elem().Kind() == reflect.Struct {
			e.buf = append(e.buf, tPtrStruct)
			return e.encodeStruct(rv.Elem())
		}
		return e.encode(rv.Elem().Interface())
	case reflect.Struct:
		e.buf = append(e.buf, tStruct)
		return e.encodeStruct(rv)
	case reflect.Slice, reflect.Array:
		e.buf = append(e.buf, tAnySlice)
		e.writeUvarint(uint64(rv.Len()))
		for i := 0; i < rv.Len(); i++ {
			if err := e.encode(rv.Index(i).Interface()); err != nil {
				return err
			}
		}
		return nil
	case reflect.Map:
		if rv.Type().Key().Kind() != reflect.String {
			return &wire.UnsupportedTypeError{Type: rv.Type()}
		}
		return e.encodeMap(rv)
	case reflect.Interface:
		if rv.IsNil() {
			return e.scalar(nil)
		}
		return e.encode(rv.Elem().Interface())
	}
	return &wire.UnsupportedTypeError{Type: rv.Type()}
}

func (e *jserEncoder) encodeMap(rv reflect.Value) error {
	e.buf = append(e.buf, tMap)
	keys := sortedKeys(rv)
	e.writeUvarint(uint64(len(keys)))
	for _, k := range keys {
		e.writeString(k)
		if err := e.encode(rv.MapIndex(reflect.ValueOf(k)).Interface()); err != nil {
			return err
		}
	}
	return nil
}

// encodeStruct writes the class descriptor — name, field count and every
// field name — then the field values, on every occurrence.
func (e *jserEncoder) encodeStruct(rv reflect.Value) error {
	name, err := structName(rv)
	if err != nil {
		return err
	}
	fields := fieldsOf(rv.Type())
	e.writeString(name)
	e.writeUvarint(uint64(len(fields)))
	for _, f := range fields {
		e.writeString(f.name)
	}
	for _, f := range fields {
		if err := e.encode(rv.Field(f.index).Interface()); err != nil {
			return err
		}
	}
	return nil
}

// jserDecoder reads a JavaSer body: what jserEncoder lays out here, and
// scalars through a wire.Decoder.
type jserDecoder struct {
	data []byte
	pos  int
}

func (d *jserDecoder) readUvarint() (uint64, error) {
	u, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("javaser: bad uvarint at offset %d", d.pos)
	}
	d.pos += n
	return u, nil
}

// readCount reads an element count and rejects one the input left cannot
// hold at elemSize bytes an element, before it sizes an allocation.
func (d *jserDecoder) readCount(elemSize int) (int, error) {
	n, err := d.readUvarint()
	if err != nil {
		return 0, err
	}
	if left := len(d.data) - d.pos; n > uint64(left/elemSize) {
		return 0, fmt.Errorf("javaser: count %d exceeds remaining %d bytes at offset %d", n, left, d.pos)
	}
	return int(n), nil
}

func (d *jserDecoder) readString() (string, error) {
	n, err := d.readCount(1)
	if err != nil {
		return "", err
	}
	s := string(d.data[d.pos : d.pos+n])
	d.pos += n
	return s, nil
}

// readArray reads what follows a fast-path slice's tag — the array class
// name and the length — and returns the n*size bytes of its elements.
func (d *jserDecoder) readArray(size int) ([]byte, int, error) {
	if _, err := d.readString(); err != nil {
		return nil, 0, err
	}
	n, err := d.readCount(size)
	if err != nil {
		return nil, 0, err
	}
	b := d.data[d.pos : d.pos+n*size]
	d.pos += len(b)
	return b, n, nil
}

// boxed is a slice reader's result as decode returns it: nil on failure, when
// the reader has returned no elements.
func boxed[T any](v []T, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	return v, nil
}

// scalar reads a value wire encodes, the tag included.
func (d *jserDecoder) scalar() (any, error) {
	sd := wire.NewDecoder(d.data[d.pos:])
	defer sd.Release()
	v, err := sd.Decode()
	d.pos = len(d.data) - sd.Rest()
	return v, err
}

func (d *jserDecoder) decode() (any, error) {
	if d.pos >= len(d.data) {
		return nil, fmt.Errorf("javaser: truncated message at offset %d", d.pos)
	}
	le := binary.LittleEndian
	tag := d.data[d.pos]
	d.pos++
	switch tag {
	case tIntSlice:
		b, n, err := d.readArray(8)
		out := make([]int, n)
		for i := range out {
			out[i] = int(le.Uint64(b[8*i:]))
		}
		return boxed(out, err)
	case tInt32Slice:
		b, n, err := d.readArray(4)
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(le.Uint32(b[4*i:]))
		}
		return boxed(out, err)
	case tInt64Slice:
		b, n, err := d.readArray(8)
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(le.Uint64(b[8*i:]))
		}
		return boxed(out, err)
	case tFloat32Slice:
		b, n, err := d.readArray(4)
		out := make([]float32, n)
		for i := range out {
			out[i] = math.Float32frombits(le.Uint32(b[4*i:]))
		}
		return boxed(out, err)
	case tFloat64Slice:
		b, n, err := d.readArray(8)
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(le.Uint64(b[8*i:]))
		}
		return boxed(out, err)
	case tBoolSlice:
		b, n, err := d.readArray(1)
		out := make([]bool, n)
		for i := range out {
			out[i] = b[i] != 0
		}
		return boxed(out, err)
	case tStringSlice:
		if _, err := d.readString(); err != nil {
			return nil, err
		}
		n, err := d.readCount(1)
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
	case tAnySlice:
		n, err := d.readCount(1)
		if err != nil {
			return nil, err
		}
		out := make([]any, n)
		for i := range out {
			if out[i], err = d.decode(); err != nil {
				return nil, err
			}
		}
		return out, nil
	case tMap:
		n, err := d.readCount(2)
		if err != nil {
			return nil, err
		}
		out := make(map[string]any, n)
		for i := 0; i < n; i++ {
			k, err := d.readString()
			if err != nil {
				return nil, err
			}
			if out[k], err = d.decode(); err != nil {
				return nil, err
			}
		}
		return out, nil
	case tStruct, tPtrStruct:
		ptr, err := d.decodeStruct()
		if err != nil {
			return nil, err
		}
		if tag == tPtrStruct {
			return ptr.Interface(), nil
		}
		return ptr.Elem().Interface(), nil
	}
	d.pos-- // a scalar: wire reads it, tag and all
	return d.scalar()
}

// decodeStruct reads a class descriptor and the field values after it,
// returning a pointer to a fresh struct.
func (d *jserDecoder) decodeStruct() (reflect.Value, error) {
	name, err := d.readString()
	if err != nil {
		return reflect.Value{}, err
	}
	ptr, err := newStruct(name)
	if err != nil {
		return reflect.Value{}, err
	}
	n, err := d.readCount(2)
	if err != nil {
		return reflect.Value{}, err
	}
	names := make([]string, n)
	for i := range names {
		if names[i], err = d.readString(); err != nil {
			return reflect.Value{}, err
		}
	}
	for _, fname := range names {
		v, err := d.decode()
		if err != nil {
			return reflect.Value{}, err
		}
		if err := setField(ptr.Elem(), fname, v); err != nil {
			return reflect.Value{}, err
		}
	}
	return ptr, nil
}
