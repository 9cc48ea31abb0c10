package wire

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// fuzzMsg exercises every fast-path writer/reader pair the parcgen codec
// generator emits, plus the generic Value fallback (V, Vs). Its codec below
// is written exactly in the generator's output shape, so the differential
// fuzz pits the real generated-code path against the reflective one.
type fuzzMsg struct {
	B   bool
	By  []byte
	F   float64
	F32 float32
	I   int
	I64 int64
	S   string
	Ss  []string
	U   uint32
	V   any
	Vs  []any
}

// MarshalWire mirrors parcgen output (fields in alphabetical order).
func (x *fuzzMsg) MarshalWire(e *Encoder) error {
	e.BeginStruct("wire.fuzzMsg", 11)
	e.FieldName("B")
	e.Bool(x.B)
	e.FieldName("By")
	e.ByteSlice(x.By)
	e.FieldName("F")
	e.Float64(x.F)
	e.FieldName("F32")
	e.Float32(x.F32)
	e.FieldName("I")
	e.Int(x.I)
	e.FieldName("I64")
	e.Int64(x.I64)
	e.FieldName("S")
	e.String(x.S)
	e.FieldName("Ss")
	e.StringSlice(x.Ss)
	e.FieldName("U")
	e.Uint32(x.U)
	e.FieldName("V")
	e.Value(x.V)
	e.FieldName("Vs")
	e.AnySlice(x.Vs)
	return e.Err()
}

// UnmarshalWire mirrors parcgen output.
func (x *fuzzMsg) UnmarshalWire(d *Decoder) error {
	n := d.BeginStruct()
	for i := 0; i < n && d.Err() == nil; i++ {
		switch string(d.FieldNameRaw()) {
		case "B":
			x.B = d.Bool()
		case "By":
			x.By = d.ByteSlice()
		case "F":
			x.F = d.Float64()
		case "F32":
			x.F32 = d.Float32()
		case "I":
			x.I = d.Int()
		case "I64":
			x.I64 = d.Int64()
		case "S":
			x.S = d.String()
		case "Ss":
			x.Ss = d.StringSlice()
		case "U":
			x.U = d.Uint32()
		case "V":
			x.V = d.Value()
		case "Vs":
			x.Vs = d.AnySlice()
		default:
			d.Skip()
		}
	}
	return d.Err()
}

func init() {
	RegisterGeneratedCodec[fuzzMsg]("wire.fuzzMsg")
}

// reflective is BinFmt with the generated-codec fast path turned off: the
// reference the generated path is held to.
type reflective struct{}

func (reflective) Name() string { return "binfmt-reflective" }

func (reflective) Marshal(v any) ([]byte, error) {
	e := NewEncoder()
	defer e.Release()
	e.SetGenerated(false)
	if err := e.Encode(v); err != nil {
		return nil, err
	}
	return bytes.Clone(e.Bytes()), nil
}

func (reflective) Unmarshal(data []byte) (any, error) {
	d := NewDecoder(data)
	defer d.Release()
	d.SetGenerated(false)
	v, err := d.Decode()
	if err != nil {
		return nil, err
	}
	if rest := d.Rest(); rest != 0 {
		return nil, fmt.Errorf("wire/binfmt: %d trailing bytes after value", rest)
	}
	return v, nil
}

// FuzzGeneratedReflectiveIdentity asserts the load-bearing invariant of the
// codec registry: for every registered type, the generated and reflective
// binfmt paths produce identical wire bytes on encode and identical values
// on decode, in both the value and pointer encodings.
func FuzzGeneratedReflectiveIdentity(f *testing.F) {
	f.Add(true, []byte{1, 2, 3}, 1.5, int64(-42), "hello", uint(7))
	f.Add(false, []byte(nil), 0.0, int64(0), "", uint(0))
	f.Add(true, []byte("x"), -2.25, int64(math.MaxInt64), "héllo wörld", uint(3))
	f.Add(false, []byte("yzw"), math.MaxFloat64, int64(math.MinInt64), "a", uint(255))
	f.Fuzz(func(t *testing.T, b bool, by []byte, fv float64, i int64, s string, u uint) {
		if math.IsNaN(fv) {
			fv = 0 // NaN never compares equal; the bit-level identity is covered by FuzzBinFmtDecode
		}
		var v any
		switch u % 4 {
		case 1:
			v = s
		case 2:
			v = int(i)
		case 3:
			v = []float64{fv, -fv}
		}
		msg := fuzzMsg{
			B: b, By: by, F: fv, F32: float32(fv), I: int(i), I64: i ^ 3,
			S: s, Ss: []string{s, "fixed"}, U: uint32(u), V: v,
			Vs: []any{s, int(i), by},
		}
		gen := BinFmt{}
		refl := reflective{}

		for _, in := range []any{&msg, msg} {
			gb, err := gen.Marshal(in)
			if err != nil {
				t.Fatalf("generated marshal %T: %v", in, err)
			}
			rb, err := refl.Marshal(in)
			if err != nil {
				t.Fatalf("reflective marshal %T: %v", in, err)
			}
			if !bytes.Equal(gb, rb) {
				t.Fatalf("wire bytes differ for %T:\n generated: %x\nreflective: %x", in, gb, rb)
			}
			gv, err := gen.Unmarshal(gb)
			if err != nil {
				t.Fatalf("generated unmarshal: %v", err)
			}
			rv, err := refl.Unmarshal(gb)
			if err != nil {
				t.Fatalf("reflective unmarshal: %v", err)
			}
			if !reflect.DeepEqual(gv, rv) {
				t.Fatalf("decoded values differ:\n generated: %#v\nreflective: %#v", gv, rv)
			}
		}
	})
}

// FuzzBinFmtDecode feeds arbitrary bytes to both decoders: they must agree
// on accept/reject and on the decoded value, never panic, and every
// accepted value must re-encode canonically (marshal -> unmarshal ->
// marshal yields identical bytes, which also covers NaN payloads at the
// bit level).
func FuzzBinFmtDecode(f *testing.F) {
	gen := BinFmt{}
	refl := reflective{}
	seedVals := []any{
		nil, true, int(5), int64(-9), uint16(40000), 3.14, "seed", []byte{0xff, 0x00},
		[]int{1, 2, 3}, []string{"a", "b"}, []any{int(1), "two", nil},
		map[string]any{"k": int(1), "s": "v"},
		fuzzMsg{S: "struct seed", I: 7, Vs: []any{int(1)}},
		&fuzzMsg{By: []byte("ptr seed"), F: 2.5},
	}
	for _, v := range seedVals {
		data, err := gen.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x07})
	f.Fuzz(func(t *testing.T, data []byte) {
		gv, gerr := gen.Unmarshal(data)
		rv, rerr := refl.Unmarshal(data)
		if (gerr == nil) != (rerr == nil) {
			t.Fatalf("decoders disagree on acceptance: generated err=%v, reflective err=%v", gerr, rerr)
		}
		if gerr != nil {
			return
		}
		m1, err := gen.Marshal(gv)
		if err != nil {
			t.Fatalf("re-marshal of decoded value: %v", err)
		}
		if !reflect.DeepEqual(gv, rv) {
			// DeepEqual cannot see through NaN payloads; the canonical
			// encodings compare them at the bit level.
			mr, err := gen.Marshal(rv)
			if err != nil || !bytes.Equal(m1, mr) {
				t.Fatalf("decoders disagree on value (re-marshal err=%v):\n generated: %#v\nreflective: %#v", err, gv, rv)
			}
		}
		// Canonical re-encode must be stable through another round trip.
		v2, err := gen.Unmarshal(m1)
		if err != nil {
			t.Fatalf("decode of canonical re-encode: %v", err)
		}
		m2, err := gen.Marshal(v2)
		if err != nil {
			t.Fatalf("second re-marshal: %v", err)
		}
		if !bytes.Equal(m1, m2) {
			t.Fatalf("canonical encoding unstable:\n first: %x\nsecond: %x", m1, m2)
		}
	})
}

// TestGeneratedCodecSeedCorpus replays the checked-in corpus explicitly, so
// plain `go test` (CI) covers the same inputs `go test -fuzz` starts from.
func TestGeneratedCodecSeedCorpus(t *testing.T) {
	gen := BinFmt{}
	refl := reflective{}
	msg := &fuzzMsg{
		B: true, By: []byte{9, 8}, F: -1.25, F32: 4.5, I: -3, I64: 1 << 40,
		S: "corpus", Ss: []string{"x", "y"}, U: 77, V: map[string]any{"n": int(1)},
		Vs: []any{[]int32{5}, "s", nil},
	}
	gb, err := gen.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := refl.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, rb) {
		t.Fatalf("wire bytes differ:\n generated: %x\nreflective: %x", gb, rb)
	}
	gv, err := gen.Unmarshal(gb)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := gv.(*fuzzMsg)
	if !ok {
		t.Fatalf("decoded %T, want *fuzzMsg", gv)
	}
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("round trip mangled value:\n got: %#v\nwant: %#v", got, msg)
	}
}
