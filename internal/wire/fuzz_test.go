package wire

import (
	"bytes"
	"testing"
)

// fuzzMsg is a struct with a field of each kind the format has a dedicated
// encoding for, plus two any-typed fields (V, Vs). The checked-in
// FuzzBinFmtDecode corpus carries it under its wire name.
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

func init() { RegisterName("wire.fuzzMsg", fuzzMsg{}) }

// FuzzBinFmtDecode feeds arbitrary bytes to the decoder: it must never
// panic, and every accepted value must re-encode canonically (marshal ->
// unmarshal -> marshal yields identical bytes, which also covers NaN
// payloads at the bit level).
func FuzzBinFmtDecode(f *testing.F) {
	bf := BinFmt{}
	seedVals := []any{
		nil, true, int(5), int64(-9), uint16(40000), 3.14, "seed", []byte{0xff, 0x00},
		[]int{1, 2, 3}, []string{"a", "b"}, []any{int(1), "two", nil},
		map[string]any{"k": int(1), "s": "v"},
		fuzzMsg{S: "struct seed", I: 7, Vs: []any{int(1)}},
		&fuzzMsg{By: []byte("ptr seed"), F: 2.5},
	}
	for _, v := range seedVals {
		data, err := bf.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x07})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := bf.Unmarshal(data)
		if err != nil {
			return
		}
		m1, err := bf.Marshal(v)
		if err != nil {
			t.Fatalf("re-marshal of decoded value: %v", err)
		}
		// Canonical re-encode must be stable through another round trip.
		v2, err := bf.Unmarshal(m1)
		if err != nil {
			t.Fatalf("decode of canonical re-encode: %v", err)
		}
		m2, err := bf.Marshal(v2)
		if err != nil {
			t.Fatalf("second re-marshal: %v", err)
		}
		if !bytes.Equal(m1, m2) {
			t.Fatalf("canonical encoding unstable:\n first: %x\nsecond: %x", m1, m2)
		}
	})
}
