package wirecodecs

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// goldenCases are the values whose JavaSer and SoapFmt encodings are kept in
// testdata/golden as <case>.javaser and <case>.soapfmt, recorded while both
// codecs still lived in package wire and ran on its encoder.
func goldenCases() map[string]any {
	msg := sampleMessage()
	many := make([]any, 8)
	for i := range many {
		many[i] = testNested{Label: "a"}
	}
	blocks := make([]float64, 300) // three JavaSer block-data segments
	for i := range blocks {
		blocks[i] = float64(i) * 1.25
	}
	return map[string]any{
		"int": int(5),
		"scalars": []any{nil, true, false, int8(-5), int16(300), int32(-70000), int64(1 << 40), int(-3),
			uint8(200), uint16(60000), uint32(4000000000), uint64(1 << 60), uint(17),
			float32(1.5), float64(-2.25), math.Pi,
			"", "hello", "quotes \" and \\ and (parens)", "unicode £€日本"},
		"slices": []any{[]byte{}, []byte{1, 2, 3}, []int{-1, 0, 1 << 30}, []int{}, []int32{5}, []int64{-9, 9},
			[]float32{0.5}, []float64{1e-9, 1e9}, []string{"a", "", "c c"}, []bool{true, false},
			[]any{int(1), "two", nil}},
		"map":         map[string]any{"x": int(1), "y": "z", "nested": map[string]any{"k": true}},
		"typedmap":    map[string]int{"b": 2, "a": 1},
		"struct":      msg,
		"structptr":   &msg,
		"nilptr":      (*testNested)(nil),
		"structslice": []testNested{{Label: "a"}, {Label: "b", Vals: []float64{1}}},
		"repeats":     many,
		"blocks":      blocks,
	}
}

// TestGoldenBytes holds both codecs to their recorded encodings, byte for
// byte, and each golden to decoding into a value that encodes back to it.
func TestGoldenBytes(t *testing.T) {
	for name, v := range goldenCases() {
		for _, c := range []Codec{JavaSer{}, SoapFmt{}} {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", name+"."+c.Name()))
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Marshal(v)
			if err != nil {
				t.Fatalf("%s %s: Marshal: %v", c.Name(), name, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s %s: encoding differs from the golden\n got: %q\nwant: %q", c.Name(), name, got, want)
			}
			decoded, err := c.Unmarshal(want)
			if err != nil {
				t.Fatalf("%s %s: Unmarshal of the golden: %v", c.Name(), name, err)
			}
			again, err := c.Marshal(decoded)
			if err != nil || !bytes.Equal(again, want) {
				t.Errorf("%s %s: golden decoded to %#v, which encodes to %q (err %v)", c.Name(), name, decoded, again, err)
			}
		}
	}
}
