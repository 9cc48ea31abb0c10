package wirecodecs

import (
	"os"
	"path/filepath"
	"testing"
)

// fuzzDecode feeds arbitrary input to c: it must never panic, and a value it
// accepts must encode and decode again.
func fuzzDecode(f *testing.F, c Codec) {
	for name := range goldenCases() {
		seed, err := os.ReadFile(filepath.Join("testdata", "golden", name+"."+c.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := c.Unmarshal(data)
		if err != nil {
			return
		}
		again, err := c.Marshal(v)
		if err != nil {
			t.Fatalf("accepted %q as %#v, which does not encode: %v", data, v, err)
		}
		if _, err := c.Unmarshal(again); err != nil {
			t.Fatalf("re-encoding %q of accepted %q does not decode: %v", again, data, err)
		}
	})
}

func FuzzSoapFmtUnmarshal(f *testing.F) { fuzzDecode(f, SoapFmt{}) }

func FuzzJavaSerUnmarshal(f *testing.F) { fuzzDecode(f, JavaSer{}) }

// TestSoapFmtRejectsBadCounts: a count that is negative or larger than the
// tokens left is refused before it sizes an allocation.
func TestSoapFmtRejectsBadCounts(t *testing.T) {
	for _, in := range []string{
		`(struct "wire.testMessage"1 "0000"(bytes -1`,
		`(bytes -1)`,
		`(bytes 1099511627776)`,
		`(seq -1)`,
		`(seq 1099511627776)`,
		`(map -1)`,
		`(map 1099511627776)`,
		`(arr int -1)`,
		`(arr f64 1099511627776)`,
		`(struct "wire.testNested" -1)`,
		`(bytes 2 1)`,
	} {
		if v, err := (SoapFmt{}).Unmarshal([]byte(in)); err == nil {
			t.Errorf("%s decoded to %#v", in, v)
		}
	}
}
