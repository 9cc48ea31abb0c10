package wire

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

type testNested struct {
	Label string
	Vals  []float64
}

type testMessage struct {
	ID      int64
	Name    string
	Flags   []bool
	Data    []byte
	Scores  []int32
	Nested  testNested
	PtrN    *testNested
	Meta    map[string]any
	Skip    int `json:"-"`
	private int
}

func init() {
	Register(testNested{})
	Register(testMessage{})
}

func sampleMessage() testMessage {
	return testMessage{
		ID:     42,
		Name:   "ping-pong",
		Flags:  []bool{true, false, true},
		Data:   []byte{0, 1, 2, 255},
		Scores: []int32{-1, 0, 7, 1 << 20},
		Nested: testNested{Label: "n", Vals: []float64{1.5, -2.25}},
		PtrN:   &testNested{Label: "p", Vals: []float64{3}},
		Meta:   map[string]any{"a": int64(1), "b": "x"},
		Skip:   9,
	}
}

// codec is what the tests here call of BinFmt.
type codec interface {
	Name() string
	Marshal(v any) ([]byte, error)
	Unmarshal(data []byte) (any, error)
}

func allCodecs(t *testing.T) []codec {
	t.Helper()
	return []codec{BinFmt{}}
}

func roundtrip(t *testing.T, c codec, v any) any {
	t.Helper()
	data, err := c.Marshal(v)
	if err != nil {
		t.Fatalf("%s: Marshal(%#v): %v", c.Name(), v, err)
	}
	got, err := c.Unmarshal(data)
	if err != nil {
		t.Fatalf("%s: Unmarshal(%#v): %v", c.Name(), v, err)
	}
	return got
}

func TestRoundtripScalars(t *testing.T) {
	values := []any{
		nil,
		true, false,
		int8(-5), int16(300), int32(-70000), int64(1 << 40), int(-3),
		uint8(200), uint16(60000), uint32(4000000000), uint64(1 << 60), uint(17),
		float32(1.5), float64(-2.25), math.Pi,
		"", "hello", "quotes \" and \\ and (parens)", "unicode £€日本",
	}
	for _, c := range allCodecs(t) {
		for _, v := range values {
			got := roundtrip(t, c, v)
			if !reflect.DeepEqual(got, v) {
				t.Errorf("%s: roundtrip(%#v) = %#v", c.Name(), v, got)
			}
		}
	}
}

func TestRoundtripSlices(t *testing.T) {
	values := []any{
		[]byte{}, []byte{1, 2, 3},
		[]int{-1, 0, 1 << 30}, []int32{5}, []int64{-9, 9},
		[]float32{0.5}, []float64{1e-9, 1e9},
		[]string{"a", "", "c c"}, []bool{true, false},
		[]any{int(1), "two", []int{3}, nil},
	}
	for _, c := range allCodecs(t) {
		for _, v := range values {
			got := roundtrip(t, c, v)
			if !reflect.DeepEqual(got, v) {
				t.Errorf("%s: roundtrip(%#v) = %#v", c.Name(), v, got)
			}
		}
	}
}

func TestRoundtripEmptySlicesKeepType(t *testing.T) {
	for _, c := range allCodecs(t) {
		got := roundtrip(t, c, []int{})
		if _, ok := got.([]int); !ok {
			t.Errorf("%s: empty []int decoded as %T", c.Name(), got)
		}
	}
}

func TestRoundtripMap(t *testing.T) {
	v := map[string]any{"x": int(1), "y": "z", "nested": map[string]any{"k": true}}
	for _, c := range allCodecs(t) {
		got := roundtrip(t, c, v)
		if !reflect.DeepEqual(got, v) {
			t.Errorf("%s: roundtrip map = %#v", c.Name(), got)
		}
	}
}

func TestRoundtripStruct(t *testing.T) {
	msg := sampleMessage()
	want := msg
	// Unexported and decode-side-only fields do not travel.
	want.Skip = 9
	want.private = 0
	for _, c := range allCodecs(t) {
		got := roundtrip(t, c, msg)
		gm, ok := got.(testMessage)
		if !ok {
			t.Fatalf("%s: struct decoded as %T", c.Name(), got)
		}
		// Skip is exported so it travels; private must not.
		if gm.private != 0 {
			t.Errorf("%s: private field leaked: %d", c.Name(), gm.private)
		}
		gm.private = want.private
		if !reflect.DeepEqual(gm, want) {
			t.Errorf("%s: roundtrip struct =\n%#v\nwant\n%#v", c.Name(), gm, want)
		}
	}
}

func TestRoundtripStructPointer(t *testing.T) {
	msg := sampleMessage()
	for _, c := range allCodecs(t) {
		got := roundtrip(t, c, &msg)
		gp, ok := got.(*testMessage)
		if !ok {
			t.Fatalf("%s: struct pointer decoded as %T", c.Name(), got)
		}
		if gp.ID != msg.ID || gp.Name != msg.Name {
			t.Errorf("%s: pointer roundtrip mismatch: %+v", c.Name(), gp)
		}
	}
}

func TestRoundtripNilPointer(t *testing.T) {
	var p *testNested
	for _, c := range allCodecs(t) {
		got := roundtrip(t, c, p)
		if got != nil {
			t.Errorf("%s: nil pointer decoded as %#v", c.Name(), got)
		}
	}
}

func TestUnregisteredStructFails(t *testing.T) {
	type unregistered struct{ X int }
	for _, c := range allCodecs(t) {
		if _, err := c.Marshal(unregistered{X: 1}); err == nil {
			t.Errorf("%s: expected error for unregistered struct", c.Name())
		}
	}
}

func TestUnknownTypeNameFails(t *testing.T) {
	// Craft a message naming a type the decoder does not know by
	// registering under one name in a scratch encoder path: simplest is
	// to corrupt the name in a binfmt message.
	data, err := BinFmt{}.Marshal(testNested{Label: "x"})
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	s = strings.Replace(s, "wire.testNested", "wire.doesNotExist", 1)
	if len(s) != len(data) {
		t.Skip("type name not found in encoding")
	}
	if _, err := (BinFmt{}).Unmarshal([]byte(s)); err == nil {
		t.Error("expected UnknownTypeError")
	}
}

func TestTruncatedMessages(t *testing.T) {
	msg := sampleMessage()
	for _, c := range allCodecs(t) {
		data, err := c.Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range []int{1, len(data) / 4, len(data) / 2, len(data) - 1} {
			if cut >= len(data) {
				continue
			}
			if _, err := c.Unmarshal(data[:cut]); err == nil {
				t.Errorf("%s: truncation at %d bytes accepted", c.Name(), cut)
			}
		}
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	for _, c := range []codec{BinFmt{}} {
		data, err := c.Marshal(int(5))
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, data...)
		if _, err := c.Unmarshal(data); err == nil {
			t.Errorf("%s: trailing garbage accepted", c.Name())
		}
	}
}

// TestBinFmtInterningShrinksRepeats verifies that repeated struct values get
// cheaper after the first occurrence (the BinaryFormatter id-table effect).
func TestBinFmtInterningShrinksRepeats(t *testing.T) {
	one, err := BinFmt{}.Marshal([]any{testNested{Label: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	many := make([]any, 8)
	for i := range many {
		many[i] = testNested{Label: "a"}
	}
	eight, err := BinFmt{}.Marshal(many)
	if err != nil {
		t.Fatal(err)
	}
	perExtra := (len(eight) - len(one)) / 7
	if perExtra >= len(one) {
		t.Errorf("binfmt repeats not interned: first=%d, per-extra=%d", len(one), perExtra)
	}
}

// quickValue is the generator domain for property-based round-trip testing.
type quickValue struct {
	I   int64
	U   uint32
	F   float64
	S   string
	B   []byte
	Is  []int
	Fs  []float64
	Ss  []string
	Sub testNested
}

func init() { Register(quickValue{}) }

func TestQuickRoundtrip(t *testing.T) {
	for _, c := range allCodecs(t) {
		c := c
		f := func(v quickValue) bool {
			if v.F != v.F { // NaN never compares equal; skip.
				return true
			}
			for _, x := range v.Fs {
				if x != x {
					return true
				}
			}
			for _, x := range v.Sub.Vals {
				if x != x {
					return true
				}
			}
			data, err := c.Marshal(v)
			if err != nil {
				t.Logf("%s: marshal: %v", c.Name(), err)
				return false
			}
			got, err := c.Unmarshal(data)
			if err != nil {
				t.Logf("%s: unmarshal: %v", c.Name(), err)
				return false
			}
			gv, ok := got.(quickValue)
			if !ok {
				return false
			}
			return quickEqual(gv, v)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

// quickEqual compares treating nil and empty slices as equal, which is the
// documented decode canonicalisation.
func quickEqual(a, b quickValue) bool {
	norm := func(v *quickValue) {
		if len(v.B) == 0 {
			v.B = nil
		}
		if len(v.Is) == 0 {
			v.Is = nil
		}
		if len(v.Fs) == 0 {
			v.Fs = nil
		}
		if len(v.Ss) == 0 {
			v.Ss = nil
		}
		if len(v.Sub.Vals) == 0 {
			v.Sub.Vals = nil
		}
	}
	norm(&a)
	norm(&b)
	return reflect.DeepEqual(a, b)
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("non-struct", func() { Register(42) })
	mustPanic("rebind", func() {
		RegisterName("wire.rebindTest", testNested{})
		RegisterName("wire.rebindTest", testMessage{})
	})
	// Re-registering the same pair is a no-op.
	RegisterName("wire.rebindOK", testNested{})
	RegisterName("wire.rebindOK", testNested{})
}

func TestRegisteredName(t *testing.T) {
	if n, ok := RegisteredName(testNested{}); !ok || n != "wire.testNested" {
		t.Errorf("RegisteredName = %q, %v", n, ok)
	}
	if n, ok := RegisteredName(&testNested{}); !ok || n != "wire.testNested" {
		t.Errorf("RegisteredName(ptr) = %q, %v", n, ok)
	}
	if _, ok := RegisteredName(42); ok {
		t.Error("RegisteredName(42) should fail")
	}
}

func FuzzBinFmtUnmarshal(f *testing.F) {
	seed, _ := BinFmt{}.Marshal(sampleMessage())
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{tStruct, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic; errors are fine.
		v, err := BinFmt{}.Unmarshal(data)
		_ = v
		_ = err
	})
}
