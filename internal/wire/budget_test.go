package wire

import (
	"bytes"
	"testing"

	"repro/internal/racetest"
)

// callMsg has the shape of a remote call's request (URI, method, sequence
// number, deadline, argument list): a struct every field of which the
// reflective path walks.
type callMsg struct {
	URI      string
	Method   string
	Seq      uint64
	Deadline int64
	Args     []any
}

func init() { RegisterName("wire.callMsg", callMsg{}) }

// TestAllocBudgetCodec holds the reflective struct path to its allocation
// budget on a small call request (a 64-byte numeric payload and two scalar
// arguments): encoding through a pooled Encoder allocates 5 times, decoding
// 18 times. The argument list alone, read into a PendingList kept from one
// list to the next, as the remoting server's call record keeps one, costs
// its three boxed elements and their payload decoded boxed (DecodeArgs, what
// reflective dispatch does), and only the payload and the string's bytes
// bound in order into typed variables (Pending.Into, what a generated
// thunk does through dispatch.Arg).
func TestAllocBudgetCodec(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	payload := make([]int32, 16)
	for i := range payload {
		payload[i] = int32(i*2654435761 + 12345)
	}
	msg := &callMsg{URI: "DivideServer/7", Method: "Echo", Seq: 99991, Args: []any{payload, 42, "caller-7"}}
	data, err := BinFmt{}.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(500, func() {
		e := NewEncoder()
		if err := e.Encode(msg); err != nil {
			t.Fatal(err)
		}
		e.Release()
	}); n > 5 {
		t.Errorf("struct encode: %.0f allocs, budget 5", n)
	} else {
		t.Logf("struct encode: %.0f allocs", n)
	}
	if n := testing.AllocsPerRun(500, func() {
		if _, err := (BinFmt{}).Unmarshal(data); err != nil {
			t.Fatal(err)
		}
	}); n > 18 {
		t.Errorf("struct decode: %.0f allocs, budget 18", n)
	} else {
		t.Logf("struct decode: %.0f allocs", n)
	}
	e := NewEncoder()
	defer e.Release()
	e.AnySlice(msg.Args)
	var list PendingList
	read := func() []any {
		list.Reset()
		d := NewDecoder(e.Bytes())
		defer d.Release()
		args := d.AnySlice(&list)
		if d.Err() != nil || len(args) != 3 {
			t.Fatalf("AnySlice = %v, %v", args, d.Err())
		}
		return args
	}
	if n := testing.AllocsPerRun(500, func() {
		if args := read(); DecodeArgs(args) != nil || args[1] != 42 {
			t.Fatalf("DecodeArgs = %v", args)
		}
	}); n > 4 {
		t.Errorf("argument list decoded boxed into a kept list: %.0f allocs, budget 4", n)
	} else {
		t.Logf("argument list decoded boxed into a kept list: %.0f allocs", n)
	}
	if n := testing.AllocsPerRun(500, func() {
		args := read()
		var (
			ints []int32
			i    int
			name string
		)
		for k, dst := range []any{&ints, &i, &name} {
			if ok, err := args[k].(*Pending).Into(dst); !ok || err != nil {
				t.Fatalf("argument %d: Into = %v, %v", k, ok, err)
			}
		}
		if len(ints) != 16 || i != 42 || name != "caller-7" {
			t.Fatalf("bound %v %v %q", ints, i, name)
		}
	}); n > 2 {
		t.Errorf("argument list bound in order into typed variables: %.0f allocs, budget 2", n)
	} else {
		t.Logf("argument list bound in order into typed variables: %.0f allocs", n)
	}
}

// TestPendingListKeepsItsArrays: a list reads into the arrays the one before
// it left, a longer one gets fresh arrays, Reset drops arrays above
// keepArgs elements, and a value that is not a list is the decoder's error.
func TestPendingListKeepsItsArrays(t *testing.T) {
	var list PendingList
	read := func(v any) ([]any, error) {
		t.Helper()
		list.Reset()
		e := NewEncoder()
		defer e.Release()
		e.Value(v)
		d := NewDecoder(bytes.Clone(e.Bytes()))
		defer d.Release()
		args := d.AnySlice(&list)
		return args, d.Err()
	}
	long, _ := read([]any{1, 2, 3})
	short, _ := read([]any{7})
	if len(short) != 1 || &short[0] != &long[0] {
		t.Error("a shorter list did not read into the arrays the list kept")
	}
	if v, err := short[0].(*Pending).Value(); v != 7 || err != nil {
		t.Errorf("short list: %v, %v", v, err)
	}
	if longer, _ := read(make([]any, 5)); len(longer) != 5 {
		t.Errorf("a longer list read %d elements", len(longer))
	}
	read(make([]any, keepArgs+1))
	list.Reset()
	if cap(list.args) != 0 || cap(list.elems) != 0 {
		t.Errorf("Reset kept arrays of %d elements, above keepArgs", cap(list.args))
	}
	for _, v := range []any{nil, []int{1}, "x"} {
		if args, err := read(v); args != nil || err == nil {
			t.Errorf("%#v read as a list: %v, %v", v, args, err)
		}
	}
	if args, err := read([]any{}); len(args) != 0 || args == nil || err != nil {
		t.Errorf("empty list: %#v, %v", args, err)
	}
}

// BenchmarkInt32Slice10k is one app_raytrace reply, a []int32 of 10,000:
// encoded, decoded as a value (the generic reader boxes the slice) and
// decoded through the typed slot.
func BenchmarkInt32Slice10k(b *testing.B) {
	pixels := make([]int32, 10000)
	for i := range pixels {
		pixels[i] = int32(i*2654435761 + 12345)
	}
	e := NewEncoder()
	defer e.Release()
	e.Value(pixels)
	data := append([]byte(nil), e.Bytes()...)
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			e.Reset()
			e.Value(pixels)
		}
	})
	decode := func(read func(*Decoder) int) func(*testing.B) {
		return func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := NewDecoder(data)
				if n := read(d); n != len(pixels) || d.Err() != nil {
					b.Fatalf("decoded %d elements, %v", n, d.Err())
				}
				d.Release()
			}
		}
	}
	b.Run("decode/Value", decode(func(d *Decoder) int { return len(d.Value().([]int32)) }))
	var slot []int32
	b.Run("decode/ValueInto", decode(func(d *Decoder) int { d.ValueInto(&slot); return len(slot) }))
}

// TestAllocBudgetTypedReaders: ValueInto, the typed slot, on the tag its
// type encodes to allocates what it reads and nothing else: one allocation
// for a slice (a []byte below BorrowMin is copied), none for a scalar.
// Reading the same values through Value costs the box on top.
func TestAllocBudgetTypedReaders(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	e := NewEncoder()
	defer e.Release()
	e.Value(make([]int32, 16))
	e.Value(make([]byte, 64))
	e.Value(make([]float64, 16))
	e.Value(1 << 40)
	d := NewDecoder(nil)
	defer d.Release()
	d.SetBorrow(true)
	var ints []int32
	var raw []byte
	var floats []float64
	var n int
	for name, c := range map[string]struct {
		read func()
		want float64
	}{
		"ValueInto": {func() { d.ValueInto(&ints); d.ValueInto(&raw); d.ValueInto(&floats); d.ValueInto(&n) }, 3},
		"Value":     {func() { d.Value(); d.Value(); d.Value(); d.Value() }, 7},
	} {
		got := testing.AllocsPerRun(200, func() {
			d.Reset(e.Bytes())
			c.read()
			if d.Err() != nil || d.Rest() != 0 {
				t.Fatalf("%s: %v, %d bytes left", name, d.Err(), d.Rest())
			}
		})
		if got != c.want {
			t.Errorf("%s: %.0f allocs for three slices and an int, want %.0f", name, got, c.want)
		}
	}
	if len(ints) != 16 || len(raw) != 64 || len(floats) != 16 || n != 1<<40 {
		t.Errorf("read %d int32s, %d bytes, %d float64s and %d", len(ints), len(raw), len(floats), n)
	}
}
