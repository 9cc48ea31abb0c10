package wire

import (
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
// 18 times, and the argument list alone costs its three boxed elements and
// their payload when the caller lends the backing array (AnySliceInto),
// which is what the remoting server's call record does.
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
	backing := make([]any, 0, 4)
	if n := testing.AllocsPerRun(500, func() {
		d := NewDecoder(e.Bytes())
		got := d.AnySliceInto(backing)
		if d.Err() != nil || len(got) != 3 || &got[0] != &backing[:1][0] {
			t.Fatalf("AnySliceInto = %v, %v, in place %v", got, d.Err(), len(got) > 0 && &got[0] == &backing[:1][0])
		}
		d.Release()
	}); n > 4 {
		t.Errorf("argument list into a lent array: %.0f allocs, budget 4", n)
	} else {
		t.Logf("argument list into a lent array: %.0f allocs", n)
	}
}

// TestAnySliceIntoOutgrowsItsArray: a list longer than the lent array gets
// a fresh one, nil and legacy shapes ignore the array, and a short list
// leaves the array's tail alone.
func TestAnySliceIntoOutgrowsItsArray(t *testing.T) {
	decode := func(v any, dst []any) []any {
		t.Helper()
		e := NewEncoder()
		defer e.Release()
		e.Value(v)
		d := NewDecoder(e.Bytes())
		defer d.Release()
		got := d.AnySliceInto(dst)
		if err := d.Err(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	lent := []any{"a", "b"}
	if got := decode([]any{1, 2, 3}, lent[:0]); len(got) != 3 || lent[0] != "a" {
		t.Errorf("long list: got %v, lent array now %v", got, lent)
	}
	if got := decode(nil, lent[:0]); got != nil || lent[0] != "a" {
		t.Errorf("nil: got %v, lent array now %v", got, lent)
	}
	if got := decode([]any{7}, lent[:0]); len(got) != 1 || got[0] != 7 || lent[0] != 7 || lent[1] != "b" {
		t.Errorf("short list: got %v, lent array now %v", got, lent)
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
