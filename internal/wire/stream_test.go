package wire

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/keep"
)

// TestEncoderReuse: a pooled encoder's buffer and intern table reset fully
// between messages.
func TestEncoderReuse(t *testing.T) {
	want, err := BinFmt{}.Marshal(&fuzzMsg{S: "reuse"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		e := NewEncoder()
		if err := e.Encode(&fuzzMsg{S: "reuse"}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e.Bytes(), want) {
			t.Fatalf("iteration %d: pooled encoder produced different bytes", i)
		}
		e.Release()
	}
}

// TestEncoderKeepsBulkBuffer: the encoder that carried a 256 KiB message
// comes back from the pool with its buffer, so the next 256 KiB message
// encodes into the same memory and allocates nothing.
func TestEncoderKeepsBulkBuffer(t *testing.T) {
	var msg any = []any{"Bytes", []any{make([]byte, 256<<10)}}
	encode := func() (capacity int, allocated uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e := NewEncoder()
		if err := e.Encode(msg); err != nil {
			t.Fatal(err)
		}
		capacity = cap(e.Bytes())
		e.Release()
		runtime.ReadMemStats(&after)
		return capacity, after.TotalAlloc - before.TotalAlloc
	}
	// sync.Pool may drop any single Put (it does so at random under
	// -race), so a miss is retried.
	for try := 0; try < 100; try++ {
		first, _ := encode()
		second, allocated := encode()
		if second == first && allocated == 0 {
			return
		}
	}
	t.Error("a second 256 KiB encode never reused the first one's buffer")
}

// TestEncoderDropsOversizedBuffer: the buffer a one-off 4 MiB message grew
// goes when a small message shows it is no longer earning its size.
func TestEncoderDropsOversizedBuffer(t *testing.T) {
	e := NewEncoder()
	if err := e.Encode(make([]byte, 4<<20)); err != nil {
		t.Fatal(err)
	}
	e.Reset()
	if err := e.Encode(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if cap(e.Bytes()) < 4<<20 {
		t.Fatalf("Reset left %d B of capacity, want the 4 MiB buffer", cap(e.Bytes()))
	}
	e.Release()
	if cap(e.e.buf) > retainCap {
		t.Errorf("released after a 100 B message still holding %d B, want at most %d", cap(e.e.buf), retainCap)
	}
}

// TestEncodersKeepBounded: an owner's store keeps at most two encoders,
// each reset as Release resets it and under the same buffer rule (a bulk
// buffer stays while bulk messages fill it and goes with the first small
// one), and never one whose buffer is above keepMax.
func TestEncodersKeepBounded(t *testing.T) {
	var k keep.Store[Encoder]
	a, b, c := k.Get(Encoders), k.Get(Encoders), k.Get(Encoders)
	for _, e := range []*Encoder{a, b, c} {
		if err := e.Encode("x"); err != nil {
			t.Fatal(err)
		}
	}
	k.Put(Encoders, a)
	k.Put(Encoders, b)
	k.Put(Encoders, c)
	if k[0].Load() != a || k[1].Load() != b {
		t.Fatal("the first two encoders given back were not the ones kept")
	}
	if e := k.Get(Encoders); e != a || len(e.Bytes()) != 0 || e.Err() != nil {
		t.Fatalf("Get returned %p holding %d B, want the kept %p, reset", e, len(e.Bytes()), a)
	}
	if err := a.Encode(make([]byte, 256<<10)); err != nil {
		t.Fatal(err)
	}
	bulk := cap(a.Bytes())
	k.Put(Encoders, a)
	if e := k.Get(Encoders); e != a || cap(e.Bytes()) != bulk {
		t.Fatalf("a kept encoder lost the %d B buffer a bulk message filled", bulk)
	}
	if err := a.Encode(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	k.Put(Encoders, a)
	if got := cap(a.Bytes()); got > retainCap {
		t.Errorf("kept after a 64 B message still holding %d B, want at most %d", got, retainCap)
	}

	e := k.Get(Encoders)
	if err := e.Encode(make([]byte, keepMax)); err != nil {
		t.Fatal(err)
	}
	k.Put(Encoders, e)
	for i := range k {
		if k[i].Load() == e {
			t.Errorf("kept an encoder whose buffer is %d B, above keepMax %d", cap(e.e.buf), keepMax)
		}
	}
}

// TestUnknownFieldSkipped: a message carrying a field the receiver dropped
// decodes cleanly (schema evolution).
func TestUnknownFieldSkipped(t *testing.T) {
	// Hand-build a fuzzMsg body with an extra unknown field.
	e := NewEncoder()
	// tPtrStruct tag then body: name, count=2, one real field, one unknown.
	e.e.writeByte(tPtrStruct)
	e.e.writeName("wire.fuzzMsg")
	e.e.writeUvarint(2)
	e.e.writeName("S")
	e.String("kept")
	e.e.writeName("Gone")
	e.Value(99)
	data := append([]byte(nil), e.Bytes()...)
	e.Release()

	v, err := BinFmt{}.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	msg, ok := v.(*fuzzMsg)
	if !ok {
		t.Fatalf("decoded %T", v)
	}
	if msg.S != "kept" {
		t.Errorf("known field lost: %#v", msg)
	}
}

// TestRawFraming: the unframed header surfaces used by the remoting
// compact envelope round-trip and interoperate with tagged values in the
// same buffer.
func TestRawFraming(t *testing.T) {
	e := NewEncoder()
	defer e.Release()
	e.RawByte(0xBC)
	e.RawUvarint(300)
	e.RawVarint(-42)
	e.AnySlice([]any{int32(7), "x"})
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(e.Bytes())
	defer d.Release()
	if b := d.RawByte(); b != 0xBC {
		t.Errorf("RawByte = 0x%02x", b)
	}
	if u := d.RawUvarint(); u != 300 {
		t.Errorf("RawUvarint = %d", u)
	}
	if i := d.RawVarint(); i != -42 {
		t.Errorf("RawVarint = %d", i)
	}
	args := d.AnySlice(nil)
	if d.Err() != nil || len(args) != 2 || args[0] != int32(7) || args[1] != "x" {
		t.Errorf("args = %#v, err = %v", args, d.Err())
	}
	if d.Rest() != 0 {
		t.Errorf("rest = %d", d.Rest())
	}

	// Truncated raw reads fail sticky instead of panicking.
	d2 := NewDecoder(nil)
	defer d2.Release()
	if d2.RawByte() != 0 || d2.Err() == nil {
		t.Error("RawByte on empty input did not fail")
	}
	d3 := NewDecoder([]byte{0x80}) // unterminated uvarint
	defer d3.Release()
	if d3.RawUvarint() != 0 || d3.Err() == nil {
		t.Error("RawUvarint on truncated input did not fail")
	}
}
