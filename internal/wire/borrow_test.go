package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// decodeBorrowed decodes one whole value as a connection's read loop does:
// a Decoder in borrow mode, []byte payloads of BorrowMin bytes or more
// returned as views into data, and Borrowed reporting whether any is.
func decodeBorrowed(data []byte) (v any, borrowed bool, err error) {
	d := NewDecoder(data)
	defer d.Release()
	d.SetBorrow(true)
	v, err = d.Decode()
	if err == nil && d.Rest() != 0 {
		err = fmt.Errorf("wire/binfmt: %d trailing bytes after value", d.Rest())
	}
	if err != nil {
		return nil, d.Borrowed(), err
	}
	return v, d.Borrowed(), nil
}

// TestBorrowThreshold: []byte values at or above BorrowMin alias the input
// frame under a borrowing Decoder; smaller ones are copied (so small frames
// recycle immediately), and Borrowed reports which happened.
func TestBorrowThreshold(t *testing.T) {
	bf := BinFmt{}
	big := bytes.Repeat([]byte{0xAB}, BorrowMin)
	small := []byte("tiny")

	for _, tc := range []struct {
		name   string
		val    []byte
		borrow bool
	}{
		{"large payload borrows", big, true},
		{"small payload copies", small, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, err := bf.Marshal(tc.val)
			if err != nil {
				t.Fatal(err)
			}
			v, borrowed, err := decodeBorrowed(data)
			if err != nil {
				t.Fatal(err)
			}
			if borrowed != tc.borrow {
				t.Fatalf("borrowed = %v, want %v", borrowed, tc.borrow)
			}
			got, ok := v.([]byte)
			if !ok || !bytes.Equal(got, tc.val) {
				t.Fatalf("decoded %T %v, want %v", v, v, tc.val)
			}
			// Mutating the frame must show through a borrowed view and
			// must not show through a copied one.
			data[len(data)-1] ^= 0xFF
			changed := !bytes.Equal(got, tc.val)
			if changed != tc.borrow {
				t.Errorf("frame aliasing = %v, want %v", changed, tc.borrow)
			}
		})
	}
}

// TestBorrowDecodeMatchesUnmarshal: the borrow path must be
// byte-identical to the copy path for every seed the differential fuzzer
// starts from — same accept/reject, same values.
func TestBorrowDecodeMatchesUnmarshal(t *testing.T) {
	bf := BinFmt{}
	vals := []any{
		nil, true, int(5), "seed", []byte{0xff, 0x00},
		bytes.Repeat([]byte{7}, BorrowMin+100),
		[]any{int(1), bytes.Repeat([]byte{9}, BorrowMin), "mix"},
		map[string]any{"k": bytes.Repeat([]byte{3}, 2*BorrowMin)},
		fuzzMsg{S: "struct", By: bytes.Repeat([]byte{5}, BorrowMin), I: 7},
	}
	for _, v := range vals {
		data, err := bf.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		plain, err1 := bf.Unmarshal(data)
		shared, _, err2 := decodeBorrowed(data)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%#v: accept/reject differ: %v vs %v", v, err1, err2)
		}
		if !reflect.DeepEqual(plain, shared) {
			t.Fatalf("%#v: borrow path decoded %#v, copy path %#v", v, shared, plain)
		}
	}
}

// FuzzBorrowIdentity extends the differential fuzzers to the zero-copy
// path: for arbitrary input bytes, a borrowing Decoder must agree with
// Unmarshal on acceptance and value, borrowed or not.
func FuzzBorrowIdentity(f *testing.F) {
	bf := BinFmt{}
	for _, v := range []any{
		[]byte("small"),
		bytes.Repeat([]byte{0x42}, BorrowMin+1),
		[]any{bytes.Repeat([]byte{1}, BorrowMin), "s", int(3)},
		fuzzMsg{By: bytes.Repeat([]byte{2}, BorrowMin), S: "x"},
	} {
		data, err := bf.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x07})
	f.Fuzz(func(t *testing.T, data []byte) {
		plain, err1 := bf.Unmarshal(data)
		shared, _, err2 := decodeBorrowed(data)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("accept/reject differ: %v vs %v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if !reflect.DeepEqual(plain, shared) {
			t.Fatalf("borrow path decoded %#v, copy path %#v", shared, plain)
		}
	})
}

// TestDecoderByteSliceBorrow covers the streaming Decoder: with borrow
// enabled, ValueInto hands out a view of the input at or past the threshold
// and flags it through Borrowed, and a decoder released in borrow mode comes
// back from NewDecoder with the flag cleared and borrow mode off.
func TestDecoderByteSliceBorrow(t *testing.T) {
	readBytes := func(d *Decoder) []byte {
		var b []byte
		if !d.ValueInto(&b) {
			t.Fatalf("ValueInto refused a []byte (err %v)", d.Err())
		}
		return b
	}
	e := NewEncoder()
	big := bytes.Repeat([]byte{0x5A}, BorrowMin)
	e.Value(big)
	e.Value([]byte("small"))
	data := append([]byte(nil), e.Bytes()...)
	e.Release()

	d := NewDecoder(data)
	d.SetBorrow(true)
	gotBig := readBytes(d)
	if !d.Borrowed() {
		t.Error("large ByteSlice did not set Borrowed")
	}
	gotSmall := readBytes(d)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBig, big) || string(gotSmall) != "small" {
		t.Fatalf("decoded %d bytes + %q", len(gotBig), gotSmall)
	}
	// Mutate a byte inside the big value's payload (the small value owns
	// the last 7 bytes: tag, length, "small") to prove aliasing.
	data[len(data)-10] ^= 0xFF
	if bytes.Equal(gotBig, big) {
		t.Error("large ByteSlice did not alias the input")
	}
	if string(gotSmall) != "small" {
		t.Error("small ByteSlice aliased the input; must copy below BorrowMin")
	}
	d.Release()

	// A released (pooled) decoder must come back with the flag cleared and
	// copying: d was in borrow mode, and NewDecoder most likely hands it out
	// again here.
	d2 := NewDecoder(data)
	if d2.Borrowed() {
		t.Error("pooled decoder started with Borrowed set")
	}
	pooled := readBytes(d2) // its payload is data[3:], after the tag and a 2-byte length
	if d2.Err() != nil || d2.Borrowed() || &pooled[0] == &data[3] {
		t.Errorf("a decoder released in borrow mode came back borrowing (err %v, reused %v)", d2.Err(), d2 == d)
	}
	d2.Release()

	// Without SetBorrow, nothing aliases regardless of size.
	d3 := NewDecoder(data)
	gotCopy := readBytes(d3)
	d3.Value()
	if d3.Err() != nil {
		t.Fatal(d3.Err())
	}
	if d3.Borrowed() {
		t.Error("Borrowed set without SetBorrow")
	}
	snap := append([]byte(nil), gotCopy...)
	data[len(data)-10] ^= 0xFF // restore the original bytes
	if !bytes.Equal(gotCopy, snap) {
		t.Error("copy-mode ByteSlice aliased the input")
	}
}

// TestDecoderForgetsFrame: the struct and field names a decode interned are
// views into its input, and a decoder that is reset or released keeps none
// of them, so a read loop's long-lived decoder, or a pooled one, never holds
// a frame alive after it moved on.
func TestDecoderForgetsFrame(t *testing.T) {
	data, err := BinFmt{}.Marshal(fuzzMsg{S: "struct", I: 7})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(data)
	if _, err := d.Decode(); err != nil {
		t.Fatal(err)
	}
	if len(d.d.idents) == 0 {
		t.Fatal("decoding a struct interned no names")
	}
	idents := d.d.idents[:cap(d.d.idents)]
	d.Reset(nil)
	for i, v := range idents {
		if v != nil {
			t.Fatalf("name %d, %q, still a view into the previous input after Reset", i, v)
		}
	}
	d.Release()
}
