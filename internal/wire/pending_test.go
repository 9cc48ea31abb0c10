package wire

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"
)

// FuzzPendingArgs holds a PendingList to the eager decode it defers: for any
// bytes, reading the list and binding its elements gives the values, and the
// error or its absence, that Decoder.AnySlice(nil) gives decoding the whole
// []any with Value, a byte after the last element included. The list is
// bound three ways: in order through Into (each element into a variable of
// its decoded type, falling back to Value where Into declines), boxed in
// order through Value and DecodeArgs, and out of order: the last element
// first, then the first, then the middle one twice. Values are compared by their canonical
// encoding, which also holds NaN payloads to the bit.
func FuzzPendingArgs(f *testing.F) {
	// The argument lists of remoting's golden call frames (callGolden).
	for _, h := range []string{
		"1801120301000000feffffffe0930400",
		"18030f02686907540e0000000000000440",
		"1800",
		"18021801070218010704",
		"18020e00000000000024400e0000000000001040",
	} {
		b, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// Struct arguments whose type and field names refer back to the first
	// argument's, a borrowed payload, and a list with a byte after it.
	for _, args := range [][]any{
		{fuzzMsg{S: "first", I: 1}, &fuzzMsg{S: "second", Vs: []any{fuzzMsg{I: 3}}}, "tail"},
		{1, fuzzMsg{V: []any{fuzzMsg{B: true}}}, fuzzMsg{F32: 1.5}},
		{bytes.Repeat([]byte{0xAB}, BorrowMin), 300, []int32{1, 2}},
	} {
		e := NewEncoder()
		e.AnySlice(args)
		if e.Err() != nil {
			f.Fatal(e.Err())
		}
		f.Add(bytes.Clone(e.Bytes()))
		f.Add(append(bytes.Clone(e.Bytes()), 0x00))
		e.Release()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ref := NewDecoder(data)
		defer ref.Release()
		ref.SetBorrow(true)
		want := ref.AnySlice(nil)
		wantErr := ref.Err()
		if wantErr == nil && len(want) > 0 && ref.Rest() != 0 {
			wantErr = fmt.Errorf("wire/binfmt: %d trailing bytes after the list", ref.Rest())
		}

		var list PendingList
		read := func() []any {
			list.Reset()
			d := NewDecoder(data)
			defer d.Release()
			d.SetBorrow(true)
			args := d.AnySlice(&list)
			if err := d.Err(); err != nil {
				if wantErr == nil || err.Error() != wantErr.Error() {
					t.Fatalf("reading the list failed with %v, the eager decode with %v", err, wantErr)
				}
				return nil
			}
			if len(args) == 0 && d.Rest() != ref.Rest() {
				t.Fatalf("an empty list left %d bytes, the eager decode %d", d.Rest(), ref.Rest())
			}
			return args
		}
		// check holds the outcome of binding element i to the eager decode;
		// first is the first error of a binding, which must be wantErr.
		var first error
		check := func(how string, i int, v any, err error) {
			t.Helper()
			if err != nil {
				if first == nil {
					first = err
				}
				return
			}
			if wantErr != nil {
				return
			}
			got, gerr := BinFmt{}.Marshal(v)
			exp, eerr := BinFmt{}.Marshal(want[i])
			if gerr != nil || eerr != nil || !bytes.Equal(got, exp) {
				t.Fatalf("%s: element %d is %#v, the eager decode %#v", how, i, v, want[i])
			}
		}
		done := func(how string, n int) {
			t.Helper()
			if n > 0 && (first == nil) != (wantErr == nil) || first != nil && first.Error() != wantErr.Error() {
				t.Fatalf("%s: first error %v, the eager decode %v", how, first, wantErr)
			}
			if wantErr == nil && len(want) != n {
				t.Fatalf("%s: %d elements, the eager decode %d", how, n, len(want))
			}
			first = nil
		}

		args := read()
		for i, a := range args {
			typ := reflect.TypeFor[any]()
			if wantErr == nil && want[i] != nil {
				typ = reflect.TypeOf(want[i])
			}
			dst := reflect.New(typ)
			p := a.(*Pending)
			took, err := p.Into(dst.Interface())
			v := dst.Elem().Interface()
			if !took {
				v, err = p.Value()
			}
			check("Into", i, v, err)
		}
		done("Into", len(args))
		if wantErr == nil && len(args) > 0 && list.Borrowed() != ref.Borrowed() {
			t.Fatalf("the list reports borrowed %v, the eager decode %v", list.Borrowed(), ref.Borrowed())
		}

		args = read()
		for i, a := range args {
			v, err := a.(*Pending).Value()
			check("Value", i, v, err)
		}
		done("Value", len(args))

		args = read()
		if err := DecodeArgs(args); err != nil {
			first = err
		} else {
			for i, v := range args {
				check("DecodeArgs", i, v, nil)
			}
		}
		done("DecodeArgs", len(args))

		args = read()
		var order []int
		if n := len(args); n > 0 {
			// The last element reads past every other one; the first and
			// the middle (twice) read the list again from its start.
			order = []int{n - 1, 0, n / 2, n / 2}
		}
		for _, i := range order {
			v, err := args[i].(*Pending).Value()
			check("out of order", i, v, err)
		}
		done("out of order", len(args))
	})
}
