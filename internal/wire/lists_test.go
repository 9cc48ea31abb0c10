package wire

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzPendingLists holds Pending.List to the eager decode of a list of
// lists, the shape of a batch's arguments: for any input, binding the
// elements of each element's list, in order and then last list first, gives
// the values the eager decode gives, and the error it gives, the end of the
// input checked after the last list included. An element that is not a list
// is List's error and keeps its value for Value.
func FuzzPendingLists(f *testing.F) {
	for _, lists := range [][]any{
		{[]any{1}, []any{2, "two"}, []any{}},
		{[]any{fuzzMsg{S: "a"}}, []any{&fuzzMsg{S: "b", Vs: []any{fuzzMsg{I: 3}}}}, []any{fuzzMsg{B: true}}},
		{[]any{bytes.Repeat([]byte{0xAB}, BorrowMin)}, "not a list", []any{nil, 1.5}},
		{[]any{[]any{1, 2}, []int32{3}}, []any{}},
	} {
		e := NewEncoder()
		e.AnySlice(lists)
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
		d := NewDecoder(data)
		defer d.Release()
		d.SetBorrow(true)
		args := d.AnySlice(&list)
		if d.Err() != nil || len(args) == 0 {
			return // the list's own read, which FuzzPendingArgs holds
		}
		var first error
		check := func(how string, v, w any, err error) {
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
			exp, eerr := BinFmt{}.Marshal(w)
			if gerr != nil || eerr != nil || !bytes.Equal(got, exp) {
				t.Fatalf("%s: %#v, the eager decode %#v", how, v, w)
			}
		}
		bind := func(how string, i int) {
			t.Helper()
			var w any
			if wantErr == nil {
				w = want[i]
			}
			p := args[i].(*Pending)
			inner, err := p.List()
			if err != nil {
				if _, isList := w.([]any); isList {
					t.Fatalf("%s: List of element %d, a list: %v", how, i, err)
				}
				v, err := p.Value()
				check(fmt.Sprintf("%s: element %d", how, i), v, w, err)
				return
			}
			ws, isList := w.([]any)
			if wantErr == nil && (!isList || len(ws) != len(inner)) {
				t.Fatalf("%s: element %d read as a list of %d, the eager decode %#v", how, i, len(inner), w)
			}
			for j, a := range inner {
				var wj any
				if wantErr == nil {
					wj = ws[j]
				}
				v, err := a.(*Pending).Value()
				check(fmt.Sprintf("%s: element %d.%d", how, i, j), v, wj, err)
			}
		}
		done := func(how string) {
			t.Helper()
			if (first == nil) != (wantErr == nil) || first != nil && first.Error() != wantErr.Error() {
				t.Fatalf("%s: first error %v, the eager decode %v", how, first, wantErr)
			}
			first = nil
		}

		for i := range args {
			bind("in order", i)
		}
		done("in order")
		if wantErr == nil && list.Borrowed() != ref.Borrowed() {
			t.Fatalf("the list reports borrowed %v, the eager decode %v", list.Borrowed(), ref.Borrowed())
		}
		for i := len(args) - 1; i >= 0; i-- {
			bind("last first", i)
		}
		if wantErr == nil {
			done("last first")
		}
	})
}

// TestListPointerEncodesAsList: a *[]any is written as the list it points
// at, a nil one as nil, which is how a batch's argument lists are sent.
func TestListPointerEncodesAsList(t *testing.T) {
	lists := [][]any{{1, "one"}, {}, {fuzzMsg{S: "s"}, []byte("b")}, {fuzzMsg{S: "t"}}}
	boxed := make([]any, 0, len(lists)+1)
	byPointer := make([]any, 0, len(lists)+1)
	for i := range lists {
		boxed = append(boxed, lists[i])
		byPointer = append(byPointer, &lists[i])
	}
	boxed = append(boxed, nil)
	byPointer = append(byPointer, (*[]any)(nil))
	want, err := BinFmt{}.Marshal(boxed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := BinFmt{}.Marshal(byPointer)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("by pointer %x, boxed %x", got, want)
	}
}
