package wire

import (
	"reflect"
	"strings"
	"testing"
)

// typedValues has one value of every type ValueInto has a slot for.
var typedValues = []any{
	[]byte{1, 2, 3}, []int{1, -2}, []int32{-1, 300000}, []int64{1 << 40}, []float32{1.5}, []float64{-2.5, 0},
	[]string{"a", ""}, []bool{true, false}, "text", true, false,
	int(-5), int8(-3), int16(-300), int32(-70000), int64(-1 << 40),
	uint(5), uint8(200), uint16(60000), uint32(4000000000), uint64(1 << 63),
	float32(1.25), float64(-2.5),
}

// TestValueInto: a slot takes a value exactly when the value's tag is the
// one the slot's type encodes to, and then holds what the generic reader
// would have returned; on every other tag it consumes nothing, stays as it
// was, and the generic reader still sees the value. A destination that is no
// slot at all never takes anything.
func TestValueInto(t *testing.T) {
	others := []any{nil, []any{1, "x"}, map[string]any{"k": 1}}
	for _, v := range append(append([]any{}, typedValues...), others...) {
		e := NewEncoder()
		e.Value(v)
		if err := e.Err(); err != nil {
			t.Fatal(err)
		}
		data := append([]byte(nil), e.Bytes()...)
		e.Release()
		for _, slotOf := range typedValues {
			typ := reflect.TypeOf(slotOf)
			slot := reflect.New(typ)
			d := NewDecoder(data)
			took := d.ValueInto(slot.Interface())
			if want := v != nil && reflect.TypeOf(v) == typ; took != want {
				t.Errorf("%T into *%v: took=%v", v, typ, took)
			}
			if took {
				if d.Err() != nil || d.Rest() != 0 || !reflect.DeepEqual(slot.Elem().Interface(), v) {
					t.Errorf("%T into its slot: got %v, err %v, %d bytes left", v, slot.Elem(), d.Err(), d.Rest())
				}
			} else {
				if d.Rest() != len(data) || !slot.Elem().IsZero() {
					t.Errorf("%T into *%v: refused, but %d of %d bytes left and the slot holds %v", v, typ, d.Rest(), len(data), slot.Elem())
				}
				if got := d.Value(); d.Err() != nil || !reflect.DeepEqual(got, v) {
					t.Errorf("%T after *%v refused it: generic reader got %v, %v", v, typ, got, d.Err())
				}
			}
			d.Release()
		}
		d := NewDecoder(data)
		var dyn any
		var msg testMessage
		if d.ValueInto(&dyn) || d.ValueInto(&msg) || d.ValueInto(msg) || d.ValueInto(nil) || d.Rest() != len(data) {
			t.Errorf("%T was taken by a destination that is no slot", v)
		}
		d.Release()
	}
}

// TestTypedReadersOnTruncatedInput: a slice whose count says more than the
// input holds fails with the count error, through the typed slot and the
// generic reader alike; nothing panics on any prefix, and a
// failed slot is left alone (an empty input is no value at all, and no slot's). Once an error is recorded a slot takes nothing.
func TestTypedReadersOnTruncatedInput(t *testing.T) {
	for _, v := range typedValues {
		typ := reflect.TypeOf(v)
		if typ.Kind() != reflect.Slice {
			continue
		}
		e := NewEncoder()
		e.Value(v)
		data := append([]byte(nil), e.Bytes()...)
		e.Release()
		for cut := 1; cut < len(data); cut++ {
			slot := reflect.New(typ)
			readers := map[string]func(d *Decoder){
				"Value":     func(d *Decoder) { d.Value() },
				"ValueInto": func(d *Decoder) { d.ValueInto(slot.Interface()) },
			}
			for name, read := range readers {
				d := NewDecoder(data[:cut])
				read(d)
				err := d.Err()
				if err == nil {
					t.Fatalf("%v cut to %d of %d bytes: %s accepted it", typ, cut, len(data), name)
				}
				// Past the tag and the count, what is missing is elements.
				if cut >= 2 && typ.Elem().Kind() != reflect.String && !strings.Contains(err.Error(), "exceeds remaining") {
					t.Errorf("%v cut to %d of %d bytes: %s failed with %q, want the count error", typ, cut, len(data), name, err)
				}
				if !slot.Elem().IsZero() {
					t.Errorf("%v cut to %d bytes: the slot was written on a failed read", typ, cut)
				}
				if d.ValueInto(slot.Interface()) {
					t.Errorf("%v: a slot took a value after %v", typ, err)
				}
				d.Release()
			}
		}
	}
}
