// Package wirecodecs holds the two 2005 wire formats the paper contrasts with
// the .NET BinaryFormatter, built over package wire's value model:
//
//   - JavaSer, Java object serialisation as the RMI baseline uses it:
//     self-describing streams that carry a full class descriptor per object
//     plus block-data chunking;
//   - SoapFmt, the SOAP encoding of the remoting HTTP channel (Fig. 8b): a
//     verbose textual format.
//
// Codec is what the paper's stacks and figures take, so that wire.BinFmt,
// the runtime's own format, lines up beside the two. Struct types cross
// these formats under the names they registered with wire.Register.
package wirecodecs

import (
	"fmt"
	"reflect"
	"sort"
	"sync"

	"repro/internal/wire"
)

// Codec converts values to and from a self-contained byte representation.
// Implementations must round-trip every value of wire's model:
// Unmarshal(Marshal(v)) yields a value equal to v modulo the canonical
// decode types documented on Unmarshal.
type Codec interface {
	// Name returns the codec's stable identifier ("binfmt", "javaser",
	// "soapfmt").
	Name() string
	// Marshal encodes v.
	Marshal(v any) ([]byte, error)
	// Unmarshal decodes a value produced by Marshal. Integers decode to
	// the width they were encoded with, struct values decode to T and
	// struct pointers to *T for the registered type T, heterogeneous
	// slices decode to []any and maps to map[string]any.
	Unmarshal(data []byte) (any, error)
}

// structField is one exported field of a registered struct.
type structField struct {
	name  string
	index int
}

var fieldCache sync.Map // reflect.Type -> []structField

// fieldsOf returns the exported fields of a struct type in alphabetical
// order, the order wire encodes them in, so that encodings are
// deterministic.
func fieldsOf(t reflect.Type) []structField {
	if cached, ok := fieldCache.Load(t); ok {
		return cached.([]structField)
	}
	var fields []structField
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.IsExported() {
			fields = append(fields, structField{name: f.Name, index: i})
		}
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i].name < fields[j].name })
	fieldCache.Store(t, fields)
	return fields
}

// structName returns the registered wire name of the struct value rv.
func structName(rv reflect.Value) (string, error) {
	name, ok := wire.RegisteredName(rv.Interface())
	if !ok {
		return "", &wire.UnsupportedTypeError{Type: rv.Type()}
	}
	return name, nil
}

// newStruct returns a pointer to a fresh value of the struct type registered
// under name.
func newStruct(name string) (reflect.Value, error) {
	t, ok := wire.RegisteredType(name)
	if !ok {
		return reflect.Value{}, &wire.UnknownTypeError{Name: name}
	}
	return reflect.New(t), nil
}

// setField assigns a decoded value to the named field, tolerating fields
// removed on the receiving side (the value is discarded) so that schema
// evolution does not break old peers.
func setField(st reflect.Value, name string, v any) error {
	f := st.FieldByName(name)
	if !f.IsValid() {
		return nil
	}
	av, err := wire.Assign(f.Type(), v)
	if err != nil {
		return fmt.Errorf("wirecodecs: field %s.%s: %w", st.Type(), name, err)
	}
	f.Set(av)
	return nil
}

// sortedKeys returns the keys of a string-keyed map in order, which keeps
// encodings reproducible.
func sortedKeys(rv reflect.Value) []string {
	keys := make([]string, 0, rv.Len())
	for _, k := range rv.MapKeys() {
		keys = append(keys, k.String())
	}
	sort.Strings(keys)
	return keys
}
