// Package wire is the runtime's serialisation substrate: one compact,
// tagged binary format (BinFmt, the analogue of the .NET BinaryFormatter the
// paper's remoting TCP channel uses), spoken by every remoting connection.
//
// A value is a tag byte followed by its body. The value model is nil,
// booleans, fixed-width signed and unsigned integers, floats, strings, byte
// slices, fast-path numeric and string slices, heterogeneous slices ([]any),
// string-keyed maps and registered struct types (by value or pointer). A
// struct carries its registered name and its field names, interned per
// message: the first occurrence spells a name out, later ones refer back to
// it. A struct type must be registered with Register or RegisterName before
// it can cross the wire; it is encoded and decoded by reflection.
//
// Encoder and Decoder are the streaming surfaces the remoting envelopes write
// and read through; BinFmt wraps them as whole-value Marshal and Unmarshal.
package wire

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
)

// Tag bytes: the first byte of every encoded value, naming its kind.
const (
	tNil byte = iota
	tTrue
	tFalse
	tInt8
	tInt16
	tInt32
	tInt64
	tInt
	tUint8
	tUint16
	tUint32
	tUint64
	tUint
	tFloat32
	tFloat64
	tString
	tBytes
	tIntSlice
	tInt32Slice
	tInt64Slice
	tFloat32Slice
	tFloat64Slice
	tStringSlice
	tBoolSlice
	tAnySlice
	tMap
	tStruct
	tPtrStruct
)

// TagString and TagAnySlice are the tag bytes a string and a heterogeneous
// slice start with, for hand-framed envelopes (Encoder.RawByte) that write
// or recognise a tagged shape without building the value it describes.
const (
	TagString   = tString
	TagAnySlice = tAnySlice
)

// registry maps stable names to registered struct types so that structs can
// be decoded on a node that did not produce them.
var registry = struct {
	sync.RWMutex
	byName map[string]reflect.Type
	byType map[reflect.Type]string
}{
	byName: make(map[string]reflect.Type),
	byType: make(map[reflect.Type]string),
}

// Register registers the struct type of sample under its package-qualified
// name (for example "raytracer.RenderRequest"). sample may be a value or a
// pointer; the pointed-to struct type is registered. Register panics when
// sample is not a (pointer to) struct, matching the fail-fast behaviour of
// encoding/gob.
func Register(sample any) {
	t := reflect.TypeOf(sample)
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t == nil || t.Kind() != reflect.Struct {
		panic(fmt.Sprintf("wire: Register called with non-struct %T", sample))
	}
	name := t.String()
	RegisterName(name, sample)
}

// RegisterName registers the struct type of sample under an explicit name.
// Registering the same name for the same type twice is a no-op; registering
// the same name for a different type panics.
func RegisterName(name string, sample any) {
	t := reflect.TypeOf(sample)
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t == nil || t.Kind() != reflect.Struct {
		panic(fmt.Sprintf("wire: RegisterName(%q) called with non-struct %T", name, sample))
	}
	registry.Lock()
	defer registry.Unlock()
	if prev, ok := registry.byName[name]; ok {
		if prev != t {
			panic(fmt.Sprintf("wire: name %q already registered for %v, cannot rebind to %v", name, prev, t))
		}
		return
	}
	registry.byName[name] = t
	// The first registration wins as the canonical encoding name; later
	// registrations of the same type under other names act as decode-side
	// aliases.
	if _, exists := registry.byType[t]; !exists {
		registry.byType[t] = name
	}
}

// RegisteredType returns the struct type registered under name, the inverse
// of RegisteredName.
func RegisteredType(name string) (reflect.Type, bool) {
	registry.RLock()
	defer registry.RUnlock()
	t, ok := registry.byName[name]
	return t, ok
}

// nameOf returns the registered name for a struct type.
func nameOf(t reflect.Type) (string, bool) {
	registry.RLock()
	defer registry.RUnlock()
	n, ok := registry.byType[t]
	return n, ok
}

// RegisteredName reports the wire name of the (possibly pointer) struct type
// of sample, if it has been registered.
func RegisteredName(sample any) (string, bool) {
	t := reflect.TypeOf(sample)
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t == nil {
		return "", false
	}
	return nameOf(t)
}

// structField describes one exported field of a registered struct.
type structField struct {
	name  string
	index int
}

var fieldCache sync.Map // reflect.Type -> []structField

// fieldsOf returns the exported fields of a struct type in a stable
// (alphabetical) order so that encodings are deterministic.
func fieldsOf(t reflect.Type) []structField {
	if cached, ok := fieldCache.Load(t); ok {
		return cached.([]structField)
	}
	var fields []structField
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		fields = append(fields, structField{name: f.Name, index: i})
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i].name < fields[j].name })
	fieldCache.Store(t, fields)
	return fields
}

// An UnsupportedTypeError is returned when a value outside the wire model is
// encoded.
type UnsupportedTypeError struct {
	Type reflect.Type
}

func (e *UnsupportedTypeError) Error() string {
	return fmt.Sprintf("wire: unsupported type %v", e.Type)
}

// An UnknownTypeError is returned when a message names a struct type that
// has not been registered on the decoding side.
type UnknownTypeError struct {
	Name string
}

func (e *UnknownTypeError) Error() string {
	return fmt.Sprintf("wire: unknown registered type %q", e.Name)
}
