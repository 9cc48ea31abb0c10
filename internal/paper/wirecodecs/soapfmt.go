package wirecodecs

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"

	"repro/internal/wire"
)

// SoapFmt is the verbose textual codec, the analogue of the SOAP encoding
// used by the remoting HTTP channel in the paper's Fig. 8b. Values are
// encoded as s-expressions with symbolic type names and decimal number
// literals, so the encoding is typically several times larger than BinFmt —
// exactly the property that makes the HTTP channel's bandwidth collapse in
// experiment E2.
//
// Grammar (produced and consumed only by this codec):
//
//	value  := "(" type rest ")"
//	type   := nil | bool | i8 | i16 | i32 | i64 | int | u8 | u16 | u32 |
//	          u64 | uint | f32 | f64 | str | bytes | arr | seq | map |
//	          struct | ptrstruct
//	arr    := elemtype count item*          (numeric/string/bool fast paths)
//	seq    := count value*                  (heterogeneous slice)
//	map    := count (key value)*
//	struct := "name" count (field value)*
//
// Strings are Go-quoted; floats use strconv 'g' formatting with full
// precision so round-trips are exact.
type SoapFmt struct{}

// Name implements Codec.
func (SoapFmt) Name() string { return "soapfmt" }

// Marshal implements Codec.
func (SoapFmt) Marshal(v any) ([]byte, error) {
	var sb strings.Builder
	if err := soapEncode(&sb, v); err != nil {
		return nil, err
	}
	return []byte(sb.String()), nil
}

// Unmarshal implements Codec.
func (SoapFmt) Unmarshal(data []byte) (any, error) {
	p := &soapParser{toks: soapTokenize(string(data))}
	v, err := p.parseValue()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, fmt.Errorf("soapfmt: trailing tokens after value")
	}
	return v, nil
}

func soapEncode(sb *strings.Builder, v any) error {
	if v == nil {
		sb.WriteString("(nil)")
		return nil
	}
	switch x := v.(type) {
	case bool:
		fmt.Fprintf(sb, "(bool %t)", x)
	case int8:
		fmt.Fprintf(sb, "(i8 %d)", x)
	case int16:
		fmt.Fprintf(sb, "(i16 %d)", x)
	case int32:
		fmt.Fprintf(sb, "(i32 %d)", x)
	case int64:
		fmt.Fprintf(sb, "(i64 %d)", x)
	case int:
		fmt.Fprintf(sb, "(int %d)", x)
	case uint8:
		fmt.Fprintf(sb, "(u8 %d)", x)
	case uint16:
		fmt.Fprintf(sb, "(u16 %d)", x)
	case uint32:
		fmt.Fprintf(sb, "(u32 %d)", x)
	case uint64:
		fmt.Fprintf(sb, "(u64 %d)", x)
	case uint:
		fmt.Fprintf(sb, "(uint %d)", x)
	case float32:
		fmt.Fprintf(sb, "(f32 %s)", strconv.FormatFloat(float64(x), 'g', -1, 32))
	case float64:
		fmt.Fprintf(sb, "(f64 %s)", strconv.FormatFloat(x, 'g', -1, 64))
	case string:
		fmt.Fprintf(sb, "(str %s)", strconv.Quote(x))
	case []byte:
		sb.WriteString("(bytes ")
		sb.WriteString(strconv.Itoa(len(x)))
		for _, b := range x {
			fmt.Fprintf(sb, " %d", b)
		}
		sb.WriteString(")")
	case []int:
		soapEncodeNums(sb, "int", len(x), func(i int) string { return strconv.Itoa(x[i]) })
	case []int32:
		soapEncodeNums(sb, "i32", len(x), func(i int) string { return strconv.FormatInt(int64(x[i]), 10) })
	case []int64:
		soapEncodeNums(sb, "i64", len(x), func(i int) string { return strconv.FormatInt(x[i], 10) })
	case []float32:
		soapEncodeNums(sb, "f32", len(x), func(i int) string {
			return strconv.FormatFloat(float64(x[i]), 'g', -1, 32)
		})
	case []float64:
		soapEncodeNums(sb, "f64", len(x), func(i int) string {
			return strconv.FormatFloat(x[i], 'g', -1, 64)
		})
	case []string:
		sb.WriteString("(arr str ")
		sb.WriteString(strconv.Itoa(len(x)))
		for _, s := range x {
			sb.WriteString(" ")
			sb.WriteString(strconv.Quote(s))
		}
		sb.WriteString(")")
	case []bool:
		soapEncodeNums(sb, "bool", len(x), func(i int) string { return strconv.FormatBool(x[i]) })
	case []any:
		sb.WriteString("(seq ")
		sb.WriteString(strconv.Itoa(len(x)))
		for _, el := range x {
			sb.WriteString(" ")
			if err := soapEncode(sb, el); err != nil {
				return err
			}
		}
		sb.WriteString(")")
	case map[string]any:
		return soapEncodeMap(sb, reflect.ValueOf(x))
	default:
		return soapEncodeReflect(sb, reflect.ValueOf(v))
	}
	return nil
}

func soapEncodeNums(sb *strings.Builder, elem string, n int, item func(int) string) {
	sb.WriteString("(arr ")
	sb.WriteString(elem)
	sb.WriteString(" ")
	sb.WriteString(strconv.Itoa(n))
	for i := 0; i < n; i++ {
		sb.WriteString(" ")
		sb.WriteString(item(i))
	}
	sb.WriteString(")")
}

func soapEncodeMap(sb *strings.Builder, rv reflect.Value) error {
	keys := sortedKeys(rv)
	sb.WriteString("(map ")
	sb.WriteString(strconv.Itoa(len(keys)))
	for _, k := range keys {
		sb.WriteString(" ")
		sb.WriteString(strconv.Quote(k))
		sb.WriteString(" ")
		if err := soapEncode(sb, rv.MapIndex(reflect.ValueOf(k)).Interface()); err != nil {
			return err
		}
	}
	sb.WriteString(")")
	return nil
}

func soapEncodeReflect(sb *strings.Builder, rv reflect.Value) error {
	switch rv.Kind() {
	case reflect.Pointer:
		if rv.IsNil() {
			sb.WriteString("(nil)")
			return nil
		}
		if rv.Elem().Kind() == reflect.Struct {
			return soapEncodeStruct(sb, rv.Elem(), "ptrstruct")
		}
		return soapEncode(sb, rv.Elem().Interface())
	case reflect.Struct:
		return soapEncodeStruct(sb, rv, "struct")
	case reflect.Slice, reflect.Array:
		sb.WriteString("(seq ")
		sb.WriteString(strconv.Itoa(rv.Len()))
		for i := 0; i < rv.Len(); i++ {
			sb.WriteString(" ")
			if err := soapEncode(sb, rv.Index(i).Interface()); err != nil {
				return err
			}
		}
		sb.WriteString(")")
		return nil
	case reflect.Map:
		if rv.Type().Key().Kind() != reflect.String {
			return &wire.UnsupportedTypeError{Type: rv.Type()}
		}
		return soapEncodeMap(sb, rv)
	case reflect.Interface:
		if rv.IsNil() {
			sb.WriteString("(nil)")
			return nil
		}
		return soapEncode(sb, rv.Elem().Interface())
	}
	return &wire.UnsupportedTypeError{Type: rv.Type()}
}

func soapEncodeStruct(sb *strings.Builder, rv reflect.Value, kw string) error {
	name, err := structName(rv)
	if err != nil {
		return err
	}
	fields := fieldsOf(rv.Type())
	sb.WriteString("(")
	sb.WriteString(kw)
	sb.WriteString(" ")
	sb.WriteString(strconv.Quote(name))
	sb.WriteString(" ")
	sb.WriteString(strconv.Itoa(len(fields)))
	for _, f := range fields {
		sb.WriteString(" ")
		sb.WriteString(strconv.Quote(f.name))
		sb.WriteString(" ")
		if err := soapEncode(sb, rv.Field(f.index).Interface()); err != nil {
			return err
		}
	}
	sb.WriteString(")")
	return nil
}

// soapTokenize splits the textual form into parens, quoted strings and
// atoms. Quoted strings keep their quotes for strconv.Unquote.
func soapTokenize(s string) []string {
	var toks []string
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\n' || c == '\t' || c == '\r':
			i++
		case c == '(' || c == ')':
			toks = append(toks, string(c))
			i++
		case c == '"':
			j := i + 1
			for j < len(s) {
				if s[j] == '\\' {
					j += 2
					continue
				}
				if s[j] == '"' {
					break
				}
				j++
			}
			if j >= len(s) {
				j = len(s) - 1
			}
			toks = append(toks, s[i:j+1])
			i = j + 1
		default:
			j := i
			for j < len(s) && s[j] != ' ' && s[j] != '(' && s[j] != ')' &&
				s[j] != '\n' && s[j] != '\t' && s[j] != '\r' {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		}
	}
	return toks
}

type soapParser struct {
	toks []string
	pos  int
}

func (p *soapParser) eof() bool { return p.pos >= len(p.toks) }

func (p *soapParser) next() (string, error) {
	if p.eof() {
		return "", fmt.Errorf("soapfmt: unexpected end of input")
	}
	t := p.toks[p.pos]
	p.pos++
	return t, nil
}

func (p *soapParser) expect(tok string) error {
	t, err := p.next()
	if err != nil {
		return err
	}
	if t != tok {
		return fmt.Errorf("soapfmt: expected %q, got %q", tok, t)
	}
	return nil
}

func (p *soapParser) nextInt() (int64, error) {
	t, err := p.next()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("soapfmt: bad integer %q", t)
	}
	return n, nil
}

func (p *soapParser) nextUint() (uint64, error) {
	t, err := p.next()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseUint(t, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("soapfmt: bad unsigned integer %q", t)
	}
	return n, nil
}

// nextCount reads the count of a sequence whose every item takes at least
// one token, rejecting a negative count or one larger than the tokens left
// before it sizes an allocation.
func (p *soapParser) nextCount() (int, error) {
	n, err := p.nextInt()
	if err != nil {
		return 0, err
	}
	if left := len(p.toks) - p.pos; n < 0 || n > int64(left) {
		return 0, fmt.Errorf("soapfmt: count %d out of range with %d tokens left", n, left)
	}
	return int(n), nil
}

func (p *soapParser) nextFloat(bits int) (float64, error) {
	t, err := p.next()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(t, bits)
	if err != nil {
		return 0, fmt.Errorf("soapfmt: bad float %q", t)
	}
	return f, nil
}

func (p *soapParser) nextString() (string, error) {
	t, err := p.next()
	if err != nil {
		return "", err
	}
	s, err := strconv.Unquote(t)
	if err != nil {
		return "", fmt.Errorf("soapfmt: bad string token %q", t)
	}
	return s, nil
}

func (p *soapParser) parseValue() (any, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	kind, err := p.next()
	if err != nil {
		return nil, err
	}
	var out any
	switch kind {
	case "nil":
		out = nil
	case "bool":
		t, err := p.next()
		if err != nil {
			return nil, err
		}
		out = t == "true"
	case "i8":
		n, err := p.nextInt()
		if err != nil {
			return nil, err
		}
		out = int8(n)
	case "i16":
		n, err := p.nextInt()
		if err != nil {
			return nil, err
		}
		out = int16(n)
	case "i32":
		n, err := p.nextInt()
		if err != nil {
			return nil, err
		}
		out = int32(n)
	case "i64":
		n, err := p.nextInt()
		if err != nil {
			return nil, err
		}
		out = n
	case "int":
		n, err := p.nextInt()
		if err != nil {
			return nil, err
		}
		out = int(n)
	case "u8":
		n, err := p.nextUint()
		if err != nil {
			return nil, err
		}
		out = uint8(n)
	case "u16":
		n, err := p.nextUint()
		if err != nil {
			return nil, err
		}
		out = uint16(n)
	case "u32":
		n, err := p.nextUint()
		if err != nil {
			return nil, err
		}
		out = uint32(n)
	case "u64":
		n, err := p.nextUint()
		if err != nil {
			return nil, err
		}
		out = n
	case "uint":
		n, err := p.nextUint()
		if err != nil {
			return nil, err
		}
		out = uint(n)
	case "f32":
		f, err := p.nextFloat(32)
		if err != nil {
			return nil, err
		}
		out = float32(f)
	case "f64":
		f, err := p.nextFloat(64)
		if err != nil {
			return nil, err
		}
		out = f
	case "str":
		s, err := p.nextString()
		if err != nil {
			return nil, err
		}
		out = s
	case "bytes":
		n, err := p.nextCount()
		if err != nil {
			return nil, err
		}
		b := make([]byte, n)
		for i := range b {
			u, err := p.nextUint()
			if err != nil {
				return nil, err
			}
			if u > math.MaxUint8 {
				return nil, fmt.Errorf("soapfmt: byte value %d out of range", u)
			}
			b[i] = byte(u)
		}
		out = b
	case "arr":
		v, err := p.parseArray()
		if err != nil {
			return nil, err
		}
		out = v
	case "seq":
		n, err := p.nextCount()
		if err != nil {
			return nil, err
		}
		seq := make([]any, n)
		for i := range seq {
			seq[i], err = p.parseValue()
			if err != nil {
				return nil, err
			}
		}
		out = seq
	case "map":
		n, err := p.nextCount()
		if err != nil {
			return nil, err
		}
		m := make(map[string]any, n)
		for i := 0; i < n; i++ {
			k, err := p.nextString()
			if err != nil {
				return nil, err
			}
			m[k], err = p.parseValue()
			if err != nil {
				return nil, err
			}
		}
		out = m
	case "struct", "ptrstruct":
		v, err := p.parseStruct()
		if err != nil {
			return nil, err
		}
		if kind == "struct" {
			out = v.Elem().Interface()
		} else {
			out = v.Interface()
		}
	default:
		return nil, fmt.Errorf("soapfmt: unknown value kind %q", kind)
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *soapParser) parseArray() (any, error) {
	elem, err := p.next()
	if err != nil {
		return nil, err
	}
	n, err := p.nextCount()
	if err != nil {
		return nil, err
	}
	switch elem {
	case "int":
		out := make([]int, n)
		for i := range out {
			v, err := p.nextInt()
			if err != nil {
				return nil, err
			}
			out[i] = int(v)
		}
		return out, nil
	case "i32":
		out := make([]int32, n)
		for i := range out {
			v, err := p.nextInt()
			if err != nil {
				return nil, err
			}
			out[i] = int32(v)
		}
		return out, nil
	case "i64":
		out := make([]int64, n)
		for i := range out {
			v, err := p.nextInt()
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	case "f32":
		out := make([]float32, n)
		for i := range out {
			v, err := p.nextFloat(32)
			if err != nil {
				return nil, err
			}
			out[i] = float32(v)
		}
		return out, nil
	case "f64":
		out := make([]float64, n)
		for i := range out {
			v, err := p.nextFloat(64)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	case "str":
		out := make([]string, n)
		for i := range out {
			v, err := p.nextString()
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	case "bool":
		out := make([]bool, n)
		for i := range out {
			t, err := p.next()
			if err != nil {
				return nil, err
			}
			out[i] = t == "true"
		}
		return out, nil
	}
	return nil, fmt.Errorf("soapfmt: unknown array element kind %q", elem)
}

func (p *soapParser) parseStruct() (reflect.Value, error) {
	name, err := p.nextString()
	if err != nil {
		return reflect.Value{}, err
	}
	ptr, err := newStruct(name)
	if err != nil {
		return reflect.Value{}, err
	}
	n, err := p.nextCount()
	if err != nil {
		return reflect.Value{}, err
	}
	for i := 0; i < n; i++ {
		fname, err := p.nextString()
		if err != nil {
			return reflect.Value{}, err
		}
		v, err := p.parseValue()
		if err != nil {
			return reflect.Value{}, err
		}
		if err := setField(ptr.Elem(), fname, v); err != nil {
			return reflect.Value{}, err
		}
	}
	return ptr, nil
}
