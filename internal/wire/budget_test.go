package wire

import (
	"testing"

	"repro/internal/racetest"
)

// callMsg has the shape of the remoting request envelope (URI, method,
// sequence number, deadline, argument list), the struct every remote call
// serialises. Its codec below is written in parcgen's output shape.
type callMsg struct {
	URI      string
	Method   string
	Seq      uint64
	Deadline int64
	Args     []any
}

// MarshalWire mirrors parcgen output (fields in alphabetical order).
func (x *callMsg) MarshalWire(e *Encoder) error {
	e.BeginStruct("wire.callMsg", 5)
	e.FieldName("Args")
	e.AnySlice(x.Args)
	e.FieldName("Deadline")
	e.Int64(x.Deadline)
	e.FieldName("Method")
	e.String(x.Method)
	e.FieldName("Seq")
	e.Uint64(x.Seq)
	e.FieldName("URI")
	e.String(x.URI)
	return e.Err()
}

// UnmarshalWire mirrors parcgen output.
func (x *callMsg) UnmarshalWire(d *Decoder) error {
	n := d.BeginStruct()
	for i := 0; i < n && d.Err() == nil; i++ {
		switch string(d.FieldNameRaw()) {
		case "Args":
			x.Args = d.AnySlice()
		case "Deadline":
			x.Deadline = d.Int64()
		case "Method":
			x.Method = d.String()
		case "Seq":
			x.Seq = d.Uint64()
		case "URI":
			x.URI = d.String()
		default:
			d.Skip()
		}
	}
	return d.Err()
}

func init() {
	RegisterGeneratedCodec[callMsg]("wire.callMsg")
}

// TestAllocBudgetCodec holds the generated codec to its allocation budget on
// a small call envelope (a 64-byte numeric payload and two scalar
// arguments): encoding through a pooled Encoder allocates nothing, and
// decoding allocates 7 times once the server has handed the args backing
// array back, which is the steady state of the call path.
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
	}); n != 0 {
		t.Errorf("generated encode: %.0f allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(500, func() {
		v, err := BinFmt{}.Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		RecycleAnySlice(v.(*callMsg).Args)
	}); n > 7 {
		t.Errorf("generated decode: %.0f allocs, budget 7", n)
	} else {
		t.Logf("generated decode: %.0f allocs", n)
	}
}
