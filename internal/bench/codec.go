package bench

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/wire"
)

// CodecPathRow is one measurement of the codec experiment: one serialisation
// path (generated or reflective) in one direction (encode or decode).
type CodecPathRow struct {
	Path        string  `json:"path"` // "generated" | "reflective"
	Op          string  `json:"op"`   // "encode" | "decode"
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	WireBytes   int     `json:"wire_bytes"`
}

// codecSample builds the envelope the experiment serialises: a realistic
// small RPC call (method name, a 64-byte numeric payload, a couple of
// scalar arguments).
func codecSample() *CodecCall {
	return &CodecCall{
		URI:    "DivideServer/7",
		Method: "Echo",
		Seq:    99991,
		Args:   []any{payloadFor(64), 42, "caller-7"},
	}
}

// RunCodec measures the generated codec against the reflective binfmt
// encoder on the request-envelope hot path. Before timing anything it
// verifies the two paths are interchangeable: identical wire bytes from
// both encoders, and identical decoded values from both decoders — the
// invariant that lets generated and reflective peers interoperate.
//
// Rows come back in a fixed order: encode reflective, encode generated,
// decode reflective, decode generated. Both encode paths run over the same
// pooled Encoder, so the difference measured is the codec, not the buffer
// management.
func RunCodec() ([]CodecPathRow, error) {
	req := codecSample()
	gen := wire.BinFmt{}
	refl := wire.BinFmt{DisableGenerated: true}

	genBytes, err := gen.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("bench: codec: generated marshal: %w", err)
	}
	reflBytes, err := refl.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("bench: codec: reflective marshal: %w", err)
	}
	if !bytes.Equal(genBytes, reflBytes) {
		return nil, fmt.Errorf("bench: codec: wire bytes differ between generated (%d B) and reflective (%d B) encoders",
			len(genBytes), len(reflBytes))
	}
	vg, err := gen.Unmarshal(genBytes)
	if err != nil {
		return nil, fmt.Errorf("bench: codec: generated unmarshal: %w", err)
	}
	vr, err := refl.Unmarshal(genBytes)
	if err != nil {
		return nil, fmt.Errorf("bench: codec: reflective unmarshal: %w", err)
	}
	if !reflect.DeepEqual(vg, vr) {
		return nil, fmt.Errorf("bench: codec: decoded values differ: generated %#v vs reflective %#v", vg, vr)
	}

	encodeBench := func(generated bool) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := wire.NewEncoder()
				e.SetGenerated(generated)
				if err := e.Encode(req); err != nil {
					b.Fatal(err)
				}
				e.Release()
			}
		})
	}
	decodeBench := func(codec wire.Codec) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v, err := codec.Unmarshal(genBytes)
				if err != nil {
					b.Fatal(err)
				}
				// Steady state of the RPC hot path: once a call is
				// dispatched the server returns its args backing to the
				// wire free list, so the next decode reuses it instead of
				// allocating.
				if c, ok := v.(*CodecCall); ok {
					wire.RecycleAnySlice(c.Args)
				}
			}
		})
	}

	row := func(path, op string, r testing.BenchmarkResult) CodecPathRow {
		return CodecPathRow{
			Path:        path,
			Op:          op,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			WireBytes:   len(genBytes),
		}
	}
	return []CodecPathRow{
		row("reflective", "encode", encodeBench(false)),
		row("generated", "encode", encodeBench(true)),
		row("reflective", "decode", decodeBench(refl)),
		row("generated", "decode", decodeBench(gen)),
	}, nil
}

// PrintCodec emits the codec-experiment table with the generated-over-
// reflective speedup per direction.
func PrintCodec(w io.Writer, rows []CodecPathRow) {
	fmt.Fprintln(w, "Codec hot path — generated (parcgen) vs reflective binfmt on the request envelope")
	fmt.Fprintf(w, "%-12s %-8s %12s %12s %12s %10s\n", "path", "op", "ns/op", "allocs/op", "B/op", "wire B")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-8s %12.1f %12d %12d %10d\n",
			r.Path, r.Op, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp, r.WireBytes)
	}
	for _, op := range []string{"encode", "decode"} {
		var refl, gen float64
		for _, r := range rows {
			if r.Op != op {
				continue
			}
			if r.Path == "generated" {
				gen = r.NsPerOp
			} else {
				refl = r.NsPerOp
			}
		}
		if gen > 0 && refl > 0 {
			fmt.Fprintf(w, "%s speedup: %.2fx\n", op, refl/gen)
		}
	}
}
