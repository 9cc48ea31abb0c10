// Package repro's root benchmarks regenerate every table and figure of the
// paper through testing.B, one benchmark per artefact:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports paper-facing metrics via b.ReportMetric (modelled
// microseconds, MB/s, modelled seconds) so `go test -bench` output reads
// like the evaluation section. cmd/parcbench prints the same experiments as
// full tables.
package repro

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/netsim"
	"repro/internal/paper/profile"
	"repro/internal/raytracer"
	"repro/internal/sieve"
)

// metric builds a testing.B metric unit (no whitespace allowed).
func metric(parts ...string) string {
	joined := strings.Join(parts, "_")
	joined = strings.NewReplacer(" ", "", "(", "", ")", "", "#", "s").Replace(joined)
	return joined
}

// BenchmarkFig8a_Bandwidth measures the three-stack ping-pong of Fig. 8a at
// a representative 64 KB message on the shaped testbed network.
func BenchmarkFig8a_Bandwidth(b *testing.B) {
	stacks, err := bench.Fig8aStacks()
	if err != nil {
		b.Fatal(err)
	}
	defer bench.CloseAll(stacks)
	rows, err := bench.Sweep(stacks, []int{65536}, false)
	if err != nil {
		b.Fatal(err)
	}
	for name, mbps := range rows[0].MBps {
		b.ReportMetric(mbps, metric(name, "MB/s"))
	}
	payload := make([]int32, 65536/4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := stacks[i%len(stacks)].RoundTrip(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8b_MonoChannels measures the Mono channel comparison of
// Fig. 8b at 64 KB.
func BenchmarkFig8b_MonoChannels(b *testing.B) {
	stacks, err := bench.Fig8bStacks()
	if err != nil {
		b.Fatal(err)
	}
	defer bench.CloseAll(stacks)
	rows, err := bench.Sweep(stacks, []int{65536}, false)
	if err != nil {
		b.Fatal(err)
	}
	for name, mbps := range rows[0].MBps {
		b.ReportMetric(mbps, metric(name, "MB/s"))
	}
	payload := make([]int32, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := stacks[0].RoundTrip(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLatency_E3 measures the small-message round-trip latency table
// (paper: MPI 100 µs, Mono 273 µs, Java RMI 520 µs).
func BenchmarkLatency_E3(b *testing.B) {
	stacks, err := bench.Fig8aStacks()
	if err != nil {
		b.Fatal(err)
	}
	defer bench.CloseAll(stacks)
	res, err := bench.MeasureLatency(stacks, 20)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range res {
		b.ReportMetric(float64(r.RTT.Microseconds()), metric(r.Name, "us"))
	}
	payload := []int32{1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := stacks[i%len(stacks)].RoundTrip(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9_RayTracerFarm runs the farmed ray tracer at 4 processors
// for both systems and reports modelled testbed seconds.
func BenchmarkFig9_RayTracerFarm(b *testing.B) {
	cfg := bench.DefaultFig9Config(false)
	cfg.Processors = []int{4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunFig9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Seconds["ParC#"], "ParCs_s")
		b.ReportMetric(rows[0].Seconds["Java RMI"], "JavaRMI_s")
	}
}

// BenchmarkSeqRatio_E5 reports the sequential VM ratios of the paper's
// prose (ray tracer 1.4/1.1, sieve ≈ 1.0).
func BenchmarkSeqRatio_E5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.RunSeqRatios(500_000)
		for _, r := range rows {
			b.ReportMetric(r.Ratio, metric(r.Workload, r.VM))
		}
	}
}

// BenchmarkParcOverhead_E6 measures the ParC# platform penalty over raw
// remoting ("not noticeable" per the paper).
func BenchmarkParcOverhead_E6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunOverhead(1024, 10, profile.Network())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.OverheadPct, "overhead_%")
	}
}

// BenchmarkAblationAggregation_A1 sweeps the SCOOPP method-call aggregation
// factor on the pipelined sieve.
func BenchmarkAblationAggregation_A1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunAggregationSweep(150, []int{1, 16}, netsim.Ethernet100())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 2 && rows[1].Seconds > 0 {
			b.ReportMetric(rows[0].Seconds/rows[1].Seconds, "speedup_maxcalls16")
		}
	}
}

// BenchmarkAblationAgglomeration_A2 compares never/always/adaptive
// agglomeration on a fine-grain fan-out.
func BenchmarkAblationAgglomeration_A2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunAgglomerationAblation(6, 15, netsim.Ethernet100())
		if err != nil {
			b.Fatal(err)
		}
		var never, always float64
		for _, r := range rows {
			switch r.Policy {
			case "never (all parallel)":
				never = r.Seconds
			case "always (all packed)":
				always = r.Seconds
			}
		}
		if always > 0 {
			b.ReportMetric(never/always, "agglomeration_speedup")
		}
	}
}

// BenchmarkAblationCodecs_A3 measures the three wire codecs on the
// reference RPC payload.
func BenchmarkAblationCodecs_A3(b *testing.B) {
	var rows []bench.CodecRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = bench.RunCodecAblation(1024)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.Bytes), metric(r.Codec, "bytes"))
	}
}

// BenchmarkAblationPool_A4 sweeps the per-node thread-pool cap on the ParC#
// farm (the paper's starvation mechanism).
func BenchmarkAblationPool_A4(b *testing.B) {
	cfg := bench.DefaultFig9Config(false)
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunPoolAblation(cfg, 4, []int{1, 8})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 2 && rows[1].Seconds > 0 {
			b.ReportMetric(rows[0].Seconds/rows[1].Seconds, "pool1_vs_pool8")
		}
	}
}

// BenchmarkRayTracerKernel measures the raw render kernel (per row).
func BenchmarkRayTracerKernel(b *testing.B) {
	scene := raytracer.JGFScene(8, 250, 250)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scene.RenderRows(i%scene.Height, i%scene.Height+1, 1)
	}
}

// BenchmarkSieveKernel measures the sequential sieve kernel used by E5.
func BenchmarkSieveKernel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := sieve.SequentialCount(100_000, 1); got != 9592 {
			b.Fatalf("π(100000) = %d", got)
		}
	}
}
