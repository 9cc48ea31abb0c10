package figures

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/netsim"
	"repro/internal/racetest"
)

// ---------------------------------------------------------------- model

// TestModelLatencyAnchors checks that the calibrated analytic model lands
// near the paper's reported round-trip latencies (MPI 100 µs, Mono 273 µs,
// Java RMI 520 µs) for small messages.
func TestModelLatencyAnchors(t *testing.T) {
	cases := []struct {
		model  StackModel
		target time.Duration
	}{
		{ModelMPI(), 100 * time.Microsecond},
		{ModelMono117(), 273 * time.Microsecond},
		{ModelRMI(), 520 * time.Microsecond},
	}
	for _, c := range cases {
		rtt := c.model.RTT(4)
		lo := time.Duration(float64(c.target) * 0.7)
		hi := time.Duration(float64(c.target) * 1.3)
		if rtt < lo || rtt > hi {
			t.Errorf("%s modelled RTT = %v, want within 30%% of %v", c.model.Name, rtt, c.target)
		}
	}
}

// TestModelLatencyOrdering asserts MPI < Mono < RMI for small messages.
func TestModelLatencyOrdering(t *testing.T) {
	mpi := ModelMPI().RTT(4)
	mono := ModelMono117().RTT(4)
	rmi := ModelRMI().RTT(4)
	if !(mpi < mono && mono < rmi) {
		t.Errorf("latency ordering broken: MPI %v, Mono %v, RMI %v", mpi, mono, rmi)
	}
}

// TestModelBandwidthOrderingLarge asserts the Fig. 8a large-message order:
// MPI > Java RMI > Mono, with MPI near link rate.
func TestModelBandwidthOrderingLarge(t *testing.T) {
	const size = 1 << 20
	mpi := ModelMPI().BandwidthMBps(size)
	rmi := ModelRMI().BandwidthMBps(size)
	mono := ModelMono117().BandwidthMBps(size)
	if !(mpi > rmi && rmi > mono) {
		t.Errorf("bandwidth ordering broken: MPI %.2f, RMI %.2f, Mono %.2f", mpi, rmi, mono)
	}
	if mpi < 9 || mpi > 12.5 {
		t.Errorf("MPI bandwidth %.2f MB/s not near the 12.5 MB/s link rate", mpi)
	}
	// Rough factors from the figure: Mono roughly half of MPI at 1 MB.
	if ratio := mpi / mono; ratio < 1.3 || ratio > 4 {
		t.Errorf("MPI/Mono ratio %.2f outside the paper's rough factor", ratio)
	}
}

// TestModelRMIMonoCrossover: at small sizes Mono beats RMI (latency), at
// large sizes RMI overtakes Mono (tuned bulk path) — the crossover visible
// in Fig. 8a.
func TestModelRMIMonoCrossover(t *testing.T) {
	small := 64
	large := 1 << 20
	if !(ModelMono117().RTT(small) < ModelRMI().RTT(small)) {
		t.Error("Mono should win at small sizes")
	}
	if !(ModelRMI().BandwidthMBps(large) > ModelMono117().BandwidthMBps(large)) {
		t.Error("RMI should win at large sizes")
	}
}

// TestModelFig8bCollapse asserts the Fig. 8b shape: Mono 1.0.5 and the HTTP
// channel sit far below Mono 1.1.7 across the mid-range.
func TestModelFig8bCollapse(t *testing.T) {
	for _, size := range []int{4096, 65536, 1 << 20} {
		good := ModelMono117().BandwidthMBps(size)
		legacy := ModelMono105().BandwidthMBps(size)
		http := ModelMonoHTTP().BandwidthMBps(size)
		if !(good > 3*legacy) {
			t.Errorf("size %d: 1.1.7 (%.3f) not ≫ 1.0.5 (%.3f)", size, good, legacy)
		}
		if !(good > 3*http) {
			t.Errorf("size %d: Tcp (%.3f) not ≫ Http (%.3f)", size, good, http)
		}
	}
}

// TestModelBandwidthMonotone: every stack's bandwidth grows with message
// size (the rising curves of Fig. 8).
func TestModelBandwidthMonotone(t *testing.T) {
	models := []StackModel{ModelMPI(), ModelRMI(), ModelMono117(), ModelMonoHTTP()}
	sizes := MessageSizes(true)
	for _, m := range models {
		prev := 0.0
		for _, s := range sizes {
			bw := m.BandwidthMBps(s)
			if bw < prev*0.95 { // allow tiny envelope wiggle
				t.Errorf("%s: bandwidth dropped at %d bytes (%.4f < %.4f)", m.Name, s, bw, prev)
			}
			if bw > prev {
				prev = bw
			}
		}
	}
}

// ---------------------------------------------------------------- measured

// TestMeasuredSweepUnshaped runs the real stacks end to end without network
// shaping (fast) and checks they all complete and report plausible rows.
func TestMeasuredSweepUnshaped(t *testing.T) {
	stacks := []Stack{}
	mpiS, err := NewMPIStack(netsim.Params{}, zeroCost())
	if err != nil {
		t.Fatal(err)
	}
	stacks = append(stacks, mpiS)
	rmiS, err := NewRMIStack(netsim.Params{}, zeroCost())
	if err != nil {
		t.Fatal(err)
	}
	stacks = append(stacks, rmiS)
	monoS, err := NewRemotingStack("Mono", 0, netsim.Params{}, zeroCost())
	if err != nil {
		t.Fatal(err)
	}
	stacks = append(stacks, monoS)
	defer CloseAll(stacks)

	rows, err := Sweep(stacks, MessageSizes(false), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(MessageSizes(false)) {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		for name, bw := range r.MBps {
			if bw <= 0 {
				t.Errorf("size %d: %s bandwidth %.3f", r.SizeBytes, name, bw)
			}
		}
	}
}

// TestMeasuredLatencyShapedOrdering runs the calibrated stacks on the
// shaped network and asserts the paper's latency ordering (with generous
// slack for scheduler noise).
func TestMeasuredLatencyShapedOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("shaped run in -short mode")
	}
	stacks, err := Fig8aStacks()
	if err != nil {
		t.Fatal(err)
	}
	defer CloseAll(stacks)
	res, err := MeasureLatency(stacks, 20)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]time.Duration{}
	for _, r := range res {
		byName[r.Name] = r.RTT
	}
	if !(byName["MPI"] < byName["Mono"] && byName["Mono"] < byName["Java RMI"]) {
		t.Errorf("measured latency ordering broken: %v", byName)
	}
}

// TestMeasuredOverheadSmall verifies E6: the ParC# proxy path costs only a
// small multiple of raw remoting on an ideal network, and "not noticeable"
// magnitudes (< ~25%) on the shaped one.
func TestMeasuredOverheadSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("shaped run in -short mode")
	}
	res, err := RunOverhead(1024, 20, netsim.Ethernet100())
	if err != nil {
		t.Fatal(err)
	}
	if res.OverheadPct > 40 {
		t.Errorf("ParC# overhead %.1f%% is noticeable (raw %v, proxy %v)",
			res.OverheadPct, res.RawRTT, res.ProxyRTT)
	}
}

// TestAggregationSweepShape: more aggregation, fewer batches; correctness
// invariant: prime counts identical across settings.
func TestAggregationSweepShape(t *testing.T) {
	rows, err := RunAggregationSweep(150, []int{1, 8, 32}, netsim.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.PrimesFound != 35 { // π(150)
			t.Errorf("maxCalls=%d found %d primes, want 35", r.MaxCalls, r.PrimesFound)
		}
	}
	if rows[0].Batches != 0 {
		t.Errorf("maxCalls=1 should disable batching, sent %d", rows[0].Batches)
	}
	if rows[1].Batches == 0 {
		t.Error("maxCalls=8 sent no batches")
	}
}

// TestAgglomerationAblationShape: with near-zero grains on a costly
// network, packing all objects must beat full parallelism.
func TestAgglomerationAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shaped run in -short mode")
	}
	rows, err := RunAgglomerationAblation(8, 20, netsim.Ethernet100())
	if err != nil {
		t.Fatal(err)
	}
	byPolicy := map[string]AgglomRow{}
	for _, r := range rows {
		byPolicy[r.Policy] = r
	}
	never := byPolicy["never (all parallel)"]
	always := byPolicy["always (all packed)"]
	if always.Agglomerated != 8 {
		t.Errorf("always policy agglomerated %d of 8", always.Agglomerated)
	}
	if never.Agglomerated != 0 {
		t.Errorf("never policy agglomerated %d", never.Agglomerated)
	}
	if !(always.Seconds < never.Seconds) {
		t.Errorf("packing fine grains should win: always %.3fs vs never %.3fs",
			always.Seconds, never.Seconds)
	}
}

// TestCodecAblationShape mirrors wire's size ordering through the harness.
func TestCodecAblationShape(t *testing.T) {
	rows, err := RunCodecAblation(1024)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int{}
	for _, r := range rows {
		sizes[r.Codec] = r.Bytes
	}
	if !(sizes["binfmt"] < sizes["javaser"] && sizes["javaser"] < sizes["soapfmt"]) {
		t.Errorf("codec size ordering broken: %v", sizes)
	}
}

// TestFig9SmallShape runs a miniature Fig. 9 and asserts the headline
// claims: both systems speed up with processors, ParC# stays above Java
// RMI, and every run renders the identical image.
func TestFig9SmallShape(t *testing.T) {
	if testing.Short() {
		t.Skip("farm run in -short mode")
	}
	if racetest.Enabled {
		t.Skip("race instrumentation skews the calibrated timing model")
	}
	cfg := DefaultFig9Config(false)
	rows, err := RunFig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var checksum int64
	for i, r := range rows {
		parc := r.Seconds["ParC#"]
		java := r.Seconds["Java RMI"]
		if parc <= java {
			t.Errorf("p=%d: ParC# (%.1fs) should sit above Java RMI (%.1fs)", r.Processors, parc, java)
		}
		if r.Checksum["ParC#"] != r.Checksum["Java RMI"] {
			t.Errorf("p=%d: systems rendered different images", r.Processors)
		}
		if i == 0 {
			checksum = r.Checksum["ParC#"]
		} else if r.Checksum["ParC#"] != checksum {
			t.Errorf("p=%d: image differs from p=%d run", r.Processors, rows[0].Processors)
		}
	}
	first, last := rows[0], rows[len(rows)-1]
	for _, sys := range []string{"ParC#", "Java RMI"} {
		if !(last.Seconds[sys] < first.Seconds[sys]*0.75) {
			t.Errorf("%s did not scale: p=%d %.1fs vs p=%d %.1fs",
				sys, first.Processors, first.Seconds[sys], last.Processors, last.Seconds[sys])
		}
	}
}

// TestSeqRatios checks the paper's sequential observations land.
func TestSeqRatios(t *testing.T) {
	rows := RunSeqRatios(200_000)
	byKey := map[string]float64{}
	for _, r := range rows {
		byKey[r.Workload+"/"+r.VM] = r.Ratio
	}
	if got := byKey["raytracer/Mono 1.1.7"]; got < 1.35 || got > 1.45 {
		t.Errorf("raytracer Mono ratio = %.2f, want ≈1.4", got)
	}
	if got := byKey["raytracer/MS CLR 1.1"]; got < 1.05 || got > 1.15 {
		t.Errorf("raytracer MS CLR ratio = %.2f, want ≈1.1", got)
	}
	if got := byKey["sieve/Mono 1.1.7"]; got < 0.7 || got > 1.4 {
		t.Errorf("sieve Mono ratio = %.2f, want ≈1.0", got)
	}
}

// TestPrinters smoke-tests every table printer.
func TestPrinters(t *testing.T) {
	var sb strings.Builder
	rows := ModelSweep([]StackModel{ModelMPI(), ModelRMI()}, MessageSizes(false))
	PrintBandwidth(&sb, "title", rows)
	PrintLatency(&sb, "lat", []LatencyResult{{Name: "x", RTT: time.Millisecond}})
	PrintFig9(&sb, []Fig9Row{{Processors: 1, Seconds: map[string]float64{"ParC#": 1, "Java RMI": 2}}})
	PrintSeqRatios(&sb, []SeqRatioRow{{Workload: "w", VM: "v", Ratio: 1}})
	PrintAggregation(&sb, []AggRow{{MaxCalls: 1}})
	PrintAgglomeration(&sb, []AgglomRow{{Policy: "p"}})
	PrintCodecs(&sb, []CodecRow{{Codec: "c"}})
	PrintPool(&sb, []PoolRow{{PoolSize: 1}})
	PrintOverhead(&sb, OverheadResult{})
	out := sb.String()
	for _, want := range []string{"title", "lat", "Fig. 9", "E5", "A1", "A2", "A3", "A4", "E6"} {
		if !strings.Contains(out, want) {
			t.Errorf("printer output missing %q", want)
		}
	}
}

func zeroCost() cost.Model { return cost.Model{} }
