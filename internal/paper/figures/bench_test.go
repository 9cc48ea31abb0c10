package figures

import (
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/paper/cost"
	"repro/internal/paper/profile"
	"repro/internal/sieve"
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

// TestMeasuredOverheadSmall verifies E6, "the performance penalty introduced
// by the ParC# platform is not noticeable", by what the two paths put on the
// shaped network, which is what a round trip on it is made of: a call
// through the proxy is the same two messages as a raw remoting call, and
// the Invoke1 envelope adds little to a 4 KiB payload. The two timed round
// trips and their ratio are E6's printed figure (parcbench -exp overhead);
// they are not asserted, a ratio of two wall-clock minima is the host's.
func TestMeasuredOverheadSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("shaped run in -short mode")
	}
	res, err := RunOverhead(1024, 20, netsim.Ethernet100())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("timed: raw %v, proxy %v, overhead %.1f%%", res.RawRTT, res.ProxyRTT, res.OverheadPct)
	if res.RawMsgs != 2 || res.ProxyMsgs != 2 {
		t.Errorf("messages per call: raw %.2f, through the proxy %.2f, want 2 and 2", res.RawMsgs, res.ProxyMsgs)
	}
	if extra := res.ProxyBytes/res.RawBytes - 1; extra < 0 || extra > 0.05 {
		t.Errorf("bytes per call: raw %.0f, through the proxy %.0f (%+.1f%%), want 0 to 5%% more",
			res.RawBytes, res.ProxyBytes, 100*extra)
	}
}

// TestAggregationSweepShape: adaptive batching sends the pipeline's posts
// in fewer frames than posts, one post a frame sends none in a batch, and
// both find π(150) = 35.
func TestAggregationSweepShape(t *testing.T) {
	rows, err := RunAggregationSweep(150, netsim.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.PrimesFound != 35 { // π(150)
			t.Errorf("%s found %d primes, want 35", r.Mode, r.PrimesFound)
		}
		t.Logf("%s: %.3f s, %d posts in %d frames, %.1f posts a batch", r.Mode, r.Seconds, r.Posts, r.Frames, r.PerBatch)
	}
	if adaptive := rows[0]; adaptive.Frames >= adaptive.Posts {
		t.Errorf("adaptive batching sent %d posts in %d frames, want fewer frames than posts", adaptive.Posts, adaptive.Frames)
	}
	if each := rows[1]; each.PerBatch != 0 || each.Frames != each.Posts {
		t.Errorf("one post a frame sent batches of %.1f, %d posts in %d frames", each.PerBatch, each.Posts, each.Frames)
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
	// Packing wins by removing the communication: counted, not timed (the
	// seconds are A2's printed figure).
	t.Logf("timed: always %.3fs, never %.3fs", always.Seconds, never.Seconds)
	// An object's first post leaves alone and its other 19 share at least
	// one more frame, so each of the 4 objects round-robin placement makes
	// remote costs at least two calls and two replies.
	if never.Msgs < 4*4 || always.Msgs != 0 {
		t.Errorf("packing fine grains should remove the communication: always sent %d messages, want 0; never %d, want at least two calls and two replies for each remote object",
			always.Msgs, never.Msgs)
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
// RMI, and every run renders the identical image. The two orderings are
// asserted on the modelled compute time, which follows from the profile's
// factors, and each timed run is checked against it from below: a worker
// holds its processor for the modelled time of every block, so no run can
// finish sooner, on any host. The timed seconds themselves are the printed
// figure (parcbench -exp fig9).
func TestFig9SmallShape(t *testing.T) {
	if testing.Short() {
		t.Skip("farm run in -short mode")
	}
	cfg := DefaultFig9Config(false)
	rows, err := RunFig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var checksum int64
	for i, r := range rows {
		t.Logf("p=%d timed: ParC# %.1fs, Java RMI %.1fs", r.Processors, r.Seconds["ParC#"], r.Seconds["Java RMI"])
		if parc, java := r.Modelled["ParC#"], r.Modelled["Java RMI"]; parc <= java {
			t.Errorf("p=%d: ParC# (%.1fs modelled) should sit above Java RMI (%.1fs)", r.Processors, parc, java)
		}
		for _, sys := range []string{"ParC#", "Java RMI"} {
			if r.Seconds[sys] < r.Modelled[sys] {
				t.Errorf("p=%d: %s ran in %.2fs, under its modelled compute of %.2fs: the workers did not hold their processors",
					r.Processors, sys, r.Seconds[sys], r.Modelled[sys])
			}
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
		if !(last.Modelled[sys] < first.Modelled[sys]*0.75) {
			t.Errorf("%s does not scale: p=%d %.1fs vs p=%d %.1fs modelled",
				sys, first.Processors, first.Modelled[sys], last.Processors, last.Modelled[sys])
		}
	}
}

// TestSeqRatios checks the paper's sequential observations land: each is
// the ratio of two of the profile's factors, for the sieve as for the ray
// tracer. The sieve is also run under its factors, for the count it must
// still return and for the timed ratio, which is printed and not asserted.
func TestSeqRatios(t *testing.T) {
	const n = 200_000
	rows := RunSeqRatios(n)
	byKey := map[string]SeqRatioRow{}
	for _, r := range rows {
		byKey[r.Workload+"/"+r.VM] = r
	}
	if got := byKey["raytracer/Mono 1.1.7"].Ratio; got < 1.35 || got > 1.45 {
		t.Errorf("raytracer Mono ratio = %.2f, want ≈1.4", got)
	}
	if got := byKey["raytracer/MS CLR 1.1"].Ratio; got < 1.05 || got > 1.15 {
		t.Errorf("raytracer MS CLR ratio = %.2f, want ≈1.1", got)
	}
	mono := byKey["sieve/Mono 1.1.7"]
	if mono.Ratio < 0.95 || mono.Ratio > 1.05 {
		t.Errorf("sieve Mono ratio = %.2f, want ≈1.0", mono.Ratio)
	}
	if mono.Measured <= 0 {
		t.Errorf("sieve Mono was not timed: measured ratio %.2f", mono.Measured)
	}
	t.Logf("sieve Mono timed on this host: %.2fx", mono.Measured)
	const primesTo200k = 17984
	for _, f := range []float64{1, profile.Mono().SieveFactor, 1.4} {
		if got := sieve.SequentialCount(n, f); got != primesTo200k {
			t.Errorf("sieve under factor %.1f counts %d primes to %d, want %d", f, got, n, primesTo200k)
		}
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
	PrintAggregation(&sb, []AggRow{{Mode: "m"}})
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
