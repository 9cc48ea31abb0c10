package bench

import (
	"path/filepath"
	"strings"
	"testing"
)

func sampleBaseline() Report {
	return Report{
		Meta: CurrentMeta(),
		Skeletons: []SkeletonRow{
			{Scenario: "scatter-handrolled", CallsPerSec: 50000},
			{Scenario: "scatter-skeleton", CallsPerSec: 40000},
		},
		Codec: []CodecPathRow{
			{Path: "generated", Op: "encode", NsPerOp: 200, AllocsPerOp: 0},
			{Path: "reflective", Op: "encode", NsPerOp: 500, AllocsPerOp: 5},
		},
	}
}

func TestCompareReportsPasses(t *testing.T) {
	base := sampleBaseline()
	cur := sampleBaseline()
	// Within tolerance: a 10% skeleton dip and a 10% codec slowdown.
	cur.Skeletons[1].CallsPerSec = 36000
	cur.Codec[0].NsPerOp = 220
	if problems := CompareReports(base, cur, 0.15); len(problems) != 0 {
		t.Errorf("within-tolerance drift reported as regression: %v", problems)
	}
	// Improvements are never regressions.
	cur.Skeletons[0].CallsPerSec = 80000
	cur.Codec[1].NsPerOp = 100
	if problems := CompareReports(base, cur, 0.15); len(problems) != 0 {
		t.Errorf("improvement reported as regression: %v", problems)
	}
}

func TestCompareReportsCatchesRegressions(t *testing.T) {
	base := sampleBaseline()
	cur := sampleBaseline()
	cur.Skeletons[1].CallsPerSec = 30000 // -25% calls/s
	cur.Codec[0].NsPerOp = 300           // +50% ns/op
	problems := CompareReports(base, cur, 0.15)
	if len(problems) != 2 {
		t.Fatalf("want 2 regressions, got %d: %v", len(problems), problems)
	}
	joined := strings.Join(problems, "\n")
	for _, want := range []string{"scatter-skeleton", "generated/encode"} {
		if !strings.Contains(joined, want) {
			t.Errorf("problems missing %q:\n%s", want, joined)
		}
	}
}

func TestCompareReportsCatchesMissingRows(t *testing.T) {
	base := sampleBaseline()
	cur := sampleBaseline()
	cur.Skeletons = cur.Skeletons[:1]
	cur.Codec = nil
	problems := CompareReports(base, cur, 0.15)
	if len(problems) != 3 {
		t.Fatalf("want 3 missing-row problems, got %d: %v", len(problems), problems)
	}
	for _, p := range problems {
		if !strings.Contains(p, "missing from current report") {
			t.Errorf("unexpected problem text: %s", p)
		}
	}
}

func TestRelativeMetrics(t *testing.T) {
	m := RelativeMetrics(sampleBaseline())
	if got := m["skeletons scatter vs handrolled"]; got != 0.8 {
		t.Errorf("skeleton ratio = %v, want 0.8 (metrics: %v)", got, m)
	}
	if got := m["codec encode speedup"]; got != 2.5 {
		t.Errorf("encode speedup = %v, want 2.5", got)
	}
}

func TestMetaMismatch(t *testing.T) {
	a := &ReportMeta{GOMAXPROCS: 4, NumCPU: 4}
	if msg := MetaMismatch(a, &ReportMeta{GOMAXPROCS: 4, NumCPU: 4}); msg != "" {
		t.Errorf("equal metas mismatch: %q", msg)
	}
	if msg := MetaMismatch(a, &ReportMeta{GOMAXPROCS: 1, NumCPU: 4}); !strings.Contains(msg, "GOMAXPROCS") {
		t.Errorf("GOMAXPROCS mismatch not reported: %q", msg)
	}
	if msg := MetaMismatch(a, &ReportMeta{GOMAXPROCS: 4, NumCPU: 8}); !strings.Contains(msg, "NumCPU") {
		t.Errorf("NumCPU mismatch not reported: %q", msg)
	}
	if msg := MetaMismatch(nil, a); msg != "" {
		t.Errorf("legacy report without meta must not be refused: %q", msg)
	}
}

// TestCompareReportsAllocGate: an allocs/op rise fails both gates with no
// tolerance, and equal-or-fewer allocs pass.
func TestCompareReportsAllocGate(t *testing.T) {
	base := sampleBaseline()
	cur := sampleBaseline()
	cur.Codec[0].AllocsPerOp = 2 // generated encode: 0 -> 2
	for name, compare := range map[string]func(Report, Report, float64) []string{
		"absolute": CompareReports,
		"relative": CompareReportsRelative,
	} {
		problems := compare(base, cur, 0.15)
		if len(problems) != 1 || !strings.Contains(problems[0], "allocs/op rose 0 -> 2") {
			t.Errorf("%s: alloc regression not caught: %v", name, problems)
		}
	}
	improved := sampleBaseline()
	improved.Codec[1].AllocsPerOp = 1 // reflective encode improved
	if problems := CompareReports(base, improved, 0.15); len(problems) != 0 {
		t.Errorf("alloc improvement reported as regression: %v", problems)
	}
}

func TestCompareReportsRelative(t *testing.T) {
	base := sampleBaseline()

	// Uniformly slower hardware: both skeleton scenarios and both codec
	// paths 2x slower — ratios unchanged, gate passes.
	slow := sampleBaseline()
	for i := range slow.Skeletons {
		slow.Skeletons[i].CallsPerSec /= 2
	}
	for i := range slow.Codec {
		slow.Codec[i].NsPerOp *= 2
	}
	if problems := CompareReportsRelative(base, slow, 0.15); len(problems) != 0 {
		t.Errorf("uniform slowdown failed the relative gate: %v", problems)
	}

	// Losing the generated codec's edge fails even on fast hardware.
	lostEdge := sampleBaseline()
	for i := range lostEdge.Codec {
		lostEdge.Codec[i].NsPerOp /= 2 // everything faster...
		if lostEdge.Codec[i].Path == "generated" {
			lostEdge.Codec[i].NsPerOp *= 1.8 // ...but generated lost most of its lead
		}
	}
	problems := CompareReportsRelative(base, lostEdge, 0.15)
	if len(problems) != 1 || !strings.Contains(problems[0], "codec encode speedup") {
		t.Errorf("lost codec edge not caught: %v", problems)
	}

	// Missing section fails.
	missing := sampleBaseline()
	missing.Codec = nil
	problems = CompareReportsRelative(base, missing, 0.15)
	if len(problems) != 1 || !strings.Contains(problems[0], "missing") {
		t.Errorf("missing ratios not caught: %v", problems)
	}
}

func TestReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	want := sampleBaseline()
	if err := WriteReport(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Skeletons) != 2 || len(got.Codec) != 2 {
		t.Fatalf("round-trip lost rows: %+v", got)
	}
	if got.Skeletons[0].Scenario != "scatter-handrolled" || got.Codec[0].Path != "generated" {
		t.Errorf("round-trip mangled rows: %+v", got)
	}
}

// TestRunCodecIdentity runs the real codec experiment's verification arm
// (bytes identical, values identical) without the timed benchmarks.
func TestRunCodecIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs benchmarks")
	}
	rows, err := RunCodec()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(rows))
	}
	var genEnc CodecPathRow
	for _, r := range rows {
		if r.Path == "generated" && r.Op == "encode" {
			genEnc = r
		}
	}
	if genEnc.AllocsPerOp > 2 {
		t.Errorf("generated encode allocates %d/op, want <= 2 (steady-state call path)", genEnc.AllocsPerOp)
	}
}
