package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// Report is the machine-readable result set parcbench -json emits and the
// CI regression gate diffs. Sections are present only when their
// experiments ran.
type Report struct {
	Meta      *ReportMeta    `json:"meta,omitempty"`
	Codec     []CodecPathRow `json:"codec,omitempty"`
	Rebalance []RebalanceRow `json:"rebalance,omitempty"`
	Failover  []FailoverRow  `json:"failover,omitempty"`
	OpenLoop  []OpenLoopRow  `json:"openloop,omitempty"`
	Chaos     []ChaosRow     `json:"chaos,omitempty"`
	Skeletons []SkeletonRow  `json:"skeletons,omitempty"`
}

// ReportMeta records the environment a report was measured in, so a
// baseline number can be interpreted (and hot-path regressions diagnosed
// from the bench artifact alone). It carries no gated metrics.
type ReportMeta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// CurrentMeta snapshots the running environment.
func CurrentMeta() *ReportMeta {
	return &ReportMeta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// MetaMismatch reports why two report environments must not be compared
// with absolute numbers: a different core count (GOMAXPROCS or NumCPU)
// moves every throughput metric for hardware reasons, so diffing absolute
// calls/s across it gates the machine, not the code. An empty string
// means the environments are comparable (or too old to carry meta, which
// gets the benefit of the doubt). Relative-mode comparisons are exempt:
// ratios cancel the hardware term by construction.
func MetaMismatch(baseline, current *ReportMeta) string {
	if baseline == nil || current == nil {
		return ""
	}
	if baseline.GOMAXPROCS != current.GOMAXPROCS {
		return fmt.Sprintf("GOMAXPROCS differs: baseline %d, current %d", baseline.GOMAXPROCS, current.GOMAXPROCS)
	}
	if baseline.NumCPU != current.NumCPU {
		return fmt.Sprintf("NumCPU differs: baseline %d, current %d", baseline.NumCPU, current.NumCPU)
	}
	return ""
}

// WriteReport marshals a report with stable indentation (committed as
// BENCH_baseline.json, diffed by humans).
func WriteReport(path string, r Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadReport loads a report written by parcbench -json.
func ReadReport(path string) (Report, error) {
	var r Report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("bench: parse report %s: %w", path, err)
	}
	return r, nil
}

// RelativeMetrics derives the machine-independent ratios of a report:
// per-op codec speedup (reflective ns/op over generated ns/op), the
// recovery ratios and the open-loop fractions. Ratios cancel the hardware
// term, so a baseline recorded on one machine gates runs on another — the
// comparison CI uses, where runner hardware differs from wherever
// BENCH_baseline.json was recorded.
func RelativeMetrics(r Report) map[string]float64 {
	out := map[string]float64{}
	byKey := map[string]CodecPathRow{}
	for _, row := range r.Codec {
		byKey[row.Path+"/"+row.Op] = row
	}
	for _, op := range []string{"encode", "decode"} {
		g, okG := byKey["generated/"+op]
		rf, okR := byKey["reflective/"+op]
		if okG && okR && g.NsPerOp > 0 {
			out["codec "+op+" speedup"] = rf.NsPerOp / g.NsPerOp
		}
	}
	if rec, ok := gatedRecovery(r); ok {
		out["rebalance recovery"] = rec
	}
	if rec, ok := gatedFailoverRecovery(r); ok {
		out["failover recovery"] = rec
	}
	if rec, ok := gatedChaosRecovery(r); ok {
		out["chaos recovery"] = rec
	}
	// Open-loop ratios: the accepted/offered fraction at each offered-rate
	// factor (capacity cancels — both sides of the fraction come from the
	// same run), and for overload rows the p99 headroom under the SLO,
	// capped at 2.0 so an unusually quiet baseline run cannot fail a
	// healthy current one.
	for _, row := range r.OpenLoop {
		if row.Offered > 0 {
			out["openloop "+olKey(row)+" accepted ratio"] =
				float64(row.Accepted) / float64(row.Offered)
		}
		if row.Factor > 1 && row.P99Ms > 0 && row.SLOMs > 0 {
			out["openloop "+olKey(row)+" p99 headroom"] = min(row.SLOMs/row.P99Ms, 2.0)
		}
	}
	if ratio, ok := gatedSkeletonRatio(r); ok {
		out["skeletons scatter vs handrolled"] = ratio
	}
	return out
}

// gatedSkeletonRatio is the scatter-skeleton over scatter-handrolled
// calls/s ratio as both gates track it: capped at 1.0, because batching
// per-destination submissions can beat the goroutine-per-call control by a
// margin that varies with scheduler luck, and a run where the skeleton
// merely matches the hand-rolled fan-out must not fail against a lucky
// overshooting baseline. Machine-independent by construction — both sides
// of the division ran on the same hardware over the same objects seconds
// apart. The goroutine-flatness contract of the async scenario is
// hard-asserted inside RunSkeletons itself, not tracked here.
func gatedSkeletonRatio(r Report) (float64, bool) {
	ratio, ok := SkeletonRatio(r.Skeletons)
	return min(ratio, 1.0), ok
}

// gatedRecovery is the rebalance recovery ratio as both gates track it:
// capped at 1.0, because spreading the hot population across hosts can
// overshoot pre-migration throughput and a run that merely fully recovers
// must not fail against a lucky overshooting baseline. The raw ratio
// stays in the report rows. Machine-independent by construction — both
// sides of the division ran on the same hardware seconds apart.
func gatedRecovery(r Report) (float64, bool) {
	rec, ok := RebalanceRecovery(r.Rebalance)
	return min(rec, 1.0), ok
}

// gatedFailoverRecovery is the failover recovery ratio (after-kill over
// pre-kill calls/s), capped at 1.0 for the same reason as gatedRecovery: a
// promoted replica serving callers locally can overshoot the pre-kill
// throughput, and full recovery must not fail against a lucky baseline.
func gatedFailoverRecovery(r Report) (float64, bool) {
	rec, ok := FailoverRecovery(r.Failover)
	return min(rec, 1.0), ok
}

// chaosRecoveryGateCap caps the chaos recovery ratio both gates track.
// Unlike rebalance/failover, the chaos after-window is measured moments
// after a healed fault storm and legitimately varies severalfold run to
// run (whichever backoff sleeps and breaker cooldowns the final heal cut
// across), so tracking the raw ratio against a lucky baseline would flap.
// The cap equals the MinRecovery floor parcbench hard-enforces inside the
// run itself — any run the gate ever sees already cleared it — making the
// relative entry a structural check (chaos rows present and above the
// floor), while the correctness invariants (zero lost acks, zero
// double-executions, bounded recovery) are hard-asserted in RunChaos.
const chaosRecoveryGateCap = 0.25

func gatedChaosRecovery(r Report) (float64, bool) {
	rec, ok := ChaosRecovery(r.Chaos)
	return min(rec, chaosRecoveryGateCap), ok
}

// CompareReportsRelative checks the ratio metrics of current against
// baseline: every baseline ratio must be present and must not drop more
// than tolerance below its baseline value. Higher is always better for
// these ratios (throughput gain, speedup), so improvements pass. This is
// the hardware-robust gate: a uniformly slower runner shifts both sides of
// each ratio and cancels out, while losing the generated codec's edge
// shows up regardless of hardware.
// Codec allocs/op are machine-independent and are gated absolutely here
// too — any rise fails.
func CompareReportsRelative(baseline, current Report, tolerance float64) []string {
	problems := compareCodec(baseline, current, tolerance, false)
	base := RelativeMetrics(baseline)
	cur := RelativeMetrics(current)
	for key, b := range base {
		c, ok := cur[key]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: missing from current report", key))
			continue
		}
		if c < b*(1-tolerance) {
			problems = append(problems, fmt.Sprintf(
				"%s: %.2fx is %.1f%% below baseline %.2fx (tolerance %.0f%%)",
				key, c, 100*(1-c/b), b, 100*tolerance))
		}
	}
	sort.Strings(problems)
	return problems
}

// CompareReports checks current against baseline and returns one problem
// string per regression beyond tolerance (0.15 means a 15% budget):
//
//   - a codec row whose ns/op rose more than tolerance above the baseline
//     row with the same (path, op);
//   - a codec row that allocates more per op than its baseline row —
//     allocation counts are deterministic, so any rise is a pooling
//     regression, with no tolerance (this is also checked by the relative
//     gate: alloc counts are machine-independent);
//   - a baseline row missing from current — a silently dropped experiment
//     must fail the gate, not pass it.
//
// Improvements never count as problems (refresh the committed baseline to
// bank them; see README). An empty slice means the gate passes.
func CompareReports(baseline, current Report, tolerance float64) []string {
	problems := compareCodec(baseline, current, tolerance, true)
	problems = append(problems, compareRebalance(baseline, current, tolerance)...)
	problems = append(problems, compareFailover(baseline, current, tolerance)...)
	problems = append(problems, compareChaos(baseline, current, tolerance)...)
	problems = append(problems, compareOpenLoop(baseline, current, tolerance)...)
	problems = append(problems, compareSkeletons(baseline, current, tolerance)...)
	sort.Strings(problems)
	return problems
}

// compareSkeletons gates the skeleton rows in absolute mode (same-hardware
// comparisons): each scenario's calls/s must not drop more than tolerance
// below its baseline row, and a baseline scenario missing from current
// fails. The relative gate tracks the same rows through the
// "skeletons scatter vs handrolled" entry of RelativeMetrics; the
// goroutine-flatness bound is hard-asserted inside RunSkeletons.
func compareSkeletons(baseline, current Report, tolerance float64) []string {
	var problems []string
	cur := map[string]SkeletonRow{}
	for _, r := range current.Skeletons {
		cur[r.Scenario] = r
	}
	for _, b := range baseline.Skeletons {
		c, ok := cur[b.Scenario]
		if !ok {
			problems = append(problems, fmt.Sprintf("skeletons %q: missing from current report", b.Scenario))
			continue
		}
		if floor := b.CallsPerSec * (1 - tolerance); c.CallsPerSec < floor {
			problems = append(problems, fmt.Sprintf(
				"skeletons %q: %.0f calls/s is %.1f%% below baseline %.0f (tolerance %.0f%%)",
				b.Scenario, c.CallsPerSec, 100*(1-c.CallsPerSec/b.CallsPerSec), b.CallsPerSec, 100*tolerance))
		}
	}
	return problems
}

// compareOpenLoop gates the open-loop rows in absolute mode (same-hardware
// comparisons): accepted throughput must not drop more than tolerance
// below baseline, p99 of accepted calls must not rise more than tolerance
// above it (plus a 2 ms absolute grace — sub-millisecond p99s would
// otherwise gate scheduler noise), and the shed rate must not rise more
// than tolerance points. The relative gate tracks the same rows through
// the accepted-ratio and p99-headroom entries of RelativeMetrics.
func compareOpenLoop(baseline, current Report, tolerance float64) []string {
	var problems []string
	cur := map[string]OpenLoopRow{}
	for _, r := range current.OpenLoop {
		cur[olKey(r)] = r
	}
	shedRate := func(r OpenLoopRow) float64 {
		if r.Offered == 0 {
			return 0
		}
		return float64(r.Shed) / float64(r.Offered)
	}
	for _, b := range baseline.OpenLoop {
		c, ok := cur[olKey(b)]
		if !ok {
			problems = append(problems, fmt.Sprintf("openloop %q: missing from current report", olKey(b)))
			continue
		}
		if floor := b.AcceptedPerSec * (1 - tolerance); c.AcceptedPerSec < floor {
			problems = append(problems, fmt.Sprintf(
				"openloop %q: %.0f accepted/s is %.1f%% below baseline %.0f (tolerance %.0f%%)",
				olKey(b), c.AcceptedPerSec, 100*(1-c.AcceptedPerSec/b.AcceptedPerSec), b.AcceptedPerSec, 100*tolerance))
		}
		if ceil := b.P99Ms*(1+tolerance) + 2.0; c.P99Ms > ceil {
			problems = append(problems, fmt.Sprintf(
				"openloop %q: p99 %.2fms is above baseline %.2fms + %.0f%% + 2ms grace",
				olKey(b), c.P99Ms, b.P99Ms, 100*tolerance))
		}
		if sb, sc := shedRate(b), shedRate(c); sc > sb+tolerance {
			problems = append(problems, fmt.Sprintf(
				"openloop %q: shed rate %.1f%% is more than %.0f points above baseline %.1f%%",
				olKey(b), 100*sc, 100*tolerance, 100*sb))
		}
	}
	return problems
}

// compareFailover gates the failover recovery ratio (after-kill/pre-kill
// calls/s, capped via gatedFailoverRecovery) the same way compareRebalance
// gates migration recovery; the relative gate tracks it through the
// "failover recovery" entry of RelativeMetrics.
func compareFailover(baseline, current Report, tolerance float64) []string {
	b, okB := gatedFailoverRecovery(baseline)
	if !okB {
		return nil
	}
	c, okC := gatedFailoverRecovery(current)
	if !okC {
		return []string{"failover recovery: missing from current report"}
	}
	if c < b*(1-tolerance) {
		return []string{fmt.Sprintf(
			"failover recovery: %.2fx is %.1f%% below baseline %.2fx (tolerance %.0f%%)",
			c, 100*(1-c/b), b, 100*tolerance)}
	}
	return nil
}

// compareChaos gates the chaos recovery ratio (post-heal/calm calls/s,
// capped via gatedChaosRecovery) the same way compareFailover gates its
// ratio; the relative gate tracks it through the "chaos recovery" entry
// of RelativeMetrics.
func compareChaos(baseline, current Report, tolerance float64) []string {
	b, okB := gatedChaosRecovery(baseline)
	if !okB {
		return nil
	}
	c, okC := gatedChaosRecovery(current)
	if !okC {
		return []string{"chaos recovery: missing from current report"}
	}
	if c < b*(1-tolerance) {
		return []string{fmt.Sprintf(
			"chaos recovery: %.2fx is %.1f%% below baseline %.2fx (tolerance %.0f%%)",
			c, 100*(1-c/b), b, 100*tolerance)}
	}
	return nil
}

// compareRebalance gates the migration recovery ratio (after/before
// calls/s, capped via gatedRecovery): it must not drop more than
// tolerance below the baseline's. This is the absolute-mode twin of the
// "rebalance recovery" entry RelativeMetrics feeds the relative gate.
func compareRebalance(baseline, current Report, tolerance float64) []string {
	b, okB := gatedRecovery(baseline)
	if !okB {
		return nil
	}
	c, okC := gatedRecovery(current)
	if !okC {
		return []string{"rebalance recovery: missing from current report"}
	}
	if c < b*(1-tolerance) {
		return []string{fmt.Sprintf(
			"rebalance recovery: %.2fx is %.1f%% below baseline %.2fx (tolerance %.0f%%)",
			c, 100*(1-c/b), b, 100*tolerance)}
	}
	return nil
}

// compareCodec gates the codec rows: ns/op within tolerance (when gateNs
// is set — the relative gate covers time through ratios instead) and
// allocs/op never rising.
func compareCodec(baseline, current Report, tolerance float64, gateNs bool) []string {
	var problems []string
	codecKey := func(r CodecPathRow) string { return r.Path + "/" + r.Op }
	curCodec := map[string]CodecPathRow{}
	for _, r := range current.Codec {
		curCodec[codecKey(r)] = r
	}
	for _, b := range baseline.Codec {
		c, ok := curCodec[codecKey(b)]
		if !ok {
			if gateNs {
				// The relative gate reports missing rows through its
				// missing-ratio check; avoid double-counting there.
				problems = append(problems, fmt.Sprintf("codec %s: missing from current report", codecKey(b)))
			}
			continue
		}
		if gateNs {
			ceil := b.NsPerOp * (1 + tolerance)
			if c.NsPerOp > ceil {
				problems = append(problems, fmt.Sprintf(
					"codec %s: %.1f ns/op is %.1f%% above baseline %.1f (tolerance %.0f%%)",
					codecKey(b), c.NsPerOp, 100*(c.NsPerOp/b.NsPerOp-1), b.NsPerOp, 100*tolerance))
			}
		}
		if c.AllocsPerOp > b.AllocsPerOp {
			problems = append(problems, fmt.Sprintf(
				"codec %s: allocs/op rose %d -> %d (no tolerance: pooling must not rot)",
				codecKey(b), b.AllocsPerOp, c.AllocsPerOp))
		}
	}
	return problems
}
