package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
	"time"

	"repro/internal/parcgen"
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestContractMatchesCode holds BENCHMARK.json and the tables in main.go
// together: same workloads, same metrics, same units, in the same order.
func TestContractMatchesCode(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code has %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name || w.Why == "" {
			t.Errorf("workload %d: BENCHMARK.json has %q (why %q), the code has %q", i, w.Name, w.Why, specs[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEndDefs) || len(b.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the code has %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEndDefs), len(perLayerDefs))
	}
	for i, m := range b.EndToEnd {
		if d := endToEndDefs[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end_to_end %d: BENCHMARK.json has %s [%s], the code has %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range b.PerLayer {
		if d := perLayerDefs[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer %d: BENCHMARK.json has %s [%s], the code has %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkEmitted asserts that a run produced every metric of defs, finite and
// well named, and that its output checks held.
func checkEmitted(t *testing.T, what string, defs []metricDef, o outcome) {
	t.Helper()
	if o.err != nil || o.failed != 0 || o.attempted < 1 {
		t.Errorf("%s: attempted %d, failed %d, err %v", what, o.attempted, o.failed, o.err)
	}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: metric %s = %v (emitted %v)", what, d.name, v, ok)
		}
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", d.name)
		}
	}
}

// TestQuickProfile runs every workload through both passes on the smoke
// profile. Besides the metrics it checks the separation the workloads were
// chosen for (no frame leaves the node on call_local) and that tearing a
// workload down leaves no goroutine behind.
func TestQuickProfile(t *testing.T) {
	useQuickProfile()
	outdir := t.TempDir()
	for _, sp := range specs {
		before := runtime.NumGoroutine()
		checkEmitted(t, sp.name+" untraced", append(endToEndDefs, timingDefs...), endToEnd(sp, 7, quickWindow))
		tr := traced(sp, 7, quickWindow, outdir)
		checkEmitted(t, sp.name+" traced", perLayerDefs, tr)
		if _, err := os.Stat(filepath.Join(outdir, "trace-"+sp.name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", sp.name, err)
		}
		frames := tr.metrics["transport.frames_per_call"]
		if sp.local && frames != 0 {
			t.Errorf("%s: %v transport frames per call on a node-local workload", sp.name, frames)
		}
		if !sp.local && frames < 1.5 {
			t.Errorf("%s: %v transport frames per call, want about two, a request and a reply", sp.name, frames)
		}
		settled := false
		for wait := time.Now(); time.Since(wait) < 5*time.Second; time.Sleep(10 * time.Millisecond) {
			if settled = runtime.NumGoroutine() <= before; settled {
				break
			}
		}
		if !settled {
			t.Errorf("%s: %d goroutines before, %d after teardown", sp.name, before, runtime.NumGoroutine())
		}
	}
}

// TestGeneratedProxiesAreCurrent regenerates classes_parc.go in memory.
func TestGeneratedProxiesAreCurrent(t *testing.T) {
	src, err := os.ReadFile("classes.go")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("classes_parc.go")
	if err != nil {
		t.Fatal(err)
	}
	got, err := parcgen.GenerateFile("classes.go", src)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("classes_parc.go is stale: run go generate in benchmark/")
	}
}

// TestCompare feeds -compare two result files: one pair inside the bounds,
// one where b allocates a third more per call.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, allocs ...float64) string {
		f := resultFile{Header: header()}
		for i, v := range allocs {
			f.Runs = append(f.Runs, runRecord{Workload: "fanout_small", Seed: uint64(i), Result: resultLine{
				Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{"allocs_per_call": {Value: v, Unit: "count"}},
			}})
		}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", 45.0, 45.2, 44.9, 45.1, 45.0)
	if got := compareFiles("../BENCHMARK.json", a, write("same.json", 45.1, 45.0, 45.3, 44.8, 45.1)); got != 0 {
		t.Errorf("runs that agree: compare returned %d", got)
	}
	if got := compareFiles("../BENCHMARK.json", a, write("more.json", 60, 61, 59, 60, 62)); got != 1 {
		t.Errorf("a third more allocations: compare returned %d", got)
	}
	// statistics.quantiles([1, 2, 4, 7, 11], n=4) is [1.5, 4.0, 9.0].
	if got := spread([]float64{1, 2, 4, 7, 11}); math.Abs(got-7.5/4) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, 7.5/4)
	}
}
