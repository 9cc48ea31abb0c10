// Command benchmark is the repository's benchmark: seven workloads over the
// production call path (Multiplexed channel, loopback TCP, generated typed
// proxies), end-to-end metrics with regression bounds, and a per-layer
// ledger taken from outside the runtime. See README.md in this directory
// and BENCHMARK.json at the repository root.
//
//	go run . --workload fanout_small --seed 1 --seconds 8 --trace 0
//	go run . -workload all -out out/run.json
//	go run . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

// metricDef names a metric and its unit; BENCHMARK.json carries the same
// list plus the bounds (the smoke test holds the two together).
type metricDef struct{ name, unit string }

var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"allocs_per_call", "count"},
	{"bytes_per_call", "B"},
}

// timingDefs are the untraced run's clock-based figures. They are printed
// and kept in result files but not gated: see "Why timing is not gated" in
// README.md. The traced run reports the same figures as load.* metrics.
var timingDefs = []metricDef{
	{"calls_per_s", "1/s"},
	{"p50_us", "us"},
	{"p99_us", "us"},
	{"mb_per_s", "MB/s"},
	{"cpu_us_per_call", "us"},
}

var perLayerDefs = []metricDef{
	{"wire.enc_small_ns", "ns"}, {"wire.dec_small_ns", "ns"},
	{"wire.enc_small_allocs", "count"}, {"wire.dec_small_allocs", "count"},
	{"wire.small_wire_bytes", "B"},
	{"wire.enc_bulk_ns", "ns"}, {"wire.dec_bulk_ns", "ns"}, {"wire.dec_bulk_bytes_alloc", "B"},
	{"transport.tcp_rtt_small_ns", "ns"}, {"transport.tcp_rtt_bulk_ns", "ns"},
	{"transport.unix_rtt_small_ns", "ns"}, {"transport.inproc_rtt_small_ns", "ns"},
	{"transport.tcp_rtt_small_allocs", "count"},
	{"transport.frames_per_call", "count"}, {"transport.writes_per_call", "count"},
	{"transport.batch_frames_mean", "count"}, {"transport.bytes_per_call", "B"},
	{"transport.send_busy_ns_per_call", "ns"},
	{"dispatch.thunk_ns", "ns"}, {"dispatch.reflect_ns", "ns"},
	{"dispatch.thunk_allocs", "count"}, {"dispatch.reflect_allocs", "count"},
	{"remoting.call_small_ns", "ns"}, {"remoting.call_small_allocs", "count"},
	{"remoting.call_bulk_ns", "ns"}, {"remoting.call_small_inproc_ns", "ns"},
	{"remoting.self_small_ns", "ns"},
	{"core.call_small_ns", "ns"}, {"core.call_small_allocs", "count"}, {"core.self_small_ns", "ns"},
	{"core.call_local_ns", "ns"}, {"core.call_local_allocs", "count"}, {"core.async_post_ns", "ns"},
	{"core.sync_calls", "count"}, {"core.async_calls", "count"}, {"core.batches_sent", "count"},
	{"core.mailbox_sheds", "count"}, {"core.deadline_drops", "count"},
	{"parc.call_small_ns", "ns"}, {"parc.call_dynamic_ns", "ns"}, {"parc.call_small_allocs", "count"},
	{"parc.self_small_ns", "ns"}, {"parc.scatter_ns_per_call", "ns"}, {"parc.then_ns", "ns"},
	{"threadpool.submit_ns", "ns"}, {"threadpool.submit_allocs", "count"},
	{"cluster.boot3_s", "s"},
	{"span.client_out_ns", "ns"}, {"span.net_out_ns", "ns"}, {"span.server_in_ns", "ns"},
	{"span.exec_ns", "ns"}, {"span.server_out_ns", "ns"}, {"span.net_back_ns", "ns"},
	{"span.client_in_ns", "ns"},
	{"ledger.sum_ns", "ns"}, {"ledger.e2e_ns", "ns"}, {"ledger.residual_pct", "%"},
	{"trace.p50_us", "us"}, {"trace.overhead_pct", "%"},
	{"app.seq_op_ns", "ns"}, {"app.speedup_vs_seq", "x"},
	{"load.calls_per_s", "1/s"}, {"load.p50_us", "us"}, {"load.p99_us", "us"}, {"load.cpu_us_per_call", "us"},
}

// runRecord is one run as result files keep it; Result is the object the
// run printed as its last line.
type runRecord struct {
	Workload  string     `json:"workload"`
	Seed      uint64     `json:"seed"`
	Seconds   int        `json:"seconds"`
	Trace     int        `json:"trace"`
	InputHash string     `json:"input_hash"`
	Result    resultLine `json:"result"`
	// Timing holds the untraced run's timingDefs, which Result must not.
	Timing map[string]metricValue `json:"timing,omitempty"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultFile is what -out appends to and -compare reads.
type resultFile struct {
	Header map[string]any `json:"header"`
	Runs   []runRecord    `json:"runs"`
}

func header() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"network":    "loopback, not a real link",
		"load":       "generated in the process under test, on its OS threads",
	}
}

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs: payloads, object choice, Poisson schedule")
	seconds := flag.Int("seconds", 8, "length of the measured window")
	trace := flag.Int("trace", 0, "0: untraced end-to-end run; 1: per-layer run with counters and spans")
	out := flag.String("out", "", "result file to append each run to")
	outdir := flag.String("outdir", "out", "directory for trace-<workload>.json")
	quick := flag.Bool("quick", false, "smoke profile: every workload, both passes, tiny windows and image")
	compare := flag.Bool("compare", false, "compare two result files given as arguments against the bounds in -bounds")
	bounds := flag.String("bounds", "../BENCHMARK.json", "BENCHMARK.json holding the bounds -compare applies")
	flag.Parse()
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(*bounds, flag.Arg(0), flag.Arg(1)))
	}

	window := time.Duration(*seconds) * time.Second
	var todo []spec
	traces := []int{*trace}
	if sp, ok := specByName(*workload); ok {
		todo = []spec{sp}
	} else if *workload == "all" {
		todo, traces = specs, []int{0, 1}
	} else {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *quick {
		todo, traces, window = specs, []int{0, 1}, quickWindow
		useQuickProfile()
	}

	exit := 0
	for _, sp := range todo {
		for _, tr := range traces {
			var rec runRecord
			if tr == 0 {
				rec = report(sp, *seed, *seconds, tr, endToEndDefs, timingDefs, endToEnd(sp, *seed, window))
			} else {
				rec = report(sp, *seed, *seconds, tr, perLayerDefs, nil, traced(sp, *seed, window, *outdir))
			}
			if !rec.Result.Correct {
				exit = 1
			}
			if *out != "" {
				if err := appendRun(*out, rec); err != nil {
					fmt.Fprintln(os.Stderr, err)
					exit = 1
				}
			}
		}
	}
	os.Exit(exit)
}

// report prints the run as a table and then as the one-line JSON result,
// which carries exactly the metrics of defs; extra metrics are printed and
// recorded beside it.
func report(sp spec, seed uint64, seconds, trace int, defs, extra []metricDef, o outcome) runRecord {
	res := resultLine{
		Correct:   o.err == nil && o.failed == 0,
		Attempted: max(o.attempted, 1),
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	rec := runRecord{Workload: sp.name, Seed: seed, Seconds: seconds, Trace: trace, InputHash: fmt.Sprintf("%016x", o.inputHash)}
	fmt.Printf("# %s seed=%d trace=%d inputs=%s nproc=%d GOMAXPROCS=%d %s loopback\n",
		sp.name, seed, trace, rec.InputHash, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			o.err = fmt.Errorf("%s: metric %s was not measured", sp.name, d.name)
			res.Correct = false
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("%-34s %16.4f %s\n", d.name, v, d.unit)
	}
	for _, d := range extra {
		if rec.Timing == nil {
			rec.Timing = map[string]metricValue{}
		}
		rec.Timing[d.name] = metricValue{Value: o.metrics[d.name], Unit: d.unit}
		fmt.Printf("%-34s %16.4f %s (not gated)\n", d.name, o.metrics[d.name], d.unit)
	}
	for _, n := range o.notes {
		fmt.Println("# " + n)
	}
	if o.err != nil {
		fmt.Println("# FAILED: " + o.err.Error())
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	rec.Result = res
	return rec
}

func readResults(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func appendRun(path string, rec runRecord) error {
	f, err := readResults(path)
	if os.IsNotExist(err) {
		f, err = resultFile{Header: header()}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, rec)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// benchmarkSpec is the part of BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// values collects one metric's untraced values per workload.
func values(f resultFile, workload, metric string) []float64 {
	var v []float64
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		if m, ok := r.Result.Metrics[metric]; ok {
			v = append(v, m.Value)
		} else if m, ok := r.Timing[metric]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// spread is the distance between the first and third quartile as a share of
// the median, by the method of Python's statistics.quantiles(v, n=4).
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		lo := min(max(int(pos), 1), len(s)-1)
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return (q(3) - q(1)) / median(s)
}

// compareFiles prints, for every workload and end-to-end metric, the median
// and spread of both files, the ratio b/a and the bound, and returns 1 when
// any metric of b is worse than a by more than its bound or a run failed.
func compareFiles(boundsPath, aPath, bPath string) int {
	var bs benchmarkSpec
	data, err := os.ReadFile(boundsPath)
	if err == nil {
		err = json.Unmarshal(data, &bs)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bounds: %v\n", err)
		return 2
	}
	a, err := readResults(aPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	b, err := readResults(bPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Printf("a: %s %v\nb: %s %v\n", aPath, a.Header, bPath, b.Header)
	fmt.Printf("%-15s %-16s %14s %8s %14s %8s %14s %7s\n", "workload", "metric", "a median", "a iqr", "b median", "b iqr", "b/a (base a)", "bound")
	status := 0
	for _, f := range []resultFile{a, b} {
		for _, r := range f.Runs {
			if !r.Result.Correct {
				fmt.Printf("%s seed %d trace %d: %d of %d operations failed\n", r.Workload, r.Seed, r.Trace, r.Result.Failed, r.Result.Attempted)
				status = 1
			}
		}
	}
	for _, sp := range specs {
		for _, m := range bs.EndToEnd {
			va, vb := values(a, sp.name, m.Name), values(b, sp.name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := mb/ma - 1
			if m.Better == "higher" {
				worse = 1 - mb/ma
			}
			mark := ""
			if worse > m.Bound {
				mark, status = "  OUTSIDE BOUND", 1
			}
			fmt.Printf("%-15s %-16s %14.4f %7.1f%% %14.4f %7.1f%% %9.4f of %-12.4g %6.0f%%%s\n",
				sp.name, m.Name, ma, 100*spread(va), mb, 100*spread(vb), mb/ma, ma, 100*m.Bound, mark)
		}
		for _, d := range timingDefs {
			va, vb := values(a, sp.name, d.name), values(b, sp.name, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			fmt.Printf("%-15s %-16s %14.4f %7.1f%% %14.4f %7.1f%% %9.4f of %-12.4g   none\n",
				sp.name, d.name, ma, 100*spread(va), mb, 100*spread(vb), mb/ma, ma)
		}
	}
	if status == 0 {
		fmt.Println("every metric of b is within its bound of a")
	}
	return status
}
