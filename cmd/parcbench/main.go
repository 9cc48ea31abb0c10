// Command parcbench regenerates every figure and table of the paper's
// evaluation (§4) plus the DESIGN.md ablations, printing paper-style tables
// with the measured stacks next to the analytic cost model.
//
// Usage:
//
//	parcbench                        # every experiment, quick settings
//	parcbench -full                  # full sweeps (paper-sized; minutes)
//	parcbench -exp fig8a             # one experiment
//	parcbench -exp codec -exp chaos  # several (repeat -exp or comma-join)
//	parcbench -exp codec -exp chaos -json > BENCH.json
//
// Experiments: fig8a fig8b latency fig9 seqratio overhead agg agglom
// codecs pool codec rebalance failover openloop chaos skeletons.
//
// With -json the human tables go to stderr and a machine-readable
// bench.Report (the format BENCH_baseline.json and the CI regression gate
// consume) is written to stdout; the report records the Go version and
// GOMAXPROCS it was measured under.
//
// -cpuprofile/-memprofile write pprof artifacts covering the experiment
// runs, so a hot-path regression flagged by the CI gate can be diagnosed
// straight from a bench run (go tool pprof <binary> cpu.out).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/netsim"
	"repro/internal/paper/profile"
)

// expFlag collects repeated and/or comma-separated -exp values.
type expFlag []string

func (e *expFlag) String() string { return strings.Join(*e, ",") }

func (e *expFlag) Set(v string) error {
	for _, part := range strings.Split(v, ",") {
		if part = strings.TrimSpace(part); part != "" {
			*e = append(*e, part)
		}
	}
	return nil
}

func main() {
	var exps expFlag
	flag.Var(&exps, "exp", "experiment id, repeatable/comma-separated (all, fig8a, fig8b, latency, fig9, seqratio, overhead, agg, agglom, codecs, pool, codec, rebalance, failover, openloop, chaos, skeletons)")
	full := flag.Bool("full", false, "full paper-sized sweeps (slower)")
	asJSON := flag.Bool("json", false, "write a machine-readable bench.Report to stdout (tables go to stderr)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile covering the experiment runs to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile (after the runs) to this file")
	flag.Parse()
	if len(exps) == 0 {
		exps = expFlag{"all"}
	}
	// log.Fatal calls os.Exit, which skips deferred StopCPUProfile and
	// would leave a truncated -cpuprofile artifact; every fatal exit after
	// profiling starts goes through these instead. StopCPUProfile is a
	// no-op when profiling is off.
	fatal := func(v ...any) {
		pprof.StopCPUProfile()
		log.Fatal(v...)
	}
	fatalf := func(format string, args ...any) {
		pprof.StopCPUProfile()
		log.Fatalf(format, args...)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("parcbench: -cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("parcbench: -cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatalf("parcbench: -memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatalf("parcbench: -memprofile: %v", err)
			}
		}()
	}

	run := func(name string) bool {
		for _, e := range exps {
			if e == "all" || strings.EqualFold(e, name) {
				return true
			}
		}
		return false
	}
	var out io.Writer = os.Stdout
	if *asJSON {
		out = os.Stderr
	}
	var report bench.Report
	any := false

	if run("fig8a") {
		any = true
		fmt.Fprintln(out, "================================================================")
		stacks, err := bench.Fig8aStacks()
		if err != nil {
			fatal(err)
		}
		rows, err := bench.Sweep(stacks, bench.MessageSizes(*full), *full)
		bench.CloseAll(stacks)
		if err != nil {
			fatal(err)
		}
		bench.PrintBandwidth(out, "Fig. 8a — inter-node bandwidth, measured (MPI vs Java RMI vs Mono)", rows)
		model := bench.ModelSweep(
			[]bench.StackModel{bench.ModelMPI(), bench.ModelRMI(), bench.ModelMono117()},
			bench.MessageSizes(*full))
		bench.PrintBandwidth(out, "Fig. 8a — analytic cost model", model)
	}
	if run("fig8b") {
		any = true
		fmt.Fprintln(out, "================================================================")
		stacks, err := bench.Fig8bStacks()
		if err != nil {
			fatal(err)
		}
		rows, err := bench.Sweep(stacks, bench.MessageSizes(*full), *full)
		bench.CloseAll(stacks)
		if err != nil {
			fatal(err)
		}
		bench.PrintBandwidth(out, "Fig. 8b — Mono implementations (Tcp 1.1.7 vs Tcp 1.0.5 vs Http)", rows)
		model := bench.ModelSweep(
			[]bench.StackModel{bench.ModelMono117(), bench.ModelMono105(), bench.ModelMonoHTTP()},
			bench.MessageSizes(*full))
		bench.PrintBandwidth(out, "Fig. 8b — analytic cost model", model)
	}
	if run("latency") {
		any = true
		fmt.Fprintln(out, "================================================================")
		stacks, err := bench.Fig8aStacks()
		if err != nil {
			fatal(err)
		}
		reps := 50
		if !*full {
			reps = 20
		}
		rows, err := bench.MeasureLatency(stacks, reps)
		bench.CloseAll(stacks)
		if err != nil {
			fatal(err)
		}
		bench.PrintLatency(out, "E3 — inter-node round-trip latency (paper: MPI 100, Mono 273, RMI 520 us)", rows)
	}
	if run("fig9") {
		any = true
		fmt.Fprintln(out, "================================================================")
		cfg := bench.DefaultFig9Config(*full)
		rows, err := bench.RunFig9(cfg)
		if err != nil {
			fatal(err)
		}
		bench.PrintFig9(out, rows)
		fmt.Fprintf(out, "(image %dx%d, time scale 1/%.0f; checksums equal across systems: %v)\n",
			cfg.Width, cfg.Height, cfg.TimeScale, checksumsAgree(rows))
	}
	if run("seqratio") {
		any = true
		fmt.Fprintln(out, "================================================================")
		n := 500_000
		if *full {
			n = 5_000_000
		}
		bench.PrintSeqRatios(out, bench.RunSeqRatios(n))
	}
	if run("overhead") {
		any = true
		fmt.Fprintln(out, "================================================================")
		reps := 30
		if !*full {
			reps = 15
		}
		res, err := bench.RunOverhead(1024, reps, profile.Network())
		if err != nil {
			fatal(err)
		}
		bench.PrintOverhead(out, res)
	}
	if run("agg") {
		any = true
		fmt.Fprintln(out, "================================================================")
		n := 200
		sweep := []int{1, 4, 16, 64}
		if *full {
			n = 600
			sweep = []int{1, 4, 16, 64, 256}
		}
		rows, err := bench.RunAggregationSweep(n, sweep, profile.Network())
		if err != nil {
			fatal(err)
		}
		bench.PrintAggregation(out, rows)
	}
	if run("agglom") {
		any = true
		fmt.Fprintln(out, "================================================================")
		objects, calls := 8, 25
		if *full {
			objects, calls = 16, 50
		}
		rows, err := bench.RunAgglomerationAblation(objects, calls, profile.Network())
		if err != nil {
			fatal(err)
		}
		bench.PrintAgglomeration(out, rows)
	}
	if run("codecs") {
		any = true
		fmt.Fprintln(out, "================================================================")
		rows, err := bench.RunCodecAblation(1024)
		if err != nil {
			fatal(err)
		}
		bench.PrintCodecs(out, rows)
	}
	if run("pool") {
		any = true
		fmt.Fprintln(out, "================================================================")
		cfg := bench.DefaultFig9Config(false)
		cfg.Net = netsim.Ethernet100()
		sizes := []int{1, 2, 4, 8}
		rows, err := bench.RunPoolAblation(cfg, 4, sizes)
		if err != nil {
			fatal(err)
		}
		bench.PrintPool(out, rows)
	}
	if run("codec") {
		any = true
		fmt.Fprintln(out, "================================================================")
		rows, err := bench.RunCodec()
		if err != nil {
			fatal(err)
		}
		bench.PrintCodec(out, rows)
		report.Codec = rows
	}
	if run("rebalance") {
		any = true
		fmt.Fprintln(out, "================================================================")
		// The before/after windows feed the CI-gated recovery ratio: they
		// must be wide enough that a single scheduler or GC hiccup on a
		// shared runner cannot move the ratio by the gate's tolerance.
		cfg := bench.RebalanceConfig{Objects: 16, Callers: 8, Phase: 400 * time.Millisecond}
		if *full {
			cfg = bench.RebalanceConfig{Objects: 64, Callers: 32, Phase: time.Second}
		}
		rows, err := bench.RunRebalance(cfg)
		if err != nil {
			fatal(err)
		}
		bench.PrintRebalance(out, rows)
		report.Rebalance = rows
	}
	if run("failover") {
		any = true
		fmt.Fprintln(out, "================================================================")
		// MinRecovery is the hard CI floor on failover quality: the cluster
		// must be back to at least 70% of pre-kill throughput once callers
		// have re-routed. The windows are sized like rebalance's so shared
		// runners cannot flap the gated ratio.
		cfg := bench.FailoverConfig{Keys: 12, Callers: 8, Phase: 400 * time.Millisecond, MinRecovery: 0.7}
		if *full {
			cfg = bench.FailoverConfig{Keys: 32, Callers: 16, Phase: time.Second, MinRecovery: 0.7}
		}
		rows, err := bench.RunFailover(cfg)
		if err != nil {
			fatal(err)
		}
		bench.PrintFailover(out, rows)
		report.Failover = rows
	}
	if run("openloop") {
		any = true
		fmt.Fprintln(out, "================================================================")
		// Open-loop serving: Poisson arrivals against bounded mailboxes.
		// RunOpenLoop hard-asserts the admission-control contract (sheds at
		// 2x capacity, p99 of accepted calls under the SLO, accepted ratio
		// near capacity) so a broken shed path fails the bench outright,
		// not just the diff. The quick window is sized for the CI race
		// smoke; -full widens it for committed baselines.
		cfg := bench.OpenLoopConfig{}
		if *full {
			cfg.Duration = 2 * time.Second
		}
		rows, err := bench.RunOpenLoop(cfg)
		if err != nil {
			fatal(err)
		}
		bench.PrintOpenLoop(out, rows)
		report.OpenLoop = rows
	}
	if run("chaos") {
		any = true
		fmt.Fprintln(out, "================================================================")
		// Chaos: a seeded fault schedule (partitions, crashes, stalls)
		// against retried idempotent calls. RunChaos hard-asserts the
		// correctness invariants itself — zero lost acknowledgements, zero
		// double-executions, every key served within the recovery deadline —
		// so a broken retry/dedup/failover path fails the bench outright.
		// MinRecovery additionally floors post-heal throughput; it is set
		// well below the failover gate's because the chaos run ends right
		// after the final heal, before placement has fully settled.
		cfg := bench.ChaosConfig{Keys: 6, Callers: 6, Calm: 250 * time.Millisecond, Chaos: time.Second, Seed: 1, MinRecovery: 0.25}
		if *full {
			cfg = bench.ChaosConfig{Keys: 12, Callers: 12, Calm: 500 * time.Millisecond, Chaos: 2 * time.Second, Seed: 1, MinRecovery: 0.25}
		}
		rows, err := bench.RunChaos(cfg)
		if err != nil {
			fatal(err)
		}
		bench.PrintChaos(out, rows)
		report.Chaos = rows
	}
	if run("skeletons") {
		any = true
		fmt.Fprintln(out, "================================================================")
		// Skeletons: completion-driven futures and the Scatter/Gather
		// skeleton over a 3-node cluster. RunSkeletons hard-asserts the
		// goroutine-flatness contract itself (thousands of outstanding
		// futures, goroutine delta bounded by the in-flight window), so a
		// regression to goroutine-per-call fails the bench outright; the
		// skeleton-vs-handrolled calls/s ratio feeds the diff gates.
		cfg := bench.SkeletonConfig{}
		if *full {
			cfg = bench.SkeletonConfig{Outstanding: 20000, Workers: 16, Window: time.Second}
		}
		rows, err := bench.RunSkeletons(cfg)
		if err != nil {
			fatal(err)
		}
		bench.PrintSkeletons(out, rows)
		report.Skeletons = rows
	}
	if !any {
		fatalf("unknown experiment(s) %q", exps.String())
	}
	if *asJSON {
		report.Meta = bench.CurrentMeta()
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fatal(err)
		}
	}
}

func checksumsAgree(rows []bench.Fig9Row) bool {
	var first int64
	for i, r := range rows {
		for _, sum := range r.Checksum {
			if i == 0 && first == 0 {
				first = sum
			}
			if sum != first {
				return false
			}
		}
	}
	return true
}
