// Command parcbench regenerates every figure and table of the paper's
// evaluation (§4) plus the DESIGN.md ablations, printing paper-style tables
// with the measured stacks next to the analytic cost model.
//
// Usage:
//
//	parcbench                        # every experiment, quick settings
//	parcbench -full                  # full sweeps (paper-sized; minutes)
//	parcbench -exp fig8a             # one experiment
//	parcbench -exp fig8a -exp fig9   # several (repeat -exp or comma-join)
//
// Experiments: fig8a fig8b latency fig9 seqratio overhead agg agglom
// codecs pool.
//
// The runtime's own scenarios (rebalance, failover, open loop, chaos,
// skeletons) are go tests in internal/scenario; numbers that gate a change
// come from benchmark/ (BENCHMARK.json).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/netsim"
	"repro/internal/paper/figures"
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
	flag.Var(&exps, "exp", "experiment id, repeatable/comma-separated (all, fig8a, fig8b, latency, fig9, seqratio, overhead, agg, agglom, codecs, pool)")
	full := flag.Bool("full", false, "full paper-sized sweeps (slower)")
	flag.Parse()
	if len(exps) == 0 {
		exps = expFlag{"all"}
	}

	run := func(name string) bool {
		for _, e := range exps {
			if e == "all" || strings.EqualFold(e, name) {
				return true
			}
		}
		return false
	}
	out := os.Stdout
	any := false

	if run("fig8a") {
		any = true
		fmt.Fprintln(out, "================================================================")
		stacks, err := figures.Fig8aStacks()
		if err != nil {
			log.Fatal(err)
		}
		rows, err := figures.Sweep(stacks, figures.MessageSizes(*full), *full)
		figures.CloseAll(stacks)
		if err != nil {
			log.Fatal(err)
		}
		figures.PrintBandwidth(out, "Fig. 8a — inter-node bandwidth, measured (MPI vs Java RMI vs Mono)", rows)
		model := figures.ModelSweep(
			[]figures.StackModel{figures.ModelMPI(), figures.ModelRMI(), figures.ModelMono117()},
			figures.MessageSizes(*full))
		figures.PrintBandwidth(out, "Fig. 8a — analytic cost model", model)
	}
	if run("fig8b") {
		any = true
		fmt.Fprintln(out, "================================================================")
		stacks, err := figures.Fig8bStacks()
		if err != nil {
			log.Fatal(err)
		}
		rows, err := figures.Sweep(stacks, figures.MessageSizes(*full), *full)
		figures.CloseAll(stacks)
		if err != nil {
			log.Fatal(err)
		}
		figures.PrintBandwidth(out, "Fig. 8b — Mono implementations (Tcp 1.1.7 vs Tcp 1.0.5 vs Http)", rows)
		model := figures.ModelSweep(
			[]figures.StackModel{figures.ModelMono117(), figures.ModelMono105(), figures.ModelMonoHTTP()},
			figures.MessageSizes(*full))
		figures.PrintBandwidth(out, "Fig. 8b — analytic cost model", model)
	}
	if run("latency") {
		any = true
		fmt.Fprintln(out, "================================================================")
		stacks, err := figures.Fig8aStacks()
		if err != nil {
			log.Fatal(err)
		}
		reps := 50
		if !*full {
			reps = 20
		}
		rows, err := figures.MeasureLatency(stacks, reps)
		figures.CloseAll(stacks)
		if err != nil {
			log.Fatal(err)
		}
		figures.PrintLatency(out, "E3 — inter-node round-trip latency (paper: MPI 100, Mono 273, RMI 520 us)", rows)
	}
	if run("fig9") {
		any = true
		fmt.Fprintln(out, "================================================================")
		cfg := figures.DefaultFig9Config(*full)
		rows, err := figures.RunFig9(cfg)
		if err != nil {
			log.Fatal(err)
		}
		figures.PrintFig9(out, rows)
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
		figures.PrintSeqRatios(out, figures.RunSeqRatios(n))
	}
	if run("overhead") {
		any = true
		fmt.Fprintln(out, "================================================================")
		reps := 30
		if !*full {
			reps = 15
		}
		res, err := figures.RunOverhead(1024, reps, profile.Network())
		if err != nil {
			log.Fatal(err)
		}
		figures.PrintOverhead(out, res)
	}
	if run("agg") {
		any = true
		fmt.Fprintln(out, "================================================================")
		n := 200
		if *full {
			n = 600
		}
		rows, err := figures.RunAggregationSweep(n, profile.Network())
		if err != nil {
			log.Fatal(err)
		}
		figures.PrintAggregation(out, rows)
	}
	if run("agglom") {
		any = true
		fmt.Fprintln(out, "================================================================")
		objects, calls := 8, 25
		if *full {
			objects, calls = 16, 50
		}
		rows, err := figures.RunAgglomerationAblation(objects, calls, profile.Network())
		if err != nil {
			log.Fatal(err)
		}
		figures.PrintAgglomeration(out, rows)
	}
	if run("codecs") {
		any = true
		fmt.Fprintln(out, "================================================================")
		rows, err := figures.RunCodecAblation(1024)
		if err != nil {
			log.Fatal(err)
		}
		figures.PrintCodecs(out, rows)
	}
	if run("pool") {
		any = true
		fmt.Fprintln(out, "================================================================")
		cfg := figures.DefaultFig9Config(false)
		cfg.Net = netsim.Ethernet100()
		sizes := []int{1, 2, 4, 8}
		rows, err := figures.RunPoolAblation(cfg, 4, sizes)
		if err != nil {
			log.Fatal(err)
		}
		figures.PrintPool(out, rows)
	}
	if !any {
		log.Fatalf("unknown experiment(s) %q", exps.String())
	}
}

func checksumsAgree(rows []figures.Fig9Row) bool {
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
