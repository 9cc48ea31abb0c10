// Command benchdiff is the CI benchmark-regression gate: it compares a
// fresh parcbench -json report against the committed baseline and exits
// non-zero when a tracked metric regressed beyond the tolerance.
//
// Usage:
//
//	go run ./cmd/parcbench -exp codec -exp openloop -json > BENCH_current.json
//	go run ./cmd/benchdiff -baseline BENCH_baseline.json -current BENCH_current.json
//
// Tracked metrics: codec ns/op (per path/op, must not rise), codec allocs/op
// (per path/op, must never rise — allocation counts are deterministic, so
// a pooling regression has no noise excuse and gets no tolerance; the
// alloc gate applies in -relative mode too), and the open-loop serving
// rows (per scenario and offered-rate factor: accepted calls/s must not
// drop, p99 of accepted calls must not rise, and the shed rate must not
// rise beyond the tolerance), plus the rebalance, failover and chaos
// recovery ratios (capped at 1.0, must not drop). Rows present in the baseline
// but missing from the current report fail the gate. Improvements pass;
// commit a refreshed baseline to bank them (see the README's "Refreshing
// the benchmark baseline" section).
//
// Absolute comparisons are refused when the two reports' GOMAXPROCS or
// NumCPU differ (a core-count change moves every absolute number for
// hardware reasons); use -relative, which compares hardware-cancelling
// ratios, or -force to override.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/bench"
)

func main() {
	baseline := flag.String("baseline", "BENCH_baseline.json", "committed baseline report")
	current := flag.String("current", "", "fresh report to check (required)")
	tolerance := flag.Float64("tolerance", 0.15, "allowed fractional regression (0.15 = 15%)")
	relative := flag.Bool("relative", false,
		"compare machine-independent ratios (codec speedups, recovery ratios, open-loop fractions) instead of absolute calls/s and ns/op; use when baseline and current ran on different hardware (CI)")
	force := flag.Bool("force", false,
		"compare absolute metrics even when the reports' GOMAXPROCS/NumCPU differ (normally refused: core-count changes move every absolute number for hardware reasons)")
	flag.Parse()
	if *current == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -current is required")
		flag.Usage()
		os.Exit(2)
	}

	base, err := bench.ReadReport(*baseline)
	if err != nil {
		log.Fatalf("benchdiff: %v", err)
	}
	cur, err := bench.ReadReport(*current)
	if err != nil {
		log.Fatalf("benchdiff: %v", err)
	}

	if !*relative && !*force {
		if msg := bench.MetaMismatch(base.Meta, cur.Meta); msg != "" {
			log.Fatalf("benchdiff: refusing absolute comparison: %s\n"+
				"(absolute calls/s and ns/op are not comparable across core counts; use -relative, or -force to override)", msg)
		}
	}

	var problems []string
	var tracked int
	if *relative {
		problems = bench.CompareReportsRelative(base, cur, *tolerance)
		tracked = len(bench.RelativeMetrics(base))
	} else {
		problems = bench.CompareReports(base, cur, *tolerance)
		tracked = len(base.Codec) + len(base.OpenLoop)
	}
	mode := "absolute"
	if *relative {
		mode = "relative"
	}
	if len(problems) > 0 {
		fmt.Printf("benchdiff: %d %s regression(s) beyond %.0f%% against %s:\n", len(problems), mode, 100**tolerance, *baseline)
		for _, p := range problems {
			fmt.Println("  FAIL:", p)
		}
		os.Exit(1)
	}
	fmt.Printf("benchdiff: OK — %d %s metrics within %.0f%% of %s\n", tracked, mode, 100**tolerance, *baseline)
}
