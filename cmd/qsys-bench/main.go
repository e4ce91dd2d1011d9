// Command qsys-bench regenerates every table and figure of the paper's
// evaluation (§7) and prints them in the paper's format.
//
// Usage:
//
//	qsys-bench [-full] [-only table4|fig7|fig8|fig9|fig10|fig11|fig12]
//	qsys-bench -bench [-bench-out BENCH_PR5.json] [-bench-baseline prev.json]
//	           [-bench-rounds N] [-bench-experiments=false] [-bench-budget N]
//	           [-bench-routing N] [-bench-parallel N] [-bench-saturation N]
//	           [-bench-gate-wall-speedup X] [-bench-gate-max-ns-ratio X]
//	qsys-bench [-cpuprofile cpu.out] [-memprofile mem.out] ...
//
// -cpuprofile / -memprofile write standard Go pprof profiles covering the
// whole run (experiments or -bench), so hot-path and parallel-executor work
// is inspectable with `go tool pprof`.
//
// The default configuration preserves every reported shape at laptop scale;
// -full mirrors the paper's methodology (4 synthetic instances × 3 runs).
//
// -bench switches to the perf-trajectory harness: it runs the fixed seeded
// serving workload (internal/benchrun) plus the §7 drivers and writes a
// machine-readable BENCH_*.json point (wall time, ns/row, allocs/row, tuple
// counters, latency percentiles, output digests). Passing a previous point
// via -bench-baseline embeds it and reports the delta; see DESIGN.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/benchrun"
	"repro/internal/experiments"
)

func main() {
	full := flag.Bool("full", false, "run the paper's full methodology (4 instances × 3 runs; slower)")
	only := flag.String("only", "", "run a single experiment: table4, fig7, fig8, fig9, fig10, fig11, fig12")
	bench := flag.Bool("bench", false, "run the perf-trajectory harness instead of the paper tables")
	benchOut := flag.String("bench-out", "", "where -bench writes its JSON point (default BENCH_<bench-pr>.json)")
	benchBaseline := flag.String("bench-baseline", "", "previous -bench JSON to embed as baseline and diff against")
	benchPR := flag.String("bench-pr", "PR5", "trajectory label recorded in the JSON")
	benchRounds := flag.Int("bench-rounds", 0, "override the serving workload's round count (0 = default)")
	benchExperiments := flag.Bool("bench-experiments", true, "include the §7 driver pass in -bench runs")
	benchBudget := flag.Int("bench-budget", 0, "row budget of the bounded-budget profile (0 = default; negative skips the profile)")
	benchRouting := flag.Int("bench-routing", 0, "shard count of the hash-vs-affinity routing profile (0 = default; negative skips the profile)")
	benchParallel := flag.Int("bench-parallel", 0, "worker count of the serial-vs-parallel executor profile (0 = default; negative skips the profile)")
	benchFleet := flag.Int("bench-fleet", 0, "shard-slot count of the single-vs-multi-process fleet parity profile (0 = default; negative skips the profile)")
	benchSaturation := flag.Int("bench-saturation", 0, "arrival count of the open-loop overload-control profile (0 = default; negative skips the profile)")
	benchGateWallSpeedup := flag.Float64("bench-gate-wall-speedup", 0, "CI gate: exit nonzero unless the parallel profile's multi-topic wall speedup reaches this factor (0 disables)")
	benchGateMaxNSRatio := flag.Float64("bench-gate-max-ns-ratio", 0, "CI gate: exit nonzero when serving ns/row exceeds baseline times this ratio (needs -bench-baseline; 1.0 = no regression allowed; 0 disables)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qsys-bench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "qsys-bench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "qsys-bench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "qsys-bench: -memprofile: %v\n", err)
			}
		}()
	}

	if *bench {
		// Negative budget/routing/... values flow through as explicit skips:
		// Defaults only replaces zero, and Run's positivity guards leave the
		// profile out. (Zeroing them here used to be undone when Run re-applied
		// Defaults, silently resurrecting the skipped profiles.)
		cfg := benchrun.Config{
			Rounds:             *benchRounds,
			Experiments:        *benchExperiments,
			BudgetRows:         *benchBudget,
			RoutingShards:      *benchRouting,
			ParallelWorkers:    *benchParallel,
			FleetShards:        *benchFleet,
			SaturationRequests: *benchSaturation,
		}
		gates := benchGates{wallSpeedup: *benchGateWallSpeedup, maxNSRatio: *benchGateMaxNSRatio}
		if err := runBench(*benchOut, *benchBaseline, *benchPR, cfg, gates); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := experiments.Config{}.Defaults()
	if *full {
		cfg = experiments.FullConfig()
	}

	type experiment struct {
		name string
		run  func() (interface{ Format() string }, error)
	}
	all := []experiment{
		{"table4", func() (interface{ Format() string }, error) { return experiments.Table4(cfg) }},
		{"fig7", func() (interface{ Format() string }, error) { return experiments.Figure7(cfg) }},
		{"fig8", func() (interface{ Format() string }, error) { return experiments.Figure8(cfg) }},
		{"fig9", func() (interface{ Format() string }, error) { return experiments.Figure9(cfg) }},
		{"fig10", func() (interface{ Format() string }, error) { return experiments.Figure10(cfg) }},
		{"fig11", func() (interface{ Format() string }, error) { return experiments.Figure11(cfg) }},
		{"fig12", func() (interface{ Format() string }, error) { return experiments.Figure12(cfg) }},
	}

	ran := 0
	for _, e := range all {
		if *only != "" && e.name != *only {
			continue
		}
		start := time.Now()
		res, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println(res.Format())
		fmt.Printf("(%s regenerated in %v)\n\n", e.name, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *only)
		os.Exit(2)
	}
}

// benchGates are the optional hard pass/fail thresholds applied after a
// -bench run, so CI can turn trajectory numbers into exit codes.
type benchGates struct {
	// wallSpeedup is the minimum multi-topic wall-clock speedup the parallel
	// profile's best worker count must reach over serial (0 disables). Only
	// meaningful on a multi-core runner.
	wallSpeedup float64
	// maxNSRatio is the maximum allowed current/baseline serving ns/row
	// ratio (0 disables; 1.0 forbids any regression).
	maxNSRatio float64
}

// runBench measures one trajectory point and writes it as JSON.
func runBench(outPath, baselinePath, pr string, cfg benchrun.Config, gates benchGates) error {
	if outPath == "" {
		// Derived from the label so a future PR's bare run cannot silently
		// clobber an earlier checked-in trajectory point.
		outPath = fmt.Sprintf("BENCH_%s.json", pr)
	}

	var baseline *benchrun.Point
	if baselinePath != "" {
		f, err := os.Open(baselinePath)
		if err != nil {
			return fmt.Errorf("open baseline: %w", err)
		}
		prev, err := benchrun.Decode(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("decode baseline: %w", err)
		}
		baseline = &prev.Current
	}

	start := time.Now()
	point, err := benchrun.Run(cfg)
	if err != nil {
		return err
	}
	report := benchrun.NewReport(pr, baseline, *point)

	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	if err := report.Encode(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Print(report.Summary())
	fmt.Printf("(point measured in %v, written to %s)\n", time.Since(start).Round(time.Millisecond), outPath)
	return applyGates(report, gates)
}

// applyGates checks the CI thresholds against a finished report. The point
// is already written when this runs, so a failing gate still leaves the
// numbers on disk for the workflow to upload.
func applyGates(report *benchrun.Report, gates benchGates) error {
	if gates.wallSpeedup > 0 {
		p := report.Current.Parallel
		if p == nil {
			return fmt.Errorf("gate: -bench-gate-wall-speedup needs the parallel profile (enable -bench-parallel)")
		}
		if !p.DigestsEqual || !p.CountersEqual {
			return fmt.Errorf("gate: parallel profile semantics diverged (digests_equal=%v counters_equal=%v)", p.DigestsEqual, p.CountersEqual)
		}
		// MultiTopicSpeedup is the serial/best ns-per-row ratio; with equal
		// counters the row counts match, so it is exactly the wall ratio.
		best := p.MultiTopic[len(p.MultiTopic)-1]
		if p.MultiTopicSpeedup < gates.wallSpeedup {
			return fmt.Errorf("gate: multi-topic wall speedup %.2fx at workers=%d < required %.2fx (cpus=%d gomaxprocs=%d)",
				p.MultiTopicSpeedup, best.Workers, gates.wallSpeedup, p.Machine.CPUs, p.Machine.GOMAXPROCS)
		}
		fmt.Printf("gate ok: multi-topic wall speedup %.2fx at workers=%d >= %.2fx\n", p.MultiTopicSpeedup, best.Workers, gates.wallSpeedup)
	}
	if gates.maxNSRatio > 0 {
		if report.Baseline == nil {
			return fmt.Errorf("gate: -bench-gate-max-ns-ratio needs -bench-baseline")
		}
		ratio := report.Current.Serving.NSPerRow / report.Baseline.Serving.NSPerRow
		if ratio > gates.maxNSRatio {
			return fmt.Errorf("gate: serving ns/row %.1f is %.3fx baseline %.1f > allowed %.3fx",
				report.Current.Serving.NSPerRow, ratio, report.Baseline.Serving.NSPerRow, gates.maxNSRatio)
		}
		fmt.Printf("gate ok: serving ns/row ratio %.3fx <= %.3fx\n", ratio, gates.maxNSRatio)
	}
	return nil
}
