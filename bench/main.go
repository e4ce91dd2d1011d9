// Command bench is the repository's benchmark: four keyword-search workloads
// measured end to end and layer by layer, timed from outside the engine. See
// README.md for the workloads, the metrics and what each layer metric is
// expected to move.
//
//	bash bench/run.sh --workload repeat_warm --seed 1 --seconds 30 --trace 0   one run, as the driver makes it
//	bash bench/run.sh -seed 1 -out a.json                                      all workloads, untraced then traced
//	bash bench/run.sh -smoke                                                   the same at about 1/20 size
//	bash bench/run.sh -compare a.json b.json                                   two result files against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// result is the last line of a driver run's standard output.
type result struct {
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   readings `json:"metrics"`
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "run one workload and print one JSON result line (default: all, as a report)")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs: service seed, pool order, users, arrival schedule")
	seconds := fs.Float64("seconds", 30, "how long each run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced run")
	traceOut := fs.String("trace-out", "", "file the spans are written to as JSON lines (default: a file in the scratch directory)")
	smoke := fs.Bool("smoke", false, "every workload at about 1/20 size, both passes, in under 10 s")
	compare := fs.Bool("compare", false, "compare two result files (arguments: a.json b.json) against the bounds")
	outFile := fs.String("out", "", "write the full run's results to this file, for -compare")
	workers := fs.Int("workers", 1, "service.Config.Workers; only 1 can be benchmarked (see README.md)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workers != 1 {
		fmt.Fprintln(os.Stderr, "bench: Workers > 1 cannot be benchmarked: the parallel executor races (concurrent map read and map write in operator.(*AccessModule).AppendProbe under atc.runRoundStealing); see bench/README.md")
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace is 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}

	dir, err := scratchDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	p := params{
		Seed: *seed, Seconds: *seconds, Pool: poolBase, Setups: 3, Laps: 5,
		Dir: dir, TraceOut: *traceOut,
		Log: func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
	}
	if *smoke {
		p = p.smoke()
	}
	printMachine(p)

	if *workloadName != "" {
		sp, err := specByName(*workloadName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		out, err := runWorkload(sp, p, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		printReadings(p, sp.Name, defsFor(*trace == 1), out)
		line, err := json.Marshal(result{Correct: out.Failed == 0, Attempted: out.Attempted, Failed: out.Failed, Metrics: stripLaps(out.Metrics)})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
		if out.Failed > 0 {
			return 1
		}
		return 0
	}
	return fullRun(p, *outFile)
}

// smoke shrinks a run to about 1/20: a pool of 2 suite queries (6 keyword
// sets), a fraction of a second of measurement, one set-up.
func (p params) smoke() params {
	p.Seconds, p.Pool, p.Setups, p.Laps = 0.3, 2, 1, 3
	return p
}

// runWorkload makes one run: the end-to-end run with tracing off, or the
// traced run that yields the per-layer metrics.
func runWorkload(sp spec, p params, traced bool) (*outcome, error) {
	var out *outcome
	var err error
	switch {
	case !traced:
		out, err = runEndToEnd(sp, p)
	case sp.Fleet:
		out, err = runFleetTraced(sp, p)
	default:
		out, err = runTraced(sp, p)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.Name, err)
	}
	defs := defsFor(traced)
	for _, d := range defs {
		r, ok := out.Metrics[d.Name]
		if !ok {
			// A layer this workload never enters.
			out.Metrics.set(defs, d.Name, 0)
			continue
		}
		if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s is not finite", sp.Name, d.Name)
		}
	}
	return out, nil
}

// scratchDir is where a run keeps spill segments, journals and traces: under
// the working directory, so a run reads and writes only inside its checkout.
func scratchDir() (string, error) {
	base := ".bench_build"
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

func printMachine(p params) {
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	p.Log("machine: nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s; Workers=1 seed=%d seconds=%g",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit, p.Seed, p.Seconds)
}

// printReadings prints every metric by name with its unit, and the lap
// quartiles beside a timing metric.
func printReadings(p params, workload string, defs []metricDef, out *outcome) {
	for _, d := range defs {
		r := out.Metrics[d.Name]
		if len(r.Laps) > 1 {
			q1, q3 := quartiles(r.Laps)
			p.Log("%-14s %-40s %14.4f %-6s laps q1 %.4f q3 %.4f (n=%d)", workload, d.Name, r.Value, r.Unit, q1, q3, len(r.Laps))
		} else {
			p.Log("%-14s %-40s %14.4f %s", workload, d.Name, r.Value, r.Unit)
		}
	}
	p.Log("%-14s attempted %d failed %d", workload, out.Attempted, out.Failed)
	for _, f := range out.Failures {
		p.Log("%-14s FAILED: %s", workload, f)
	}
}

// stripLaps drops the lap values: the driver's result line has exactly a
// value and a unit per metric.
func stripLaps(m readings) readings {
	out := make(readings, len(m))
	for k, r := range m {
		out[k] = reading{Value: r.Value, Unit: r.Unit}
	}
	return out
}
