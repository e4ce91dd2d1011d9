// Command qsys-bench regenerates every table and figure of the paper's
// evaluation (§7) and prints them in the paper's format.
//
// Usage:
//
//	qsys-bench [-full] [-only table4|fig7|fig8|fig9|fig10|fig11|fig12]
//	           [-cpuprofile cpu.out] [-memprofile mem.out]
//
// -cpuprofile / -memprofile write standard Go pprof profiles covering the
// whole run, so hot-path work is inspectable with `go tool pprof`.
//
// The default configuration preserves every reported shape at laptop scale;
// -full mirrors the paper's methodology (4 synthetic instances × 3 runs).
//
// Serving performance is measured by the benchmark in bench/ (see
// bench/README.md), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
)

func main() {
	full := flag.Bool("full", false, "run the paper's full methodology (4 instances × 3 runs; slower)")
	only := flag.String("only", "", "run a single experiment: table4, fig7, fig8, fig9, fig10, fig11, fig12")
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
