package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// runFile is what a full run writes with -out and -compare reads.
type runFile struct {
	Seed      uint64                   `json:"seed"`
	Seconds   float64                  `json:"seconds"`
	Workloads map[string]*workloadFile `json:"workloads"`
}

type workloadFile struct {
	EndToEnd  readings `json:"end_to_end"`
	PerLayer  readings `json:"per_layer"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
}

// fullRun runs every workload untraced for the end-to-end metrics, then every
// workload traced for the per-layer metrics, prints every metric by name and
// returns non-zero when any answer failed its checks.
func fullRun(p params, outPath string) int {
	file := runFile{Seed: p.Seed, Seconds: p.Seconds, Workloads: map[string]*workloadFile{}}
	failed := 0
	for _, traced := range []bool{false, true} {
		defs := defsFor(traced)
		for _, sp := range specs {
			p.Log("%s (traced=%v): %s", sp.Name, traced, sp.Why)
			if sp.Ungated != "" {
				p.Log("  not in BENCHMARK.json: %s", sp.Ungated)
			}
			out, err := runWorkload(sp, p, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			printReadings(p, sp.Name, defs, out)
			wf := file.Workloads[sp.Name]
			if wf == nil {
				wf = &workloadFile{}
				file.Workloads[sp.Name] = wf
			}
			if traced {
				wf.PerLayer = out.Metrics
			} else {
				wf.EndToEnd = out.Metrics
			}
			wf.Attempted += out.Attempted
			wf.Failed += out.Failed
			failed += out.Failed
		}
	}
	if outPath != "" {
		data, err := json.MarshalIndent(&file, "", " ")
		if err == nil {
			err = os.WriteFile(outPath, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if failed > 0 {
		p.Log("FAILED: %d searches failed their checks", failed)
		return 1
	}
	return 0
}

// compareFiles reports, per workload and end-to-end metric, both files'
// values, the ratio b/a and whether b is within the metric's bound of a. A
// metric whose lap quartiles spread wider than its bound in either file is
// unresolved: the files cannot tell a regression from noise there. The exit
// code is non-zero on a disagreement or a failed search.
func compareFiles(aPath, bPath string, w io.Writer) int {
	a, err := readRunFile(aPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readRunFile(bPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	code := 0
	fmt.Fprintf(w, "%-14s %-26s %14s %14s %9s  %s\n", "workload", "metric", "a", "b", "b/a", "verdict (base: a)")
	for _, sp := range specs {
		wa, wb := a.Workloads[sp.Name], b.Workloads[sp.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "%-14s missing from a file\n", sp.Name)
			code = 1
			continue
		}
		if wa.Failed > 0 || wb.Failed > 0 {
			fmt.Fprintf(w, "%-14s failed searches: a %d of %d, b %d of %d\n", sp.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			code = 1
		}
		for _, d := range endToEnd {
			ra, rb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			verdict := "agree"
			worse := ratio(rb.Value, ra.Value) - 1
			if d.Better == "higher" {
				worse = -worse
			}
			switch {
			case spread(ra) > d.Bound || spread(rb) > d.Bound:
				verdict = fmt.Sprintf("unresolved (lap spread %.1f%% / %.1f%% over the %.0f%% bound)", 100*spread(ra), 100*spread(rb), 100*d.Bound)
			case worse > d.Bound:
				verdict = fmt.Sprintf("DISAGREE (b worse by %.1f%%, bound %.0f%%)", 100*worse, 100*d.Bound)
				code = 1
			case -worse > d.Bound:
				verdict = fmt.Sprintf("b better by %.1f%%", -100*worse)
			}
			fmt.Fprintf(w, "%-14s %-26s %14.4f %14.4f %9.4f  %s\n", sp.Name, d.Name, ra.Value, rb.Value, ratio(rb.Value, ra.Value), verdict)
		}
	}
	return code
}

func readRunFile(path string) (runFile, error) {
	var f runFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// spread is the distance between a reading's lap quartiles as a share of its
// value; 0 for a count, which has no laps.
func spread(r reading) float64 {
	if len(r.Laps) < 2 {
		return 0
	}
	q1, q3 := quartiles(r.Laps)
	return math.Abs(ratio(q3-q1, r.Value))
}
