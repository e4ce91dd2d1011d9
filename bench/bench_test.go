package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchmarkJSON pins BENCHMARK.json to the tables the program emits from.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var gated []spec
	for _, sp := range specs {
		if sp.Ungated == "" {
			gated = append(gated, sp)
		}
	}
	if len(doc.Workloads) != len(gated) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(gated))
	}
	for i, w := range doc.Workloads {
		if w.Name != gated[i].Name || w.Why != gated[i].Why {
			t.Errorf("workload %d is %+v, want %s: %s", i, w, gated[i].Name, gated[i].Why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d] is %+v, want %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.Bound) {
				t.Errorf("%s[%d] %s: bound %v, want %v (bounded=%v)", kind, i, g.Name, g.Bound, w.Bound, bounded)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v", doc.Paths)
	}
}

// TestSmoke runs every workload, untraced and traced, at smoke size: every
// metric of the table is emitted once and finite, no search fails, and the
// layer self times account for the traced search time.
func TestSmoke(t *testing.T) {
	p := params{Seed: 1, Pool: poolBase, Setups: 3, Laps: 5, Dir: t.TempDir(), Log: t.Logf}.smoke()
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			out, err := runWorkload(sp, p, traced)
			if err != nil {
				t.Fatal(err)
			}
			defs := defsFor(traced)
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, table has %d", sp.Name, traced, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				r, ok := out.Metrics[d.Name]
				if !ok || r.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s: emitted=%v unit %q", sp.Name, traced, d.Name, ok, r.Unit)
				}
				if !traced && r.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %v", sp.Name, d.Name, r.Value)
				}
			}
			if out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d searches failed: %v", sp.Name, traced, out.Failed, out.Attempted, out.Failures)
			}
			if cov := out.Metrics["trace.coverage"].Value; traced && !sp.Fleet && (cov < 0.9 || cov > 1.1) {
				t.Errorf("%s: layer self times are %.3f of the traced search time", sp.Name, cov)
			}
		}
	}
}

func TestCompare(t *testing.T) {
	write := func(name string, mid float64, laps []float64) string {
		f := runFile{Seed: 1, Seconds: 1, Workloads: map[string]*workloadFile{}}
		for _, sp := range specs {
			e := readings{}
			for _, d := range endToEnd {
				e[d.Name] = reading{Value: 10, Unit: d.Unit}
			}
			e["search_mid_ms"] = reading{Value: mid, Unit: "ms", Laps: laps}
			f.Workloads[sp.Name] = &workloadFile{EndToEnd: e, Attempted: 1}
		}
		data, err := json.Marshal(&f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 10, []float64{9.9, 10, 10.1})
	for _, tc := range []struct {
		name string
		path string
		code int
		want string
	}{
		{"same", write("b.json", 10.2, []float64{10.1, 10.2, 10.3}), 0, "agree"},
		{"slower", write("c.json", 14, []float64{13.9, 14, 14.1}), 1, "DISAGREE"},
		{"faster", write("d.json", 7, []float64{6.9, 7, 7.1}), 0, "b better"},
		{"noisy", write("e.json", 14, []float64{8, 14, 20}), 0, "unresolved"},
	} {
		var buf bytes.Buffer
		if code := compareFiles(base, tc.path, &buf); code != tc.code {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, code, tc.code, buf.String())
		}
		if !strings.Contains(buf.String(), tc.want) {
			t.Errorf("%s: report lacks %q:\n%s", tc.name, tc.want, buf.String())
		}
	}
}
