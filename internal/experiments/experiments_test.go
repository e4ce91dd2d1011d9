package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"regexp"
	"strings"
	"testing"

	"repro/internal/exec"
)

func testCfg() Config {
	return Config{Instances: []int{1}, Seeds: []uint64{1}}.Defaults()
}

// frozenOutput pins each §7 driver's Format() at testCfg: everything in it
// (counts, virtual-clock seconds) is seeded, so an engine change that moves a
// digest changed which rows flow or when, not just what they cost. Re-record
// one only with the reason it moved.
//
// fig7, fig8, fig9, fig10 and fig12 were last re-recorded when a CQ's
// thresholds began to watch the streams that really feed its endpoint node
// instead of the streams the optimizer chose for it. On a warm graph the
// endpoint can land on an existing join fed by other streams; watching the
// chosen ones let a threshold fall while the real inputs had rows to come,
// so answers were lost, or found only by reading further. The strategies that
// keep one graph across queries move: ATC-FULL's fig7 total 63.6 → 60.3 s
// (it wins 8 of 15 queries, was 6), fig9's batch 18 591 → 17 601 tuples,
// fig10's FULL 15:5 ratio 2.14 → 2.03, and fig12's ATC-CL late-query total
// 200.7 → 288.2 s (ATC-UQ's is 342.1 s).
var frozenOutput = map[string]string{
	"table4": "dec2777745eee4e0d78c41bae8830967b3dd5ad285b92ff3d13ffb8ed41868bc",
	"fig7":   "f4aa0547249be005369a71e3287836b89b3d46e2f76e89784dd309fdc4a16c4b",
	"fig8":   "4d34da909f5315547b03040e17623f69587547ea7b91dd4fa9a57124a8f518d0",
	"fig9":   "9ca0cb4d4fa72bb935ab0671c18ec1ebd63b965020d9a211cfdc590ff522a1f4",
	"fig10":  "5685a3585b386e16996adb3d03c033e5e9a8d83d23bd142d2e4e2cdc71d11b37",
	"fig11":  "ae0fb03a73a700434368c6cb0ed436069d59f275c11707f76b8ce3d05fd6ad15",
	"fig12":  "5d42b80033572268fda33582e6cc1d8786da8155f4c688a85d8230dec366be80",
}

// durationToken matches rendered time.Duration values ("16.29ms", "1.52s")
// together with their column padding (the padding width tracks the rendered
// length). Figure 11 reports measured optimization wall time — the one
// real-time column in otherwise virtual-clock output — so the digest masks it.
var durationToken = regexp.MustCompile(`[ \t]*\d+(\.\d+)?(ns|µs|ms|m|h|s)\b`)

func checkFrozen(t *testing.T, name, formatted string) {
	t.Helper()
	sum := sha256.Sum256([]byte(durationToken.ReplaceAllString(formatted, " <dur>")))
	if got := hex.EncodeToString(sum[:]); got != frozenOutput[name] {
		t.Errorf("%s output digest %s, frozen %s", name, got, frozenOutput[name])
	}
}

// TestTable4Shape: far fewer conjunctive queries execute than are generated
// (the paper reports 3.25–13.75 of ≤20).
func TestTable4Shape(t *testing.T) {
	res, err := Table4(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		if res.AvgCQs[i] <= 0 {
			t.Errorf("UQ%d executed no CQs", i+1)
		}
		if res.AvgCQs[i] > res.GeneratedCQ[i]+1e-9 {
			t.Errorf("UQ%d executed %v of %v generated", i+1, res.AvgCQs[i], res.GeneratedCQ[i])
		}
	}
	if !strings.Contains(res.Format(), "Table 4") {
		t.Error("format broken")
	}
	checkFrozen(t, "table4", res.Format())
}

// TestFigure7Shape: ATC-UQ ≤ ATC-CQ on average; ATC-CL is the best shared
// configuration; ATC-FULL wins on some but not most queries (§7.1).
func TestFigure7Shape(t *testing.T) {
	res, err := Figure7(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkFrozen(t, "fig7", res.Format())
	var sum [4]float64
	fullWins := 0
	for i := 0; i < 15; i++ {
		for si, s := range Strategies {
			v := res.Seconds[s][i]
			// The graph-sharing strategies may answer a query wholly from
			// retained state — re-binding parked segments costs no virtual
			// time — so it completes at its admission instant.
			reuses := s == exec.StrategyFull || s == exec.StrategyCL
			if v < 0 || (v == 0 && !reuses) {
				t.Fatalf("%v UQ%d latency %v", s, i+1, v)
			}
			sum[si] += v
		}
		if res.Seconds[exec.StrategyFull][i] < res.Seconds[exec.StrategyUQ][i] {
			fullWins++
		}
	}
	cqSum, uqSum, fullSum, clSum := sum[0], sum[1], sum[2], sum[3]
	if uqSum > cqSum*1.05 {
		t.Errorf("ATC-UQ total %.1fs should not exceed ATC-CQ %.1fs", uqSum, cqSum)
	}
	if clSum > uqSum*1.10 {
		t.Errorf("ATC-CL total %.1fs should be competitive with ATC-UQ %.1fs", clSum, uqSum)
	}
	if fullWins == 0 || fullWins == 15 {
		t.Errorf("ATC-FULL wins %d/15 queries; the paper reports a minority (5/15)", fullWins)
	}
	_ = fullSum
	t.Logf("totals: CQ=%.1fs UQ=%.1fs FULL=%.1fs CL=%.1fs, FULL wins %d/15", cqSum, uqSum, fullSum, clSum, fullWins)
}

// TestFigure8Shape: shared configurations shift time away from stream reads.
func TestFigure8Shape(t *testing.T) {
	res, err := Figure8(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkFrozen(t, "fig8", res.Format())
	for _, s := range Strategies {
		f := res.Fractions[s]
		total := f[0] + f[1] + f[2]
		if total < 0.999 || total > 1.001 {
			t.Errorf("%v fractions sum to %v", s, total)
		}
		if f[0] <= 0 || f[1] <= 0 {
			t.Errorf("%v missing stream/probe time: %v", s, f)
		}
	}
	// Stream-read share highest for ATC-CQ (it re-reads everything).
	cq := res.Fractions[exec.StrategyCQ][0]
	full := res.Fractions[exec.StrategyFull][0]
	if full > cq+0.05 {
		t.Errorf("ATC-FULL stream share %v should not exceed ATC-CQ %v", full, cq)
	}
}

// TestFigure9Shape: both optimization regimes complete every query, and
// neither degenerates (each stays within 2× of the other). The paper found
// batch optimization clearly better; in this implementation cross-time state
// reuse (grafting onto in-flight plans) captures most of proactive batching's
// benefit, so the regimes land close together — EXPERIMENTS.md discusses the
// divergence.
func TestFigure9Shape(t *testing.T) {
	res, err := Figure9(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkFrozen(t, "fig9", res.Format())
	var single, batch float64
	for i := 0; i < 15; i++ {
		if res.SingleOpt[i] < 0 || res.BatchOpt[i] < 0 {
			// Zero is legitimate: a query fully answered from reused state
			// completes at its admission instant.
			t.Fatalf("UQ%d negative latency", i+1)
		}
		single += res.SingleOpt[i]
		batch += res.BatchOpt[i]
	}
	if batch > single*2 || single > batch*2 {
		t.Errorf("regimes diverged beyond 2x: single=%.1fs batch=%.1fs", single, batch)
	}
	if res.SingleWork <= 0 || res.BatchWork <= 0 {
		t.Error("missing work counters")
	}
	t.Logf("single=%.1fs (%.0f tuples) batch=%.1fs (%.0f tuples)", single, res.SingleWork, batch, res.BatchWork)
}

// TestFigure10Shape: work ordering FULL < CL < UQ < CQ, with the 15:5 ratio
// largest for the non-reusing configurations (paper: ≈3× for CQ/UQ, ≈1.75×
// for FULL, ≈2× for CL).
func TestFigure10Shape(t *testing.T) {
	res, err := Figure10(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkFrozen(t, "fig10", res.Format())
	cq15 := res.Tuples15[exec.StrategyCQ]
	uq15 := res.Tuples15[exec.StrategyUQ]
	full15 := res.Tuples15[exec.StrategyFull]
	cl15 := res.Tuples15[exec.StrategyCL]
	if !(full15 < cl15 && cl15 < uq15 && uq15 < cq15) {
		t.Errorf("work ordering violated: CQ=%v UQ=%v CL=%v FULL=%v", cq15, uq15, cl15, full15)
	}
	ratioCQ := cq15 / res.Tuples5[exec.StrategyCQ]
	ratioFull := full15 / res.Tuples5[exec.StrategyFull]
	if ratioFull >= ratioCQ {
		t.Errorf("reuse should flatten FULL's growth: CQ ratio %.2f vs FULL %.2f", ratioCQ, ratioFull)
	}
	t.Logf("15:5 ratios: CQ=%.2f UQ=%.2f FULL=%.2f CL=%.2f",
		ratioCQ, uq15/res.Tuples5[exec.StrategyUQ], ratioFull, cl15/res.Tuples5[exec.StrategyCL])
}

// TestFigure11Shape: optimization time grows with candidate count.
func TestFigure11Shape(t *testing.T) {
	res, err := Figure11(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkFrozen(t, "fig11", res.Format())
	if len(res.Samples) == 0 {
		t.Fatal("no optimizer samples")
	}
	for _, s := range res.Samples {
		if s.Candidates < 0 || s.Wall < 0 || s.SearchNodes <= 0 {
			t.Errorf("bad sample %+v", s)
		}
	}
	// Search effort (nodes) must grow from the smallest to the largest
	// candidate count observed.
	first, last := res.Samples[0], res.Samples[len(res.Samples)-1]
	if last.Candidates > first.Candidates && last.SearchNodes < first.SearchNodes {
		t.Errorf("search effort did not grow: %d cands/%d nodes -> %d cands/%d nodes",
			first.Candidates, first.SearchNodes, last.Candidates, last.SearchNodes)
	}
}

// TestFigure12Shape: on the larger real-data proxy, ATC-UQ ≤ ATC-CQ and
// ATC-CL improves the late queries (§7.5: "especially in queries 7-15").
func TestFigure12Shape(t *testing.T) {
	res, err := Figure12(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkFrozen(t, "fig12", res.Format())
	if res.Clusters <= 1 || res.Clusters >= 15 {
		t.Errorf("ATC-CL used %d plan graphs; the paper found a handful", res.Clusters)
	}
	var cqSum, uqSum, clLate, uqLate float64
	for i := 0; i < 15; i++ {
		cqSum += res.Seconds[exec.StrategyCQ][i]
		uqSum += res.Seconds[exec.StrategyUQ][i]
		if i >= 7 {
			clLate += res.Seconds[exec.StrategyCL][i]
			uqLate += res.Seconds[exec.StrategyUQ][i]
		}
	}
	if uqSum > cqSum*1.05 {
		t.Errorf("pfam: ATC-UQ %.1fs should not exceed ATC-CQ %.1fs", uqSum, cqSum)
	}
	if clLate > uqLate*1.05 {
		t.Errorf("pfam: ATC-CL late-query total %.1fs should beat ATC-UQ %.1fs", clLate, uqLate)
	}
	t.Logf("pfam: CQ=%.1fs UQ=%.1fs, late: CL=%.1fs UQ=%.1fs (clusters=%d)", cqSum, uqSum, clLate, uqLate, res.Clusters)
}
