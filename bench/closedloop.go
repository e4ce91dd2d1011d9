package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/cq"
	"repro/internal/service"
	"repro/internal/workload"
)

// params are the knobs the modes (driver run, full run, smoke) set; none of
// them reaches the engine.
type params struct {
	Seed    uint64
	Seconds float64
	// Pool is how many suite queries seed the keyword pool (14, or fewer in
	// smoke mode).
	Pool int
	// Setups is how many times set-up runs; setup_s is the median.
	Setups int
	// Laps cuts the timed part; each lap's own reading of a timing metric is
	// kept beside the run's.
	Laps int
	// Dir is the scratch directory for spill segments, journals and traces.
	Dir string
	// TraceOut receives the spans as JSON lines ("" = a file under Dir).
	TraceOut string
	// Log receives the human-readable report.
	Log func(format string, args ...any)
}

// outcome is what one run of one workload reports.
type outcome struct {
	Metrics   readings
	Attempted int
	Failed    int
	// Failures holds the first few check violations, for the report.
	Failures []string
}

func (o *outcome) fail(err error) {
	o.Failed++
	if len(o.Failures) < 5 {
		o.Failures = append(o.Failures, err.Error())
	}
}

// inproc is one in-process service with the front desk split off: the
// benchmark expands each search itself and submits the expanded query, the
// two steps of service.Service.Search (and what fleet.Frontend does), so it
// holds the conjunctive queries the correctness checks need.
type inproc struct {
	w        *workload.Workload
	svc      *service.Service
	exp      *service.Expander
	pool     [][]string
	spillDir string
}

func (e *inproc) search(s search) (*cq.UQ, *service.Result, error) {
	uq, err := e.exp.Expand(s.User, s.Keywords, topK)
	if err != nil {
		return nil, nil, err
	}
	res, err := e.svc.SearchUQ(context.Background(), uq)
	return uq, res, err
}

func (e *inproc) close() error {
	err := e.svc.Close()
	if e.spillDir != "" {
		os.RemoveAll(e.spillDir)
	}
	return err
}

// setupInfo is what a set-up cost.
type setupInfo struct {
	Seconds      float64
	Searches     int
	SourceTuples int64
}

// setupInproc generates the workload, builds the service and runs the
// warm-up passes (passes 0..Warmup-1 of the schedule). Its wall time, less
// the benchmark's own answer checks, is one setup_s sample.
func setupInproc(sp spec, p params, out *outcome) (*inproc, setupInfo, error) {
	start := time.Now()
	var checking time.Duration
	w, err := workload.GUS(1, sp.Scale)
	if err != nil {
		return nil, setupInfo{}, err
	}
	e := &inproc{w: w}
	if sp.Spill {
		if e.spillDir, err = os.MkdirTemp(p.Dir, "spill-"); err != nil {
			return nil, setupInfo{}, err
		}
	}
	cfg := sp.serviceConfig(p.Seed, e.spillDir)
	e.svc = service.New(w, cfg)
	e.exp = service.NewExpander(w, cfg)
	e.pool = keywordPool(w, p.Pool)
	info := setupInfo{}
	for pass := 0; pass < sp.Warmup; pass++ {
		for _, s := range passOf(e.pool, p.Seed, pass) {
			uq, res, err := e.search(s)
			t := time.Now()
			out.Attempted++
			info.Searches++
			if err != nil {
				out.fail(err)
			} else if err := checkAnswers(uq, res.Answers); err != nil {
				out.fail(err)
			}
			checking += time.Since(t)
		}
	}
	info.SourceTuples = e.svc.Stats().Work.TuplesConsumed()
	info.Seconds = (time.Since(start) - checking).Seconds()
	return e, info, nil
}

// liveHeap forces collection and reads what is still held. It collects twice:
// the first cycle only queues finalizers and empties pools, whose memory the
// second one frees.
func liveHeap() runtime.MemStats {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m
}

// lapStats is one lap of a timed part: the latencies of its passes in ms, one
// row per pass, one column per position of the cycle (the same keyword set in
// every pass).
type lapStats struct {
	Passes [][]float64
}

// target is what the end-to-end run drives: an in-process service or a fleet.
type target interface {
	// pose poses one search and returns its latency and, checked after the
	// clock stopped, whether its answers are well formed.
	pose(search) (time.Duration, error)
	// verify runs after the timed part; pass is the next unused pass.
	verify(p params, pass int, out *outcome)
	keywordSets() [][]string
	close() error
}

func (e *inproc) keywordSets() [][]string { return e.pool }

func (e *inproc) pose(s search) (time.Duration, error) {
	t := time.Now()
	uq, res, err := e.search(s)
	d := time.Since(t)
	if err != nil {
		return d, err
	}
	return d, checkAnswers(uq, res.Answers)
}

// verify poses one more pass, untimed, and compares each answer list with
// ground truth, on the deepest state the run reaches.
func (e *inproc) verify(p params, pass int, out *outcome) {
	for _, s := range passOf(e.pool, p.Seed, pass) {
		uq, res, err := e.search(s)
		out.Attempted++
		if err != nil {
			out.fail(err)
		} else if err := checkOracle(e.w, uq, answerScores(res.Answers)); err != nil {
			out.fail(err)
		}
	}
	st := e.svc.Stats()
	if d := st.Shards[0].StateRows - st.Shards[0].StateRowsAudit; d != 0 {
		out.fail(fmt.Errorf("state ledger reads %d rows off its audit", d))
	}
}

// runEndToEnd is the untraced run of a workload: set up p.Setups times
// keeping the last, pose whole passes one search at a time for p.Seconds cut
// into p.Laps laps, then let the target verify itself.
func runEndToEnd(sp spec, p params) (*outcome, error) {
	out := &outcome{Metrics: readings{}}
	var t target
	var setups []float64
	var info setupInfo
	for i := 0; i < p.Setups; i++ {
		if t != nil {
			if err := t.close(); err != nil {
				return nil, err
			}
		}
		var err error
		if sp.Fleet {
			t, info, err = setupFleet(sp, p, out, false, i == p.Setups-1)
		} else {
			t, info, err = setupInproc(sp, p, out)
		}
		if err != nil {
			return nil, err
		}
		setups = append(setups, info.Seconds)
	}
	defer t.close()

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	laps, pass := timedPasses(p, sp.Warmup, t.pose, t.keywordSets(), out)
	runtime.ReadMemStats(&m1)
	m2 := liveHeap()

	timed := (pass - sp.Warmup) * len(t.keywordSets())
	m := out.Metrics
	reportTimings(m, laps, p)
	m.set(endToEnd, "source_tuples_per_search", ratio(float64(info.SourceTuples), float64(info.Searches)))
	m.set(endToEnd, "alloc_kb_per_search", ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/1024, float64(timed)))
	m.set(endToEnd, "live_heap_mb", float64(m2.HeapAlloc)/(1<<20))
	m.set(endToEnd, "setup_s", median(setups), setups...)
	t.verify(p, pass, out)
	p.Log("  timed %d searches in %d laps; set-up %d searches, %d source tuples; set-ups %.3f s",
		timed, len(laps), info.Searches, info.SourceTuples, setups)
	return out, nil
}

// timedPasses poses whole passes of the schedule, starting at pass first, for
// p.Seconds cut into p.Laps laps. Lap i ends at the first pass boundary at or
// after its share of the time, (i+1)/Laps of p.Seconds, and holds at least
// one pass: every lap is whole passes (the same keyword sets in the same order)
// and the part overruns by at most one pass. do poses one search and returns
// its latency; what it checks after stopping its clock is not counted. It
// returns the laps and the next unused pass number.
func timedPasses(p params, first int, do func(search) (time.Duration, error), pool [][]string, out *outcome) ([]lapStats, int) {
	share := time.Duration(p.Seconds / float64(p.Laps) * float64(time.Second))
	laps := make([]lapStats, 0, p.Laps)
	pass := first
	var elapsed time.Duration
	for lap := 1; lap <= p.Laps; lap++ {
		var l lapStats
		for len(l.Passes) == 0 || elapsed < time.Duration(lap)*share {
			row := make([]float64, 0, len(pool))
			for _, s := range passOf(pool, p.Seed, pass) {
				d, err := do(s)
				out.Attempted++
				if err != nil {
					out.fail(err)
				}
				elapsed += d
				row = append(row, float64(d)/float64(time.Millisecond))
			}
			l.Passes = append(l.Passes, row)
			pass++
		}
		laps = append(laps, l)
	}
	return laps, pass
}

// fastest returns, per position of the cycle, the smallest latency any of
// the passes measured there.
func fastest(passes [][]float64) []float64 {
	best := append([]float64(nil), passes[0]...)
	for _, row := range passes[1:] {
		for i, v := range row {
			best[i] = min(best[i], v)
		}
	}
	return best
}

// timingStats reads the three timing metrics off one latency per position of
// the cycle: the mean of the middle half, the mean of the slowest tenth, and
// what one client in a closed loop completes per second, its wall time being
// the sum of its latencies. The latency statistics are means over ranges of
// the sorted latencies, not single percentiles: a pass is 42 fixed searches
// whose costs span 0.2 ms to 150 ms with gaps between neighbours, so p50 sits
// on a 12-to-22 ms step on the scan workloads and flipped between its two
// sides from seed to seed.
func timingStats(lat []float64) (mid, tail, rate float64) {
	sort.Float64s(lat)
	n := len(lat)
	sum := 0.0
	for _, v := range lat {
		sum += v
	}
	return mean(lat[n/4 : n-n/4]), mean(lat[n-(n+9)/10:]), ratio(float64(n), sum/1e3)
}

// reportTimings sets the three timing metrics from the laps. Every pass poses
// the same searches, so each position of the cycle is timed once per pass,
// and its latency is the fastest of those repetitions: the host this runs on
// is shared, what it adds to a search is never negative and comes in bursts
// of tens of milliseconds, and over twelve runs the medians of the same
// latencies spread 16 % where their minima spread 4 % (see README.md). A
// metric is timingStats of the fastest latencies over the whole timed part;
// the same over each lap alone is kept beside it, to show how far the machine
// moved during the run.
func reportTimings(m readings, laps []lapStats, p params) {
	var mid, tail, rate, raw []float64
	var all [][]float64
	for _, l := range laps {
		a, b, c := timingStats(fastest(l.Passes))
		mid, tail, rate = append(mid, a), append(tail, b), append(rate, c)
		all = append(all, l.Passes...)
		for _, row := range l.Passes {
			raw = append(raw, row...)
		}
	}
	a, b, c := timingStats(fastest(all))
	m.set(endToEnd, "search_mid_ms", a, mid...)
	m.set(endToEnd, "search_tail_ms", b, tail...)
	m.set(endToEnd, "searches_per_s", c, rate...)
	p.Log("  %d passes; latency as measured over all %d timed searches: mean %.3f, p50 %.3f, p90 %.3f ms (not gated: see reportTimings)",
		len(all), len(raw), mean(raw), percentile(raw, 50), percentile(raw, 90))
}
