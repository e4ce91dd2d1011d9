// Package benchrun is the repository's performance-trajectory harness: it
// runs a fixed, seeded serving workload through internal/service plus the §7
// experiment drivers, and reduces the run to machine-readable numbers (wall
// time, ns/row, allocs/row, tuple counters, latency percentiles) together
// with output digests. Every BENCH_*.json checked into the repository root is
// one emission of this harness; comparing the "current" block of one PR
// against the next gives the perf trajectory, and the digests prove that an
// optimization changed cost, not semantics.
package benchrun

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"regexp"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/workload"
)

// Schema tags the JSON layout emitted by this package.
const Schema = "qsys-bench/v1"

// Config fixes the seeded serving workload. The zero value is replaced by
// Defaults; keep the defaults stable across PRs or trajectory points stop
// being comparable.
type Config struct {
	// Seed drives the service's deterministic delay and coefficient draws.
	Seed uint64 `json:"seed"`
	// Rounds replays the workload's 15-query suite this many times, so later
	// rounds exercise state reuse against retained plan-graph state.
	Rounds int `json:"rounds"`
	// Users cycles searches across this many distinct users (distinct scoring
	// coefficients, §2.1).
	Users int `json:"users"`
	// K is the top-k cut-off per search.
	K int `json:"k"`
	// Experiments enables the §7 driver pass (Table 4 and Figures 7–12 at the
	// single-instance scale); disable for quick smoke runs.
	Experiments bool `json:"experiments"`
	// BudgetRows is the bounded-budget profile's row budget (§6.3): the
	// serving workload is re-run unbounded, with discard eviction, and with
	// spill eviction at this budget, comparing source-tuple counts and
	// result digests. 0 skips the profile.
	BudgetRows int `json:"budget_rows,omitempty"`
	// RoutingShards is the routing profile's shard count (§6.1 at serving
	// scale): the overlapping-topic workload is run once under hash routing
	// and once under affinity routing, comparing source-tuple counts and
	// result digests. 0 skips the profile.
	RoutingShards int `json:"routing_shards,omitempty"`
	// ParallelWorkers is the parallelism profile's worker count: the
	// multi-topic (many-component) and high-overlap (one-component)
	// workloads are executed at -workers 1 and -workers N inside one
	// engine, comparing wall clock, result digests and work counters.
	// 0 skips the profile.
	ParallelWorkers int `json:"parallel_workers,omitempty"`
	// FleetShards is the distributed-tier parity profile's shard-slot count:
	// the routing workload runs once inside a single process and once as a
	// stateless front-end over that many shard HTTP servers, comparing result
	// digests byte-for-byte, plus a live topic-migration probe that must cost
	// zero extra source-stream tuples. 0 skips the profile.
	FleetShards int `json:"fleet_shards,omitempty"`
	// SaturationRequests is the overload-control profile's arrival count: an
	// unloaded control run fixes per-arrival answers and the capacity knee,
	// then seeded open-loop Poisson arrivals are offered at 0.5x and 2x the
	// knee under admission control, gating the degradation contract (no
	// wrong answers, goodput holds, served p99 bounded by the deadline).
	// 0 skips the profile.
	SaturationRequests int `json:"saturation_requests,omitempty"`
}

// Defaults fills zero fields with the canonical trajectory configuration.
func (c Config) Defaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Rounds == 0 {
		c.Rounds = 4
	}
	if c.Users == 0 {
		c.Users = 3
	}
	if c.K == 0 {
		c.K = 50
	}
	if c.BudgetRows == 0 {
		c.BudgetRows = DefaultBudgetRows
	}
	if c.RoutingShards == 0 {
		c.RoutingShards = DefaultRoutingShards
	}
	if c.ParallelWorkers == 0 {
		c.ParallelWorkers = DefaultParallelWorkers
	}
	if c.FleetShards == 0 {
		c.FleetShards = DefaultRoutingShards
	}
	if c.SaturationRequests == 0 {
		c.SaturationRequests = DefaultSaturationRequests
	}
	return c
}

// DefaultBudgetRows is the canonical row budget of the bounded-budget
// profile: small enough that the 4-round serving workload must evict, large
// enough that every query still completes. Keep stable across PRs.
const DefaultBudgetRows = 2000

// Counters is the JSON form of the engine work counters. These must be
// identical across an optimization PR's baseline and current runs: the
// overhaul changes cost, not how many tuples flow.
type Counters struct {
	StreamTuples   int64 `json:"stream_tuples"`
	ProbeCalls     int64 `json:"probe_calls"`
	ProbeCacheHits int64 `json:"probe_cache_hits"`
	ProbeTuples    int64 `json:"probe_tuples"`
	JoinInserts    int64 `json:"join_inserts"`
	JoinProbes     int64 `json:"join_probes"`
	ReplayTuples   int64 `json:"replay_tuples"`
	ResultsEmitted int64 `json:"results_emitted"`

	// State-lifecycle traffic (§6.3 disk tier); zero on unbounded runs, so
	// the counters-equal gate against pre-subsystem baselines still holds.
	SpillRowsWritten   int64 `json:"spill_rows_written,omitempty"`
	SpillRowsRead      int64 `json:"spill_rows_read,omitempty"`
	RevivalsFromSpill  int64 `json:"revivals_from_spill,omitempty"`
	RevivalsFromSource int64 `json:"revivals_from_source,omitempty"`
}

func countersOf(s metrics.Snapshot) Counters {
	return Counters{
		StreamTuples:   s.StreamTuples,
		ProbeCalls:     s.ProbeCalls,
		ProbeCacheHits: s.ProbeCacheHits,
		ProbeTuples:    s.ProbeTuples,
		JoinInserts:    s.JoinInserts,
		JoinProbes:     s.JoinProbes,
		ReplayTuples:   s.ReplayTuples,
		ResultsEmitted: s.ResultsEmitted,

		SpillRowsWritten:   s.SpillRowsWritten,
		SpillRowsRead:      s.SpillRowsRead,
		RevivalsFromSpill:  s.RevivalsFromSpill,
		RevivalsFromSource: s.RevivalsFromSource,
	}
}

// Rows is the per-row denominator: every tuple the middleware brought in or
// pushed through a join, live or replayed.
func (c Counters) Rows() int64 {
	return c.StreamTuples + c.ProbeTuples + c.JoinInserts + c.ReplayTuples
}

// Machine records the hardware context a profile block was measured on:
// runtime.NumCPU and the scheduler's GOMAXPROCS at measurement time. Every
// profile block carries one, because wall-clock numbers are only comparable
// between points taken on like machines; digests and counters are
// machine-independent, so a mismatch here never weakens a semantics gate.
type Machine struct {
	CPUs       int `json:"cpus"`
	GOMAXPROCS int `json:"gomaxprocs"`
}

func machineOf() Machine {
	return Machine{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

// Latency is the JSON form of an engine-latency distribution.
type Latency struct {
	Count  int64 `json:"count"`
	MeanNS int64 `json:"mean_ns"`
	P50NS  int64 `json:"p50_ns"`
	P95NS  int64 `json:"p95_ns"`
	P99NS  int64 `json:"p99_ns"`
	MaxNS  int64 `json:"max_ns"`
}

func latencyOf(s metrics.LatencyStats) Latency {
	return Latency{
		Count:  s.Count,
		MeanNS: int64(s.Mean),
		P50NS:  int64(s.P50),
		P95NS:  int64(s.P95),
		P99NS:  int64(s.P99),
		MaxNS:  int64(s.Max),
	}
}

// Serving is the measured outcome of the seeded serving workload.
type Serving struct {
	WallNS       int64   `json:"wall_ns"`
	Rows         int64   `json:"rows"`
	NSPerRow     float64 `json:"ns_per_row"`
	AllocsPerRow float64 `json:"allocs_per_row"`
	BytesPerRow  float64 `json:"bytes_per_row"`

	// Machine is zero when decoded from a point older than the field.
	Machine Machine `json:"machine"`

	Searches      int      `json:"searches"`
	Counters      Counters `json:"counters"`
	EngineLatency Latency  `json:"engine_latency"`

	// ResultDigest is a SHA-256 over every answer's rank, score, producing CQ
	// and base-tuple identities, in search order. It must not move across an
	// optimization PR.
	ResultDigest string `json:"result_digest"`
}

// Experiment is one §7 driver's wall time and output digest.
type Experiment struct {
	Name   string `json:"name"`
	WallNS int64  `json:"wall_ns"`
	// Digest is a SHA-256 of the driver's formatted output; the experiment
	// output is deterministic, so this is the byte-identical gate.
	Digest string `json:"digest"`
}

// Point is one measured trajectory point: serving numbers, the §7 pass, the
// bounded-budget state-lifecycle profile and the shard-routing profile.
type Point struct {
	GoVersion   string             `json:"go_version"`
	Config      Config             `json:"config"`
	Serving     Serving            `json:"serving"`
	Experiments []Experiment       `json:"experiments,omitempty"`
	Budget      *BudgetProfile     `json:"budget,omitempty"`
	Routing     *RoutingProfile    `json:"routing,omitempty"`
	Parallel    *ParallelProfile   `json:"parallel,omitempty"`
	Fleet       *FleetProfile      `json:"fleet,omitempty"`
	Saturation  *SaturationProfile `json:"saturation,omitempty"`
}

// Delta summarizes current against baseline (negative = improvement).
type Delta struct {
	NSPerRow        float64 `json:"ns_per_row"`
	AllocsPerRow    float64 `json:"allocs_per_row"`
	CountersEqual   bool    `json:"counters_equal"`
	DigestsEqual    bool    `json:"digests_equal"`
	ExperimentsSame bool    `json:"experiment_digests_equal"`
}

// Report is the checked-in BENCH_*.json document.
type Report struct {
	Schema      string `json:"schema"`
	PR          string `json:"pr"`
	GeneratedAt string `json:"generated_at"`

	// Baseline is the same workload measured on the code before this PR's
	// hot-path changes (absent on pure harness runs).
	Baseline *Point `json:"baseline,omitempty"`
	Current  Point  `json:"current"`
	Delta    *Delta `json:"delta,omitempty"`
}

// RunServing executes the seeded serving workload once and measures it.
//
// The run is sequential and single-shard: determinism matters more than
// saturation here, because the digest and the counters double as the
// semantics gate for hot-path changes. Throughput under concurrency is the
// load generator's job (cmd/qsys-loadgen).
func RunServing(cfg Config) (*Serving, error) {
	s, _, err := runServingWith(cfg, service.Config{})
	return s, err
}

// runServingWith runs the seeded workload with state-lifecycle overrides
// (memory budget, eviction policy, spill dir) taken from override, returning
// the measurements together with the final service stats.
func runServingWith(cfg Config, override service.Config) (*Serving, *service.Stats, error) {
	cfg = cfg.Defaults()
	w, err := workload.GUS(1, workload.GUSScaleDefault())
	if err != nil {
		return nil, nil, err
	}
	svc := service.New(w, service.Config{
		Seed:   cfg.Seed,
		K:      cfg.K,
		Shards: 1,
		// Workers 1 pins the serial engine: the serving/budget trajectory
		// blocks must be byte-reproducible on any machine, and the default
		// (GOMAXPROCS) would swap the engine-wide delay RNG for per-node
		// models wherever the measuring box has >1 core, shifting the
		// virtual-clock latency numbers (digests and counters would still
		// agree — that is the parallel profile's own gate).
		Workers: 1,
		// BatchWindow 0 admits each search alone: the per-tuple engine cost is
		// what this harness tracks, and window-free admission keeps the digest
		// independent of wall-clock batching races.
		BatchWindow:  0,
		MemoryBudget: override.MemoryBudget,
		EvictPolicy:  override.EvictPolicy,
		SpillDir:     override.SpillDir,
	})
	defer svc.Close()

	digest := sha256.New()
	searches := 0
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for round := 0; round < cfg.Rounds; round++ {
		for i, sub := range w.Submissions {
			user := fmt.Sprintf("user-%d", (round*len(w.Submissions)+i)%cfg.Users)
			res, err := svc.Search(context.Background(), user, sub.UQ.Keywords, cfg.K)
			if err != nil {
				return nil, nil, fmt.Errorf("benchrun: search %q: %w", sub.UQ.Keywords, err)
			}
			searches++
			digestResult(digest, res)
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	st := svc.Stats()
	counters := countersOf(st.Work)
	rows := counters.Rows()
	if rows == 0 {
		return nil, nil, fmt.Errorf("benchrun: serving run processed no rows")
	}
	return &Serving{
		WallNS:        int64(wall),
		Rows:          rows,
		NSPerRow:      float64(wall) / float64(rows),
		AllocsPerRow:  float64(after.Mallocs-before.Mallocs) / float64(rows),
		BytesPerRow:   float64(after.TotalAlloc-before.TotalAlloc) / float64(rows),
		Machine:       machineOf(),
		Searches:      searches,
		Counters:      counters,
		EngineLatency: latencyOf(st.Service.EngineLatency),
		ResultDigest:  hex.EncodeToString(digest.Sum(nil)),
	}, &st, nil
}

// digestResult folds one search result into the running digest.
func digestResult(h hash.Hash, res *service.Result) {
	fmt.Fprintf(h, "%s|%v|%d\n", res.ID, res.Keywords, len(res.Answers))
	for _, a := range res.Answers {
		fmt.Fprintf(h, "%d|%.9g|%s|", a.Rank, a.Score, a.Query)
		for _, t := range a.Tuples {
			io.WriteString(h, t.Schema().Name())
			io.WriteString(h, ":")
			io.WriteString(h, t.Identity())
			io.WriteString(h, "&")
		}
		io.WriteString(h, "\n")
	}
}

// RunExperiments times each §7 driver once at single-instance scale and
// digests its formatted output.
func RunExperiments() ([]Experiment, error) {
	cfg := experiments.Config{Instances: []int{1}, Seeds: []uint64{1}}.Defaults()
	drivers := []struct {
		name string
		run  func() (interface{ Format() string }, error)
	}{
		{"table4", func() (interface{ Format() string }, error) { return experiments.Table4(cfg) }},
		{"fig7", func() (interface{ Format() string }, error) { return experiments.Figure7(cfg) }},
		{"fig8", func() (interface{ Format() string }, error) { return experiments.Figure8(cfg) }},
		{"fig9", func() (interface{ Format() string }, error) { return experiments.Figure9(cfg) }},
		{"fig10", func() (interface{ Format() string }, error) { return experiments.Figure10(cfg) }},
		{"fig11", func() (interface{ Format() string }, error) { return experiments.Figure11(cfg) }},
		{"fig12", func() (interface{ Format() string }, error) { return experiments.Figure12(cfg) }},
	}
	var out []Experiment
	for _, d := range drivers {
		start := time.Now()
		res, err := d.run()
		if err != nil {
			return nil, fmt.Errorf("benchrun: %s: %w", d.name, err)
		}
		wall := time.Since(start)
		sum := sha256.Sum256([]byte(canonicalOutput(res.Format())))
		out = append(out, Experiment{Name: d.name, WallNS: int64(wall), Digest: hex.EncodeToString(sum[:])})
	}
	return out, nil
}

// durationToken matches rendered time.Duration values ("16.29ms", "1.52s")
// together with their column padding (the padding width tracks the rendered
// length). Figure 11 reports measured optimization wall time — the one
// real-time column in otherwise virtual-clock output — so digests mask it;
// everything else (counts, virtual-clock seconds) must stay byte-identical.
var durationToken = regexp.MustCompile(`[ \t]*\d+(\.\d+)?(ns|µs|ms|m|h|s)\b`)

func canonicalOutput(s string) string { return durationToken.ReplaceAllString(s, " <dur>") }

// Run measures one full trajectory point.
func Run(cfg Config) (*Point, error) {
	cfg = cfg.Defaults()
	serving, err := RunServing(cfg)
	if err != nil {
		return nil, err
	}
	p := &Point{GoVersion: runtime.Version(), Config: cfg, Serving: *serving}
	if cfg.Experiments {
		exps, err := RunExperiments()
		if err != nil {
			return nil, err
		}
		p.Experiments = exps
	}
	if cfg.BudgetRows > 0 {
		budget, err := RunBudget(cfg)
		if err != nil {
			return nil, err
		}
		p.Budget = budget
	}
	if cfg.RoutingShards > 0 {
		routing, err := RunRouting(cfg)
		if err != nil {
			return nil, err
		}
		p.Routing = routing
	}
	if cfg.ParallelWorkers > 0 {
		parallel, err := RunParallel(cfg)
		if err != nil {
			return nil, err
		}
		p.Parallel = parallel
	}
	if cfg.FleetShards > 0 {
		flt, err := RunFleet(cfg)
		if err != nil {
			return nil, err
		}
		p.Fleet = flt
	}
	if cfg.SaturationRequests > 0 {
		sat, err := RunSaturation(cfg)
		if err != nil {
			return nil, err
		}
		p.Saturation = sat
	}
	return p, nil
}

// NewReport assembles the checked-in document. baseline may be nil.
func NewReport(pr string, baseline *Point, current Point) *Report {
	r := &Report{
		Schema:      Schema,
		PR:          pr,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Baseline:    baseline,
		Current:     current,
	}
	if baseline != nil {
		d := &Delta{
			NSPerRow:      ratio(current.Serving.NSPerRow, baseline.Serving.NSPerRow),
			AllocsPerRow:  ratio(current.Serving.AllocsPerRow, baseline.Serving.AllocsPerRow),
			CountersEqual: current.Serving.Counters == baseline.Serving.Counters,
			DigestsEqual:  current.Serving.ResultDigest == baseline.Serving.ResultDigest,
		}
		d.ExperimentsSame = experimentDigestsEqual(baseline.Experiments, current.Experiments)
		r.Delta = d
	}
	return r
}

func ratio(cur, base float64) float64 {
	if base == 0 {
		return 0
	}
	return cur/base - 1
}

func experimentDigestsEqual(a, b []Experiment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Digest != b[i].Digest {
			return false
		}
	}
	return true
}

// Encode writes the report as indented JSON.
func (r *Report) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Decode reads a report written by Encode.
func Decode(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, err
	}
	return &r, nil
}

// Summary renders the human-readable one-screen view the CLI prints.
func (r *Report) Summary() string {
	c := r.Current.Serving
	s := fmt.Sprintf("serving: %d searches, %d rows in %v  (%.1f ns/row, %.3f allocs/row, %.1f B/row)\n",
		c.Searches, c.Rows, time.Duration(c.WallNS).Round(time.Millisecond), c.NSPerRow, c.AllocsPerRow, c.BytesPerRow)
	s += fmt.Sprintf("engine latency: p50 %v  p95 %v  p99 %v\n",
		time.Duration(c.EngineLatency.P50NS), time.Duration(c.EngineLatency.P95NS), time.Duration(c.EngineLatency.P99NS))
	if r.Delta != nil {
		b := r.Baseline.Serving
		s += fmt.Sprintf("baseline: %.1f ns/row, %.3f allocs/row  →  delta %+.1f%% ns/row, %+.1f%% allocs/row\n",
			b.NSPerRow, b.AllocsPerRow, 100*r.Delta.NSPerRow, 100*r.Delta.AllocsPerRow)
		s += fmt.Sprintf("semantics: counters_equal=%v result_digest_equal=%v experiment_digests_equal=%v\n",
			r.Delta.CountersEqual, r.Delta.DigestsEqual, r.Delta.ExperimentsSame)
	}
	if r.Current.Budget != nil {
		s += r.Current.Budget.Summary()
	}
	if r.Current.Routing != nil {
		s += r.Current.Routing.Summary()
	}
	if r.Current.Parallel != nil {
		s += r.Current.Parallel.Summary()
	}
	if r.Current.Fleet != nil {
		s += r.Current.Fleet.Summary()
	}
	if r.Current.Saturation != nil {
		s += r.Current.Saturation.Summary()
	}
	return s
}
