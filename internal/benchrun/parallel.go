package benchrun

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"runtime"
	"time"

	"repro/internal/atc"
	"repro/internal/batcher"
	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/dist"
	"repro/internal/mqo"
	"repro/internal/qsm"
	"repro/internal/workload"
)

// DefaultParallelWorkers is the canonical worker count of the parallelism
// profile's parallel runs. Keep stable across PRs.
const DefaultParallelWorkers = 4

// parallelRounds is how many admission waves each profile run executes: the
// first wave is cold, the second grafts onto retained state — so the profile
// covers both the cold multi-source OpenStream path and replay-heavy rounds.
const parallelRounds = 2

// ParallelRun is one execution of a parallelism workload at a worker count.
type ParallelRun struct {
	Workers int `json:"workers"`

	WallNS   int64   `json:"wall_ns"`
	Rows     int64   `json:"rows"`
	NSPerRow float64 `json:"ns_per_row"`
	// EngineNS is the engine's virtual-clock makespan: under the paper's
	// delay model (Poisson remote reads, fixed join CPU), a serial round
	// advances the clock by the SUM of every component's delays while a
	// parallel round advances it by their MAX — so this is the
	// hardware-independent, fully deterministic form of the multi-core win
	// (wall_ns shows it only when real CPUs are plural). Note the virtual
	// model assumes a worker per component: makespan is identical at any
	// worker count > 1; real pool contention shows up only in wall_ns.
	EngineNS int64 `json:"engine_ns"`

	Counters     Counters `json:"counters"`
	ResultDigest string   `json:"result_digest"`

	// MaxRoundComponents is the peak number of independent plan-graph
	// components one scheduling round drove; Utilization is worker busy time
	// over pool capacity across parallel rounds. Both are zero for the
	// serial (-workers 1) run, which never computes components.
	MaxRoundComponents int64   `json:"max_round_components,omitempty"`
	Utilization        float64 `json:"utilization,omitempty"`
}

// ParallelProfile is the intra-shard parallel-executor comparison checked
// into the trajectory: the same seeded workloads executed at -workers 1 and
// -workers N inside one engine. Digests and work counters must be
// byte-identical at every worker count — the executor changes where rounds
// run, never which rows flow. Wall-clock numbers are recorded together with
// the CPU count they were measured on: a multi-core win is only observable
// when CPUs and components are both plural.
type ParallelProfile struct {
	Workers int `json:"workers"`
	// CPUs is runtime.NumCPU() at measurement time — the hardware context
	// every wall-clock delta below must be read against. Machine repeats it
	// together with GOMAXPROCS in the shape every profile block shares.
	CPUs    int     `json:"cpus"`
	Machine Machine `json:"machine"`
	Topics  int     `json:"topics"`
	Rounds  int     `json:"rounds"`

	// MultiTopic runs a low-overlap workload — topics chosen so their
	// candidate networks touch pairwise-disjoint relation sets, so every
	// topic is its own plan-graph component — at 1, 2 and N workers.
	MultiTopic []ParallelRun `json:"multi_topic"`
	// Overlap runs the workload's own high-overlap suite (one giant shared
	// component) at 1 and N workers: the executor must not regress when
	// there is nothing to parallelize.
	Overlap []ParallelRun `json:"overlap"`

	// DigestsEqual / CountersEqual gate the multi-topic runs across all
	// worker counts; the Overlap* pair gates the high-overlap runs.
	DigestsEqual         bool `json:"digests_equal"`
	CountersEqual        bool `json:"counters_equal"`
	OverlapDigestsEqual  bool `json:"overlap_digests_equal"`
	OverlapCountersEqual bool `json:"overlap_counters_equal"`

	// MultiTopicSpeedup is serial ns/row over best-parallel ns/row (>1 means
	// the parallel executor was faster); OverlapOverhead is the parallel
	// run's wall-clock fraction over serial on the one-component workload
	// (0.05 = 5% slower). MultiTopicEngineSpeedup is the same comparison on
	// the virtual-clock makespan — deterministic and independent of how
	// many real CPUs the measurement ran on.
	MultiTopicSpeedup       float64 `json:"multi_topic_speedup"`
	MultiTopicEngineSpeedup float64 `json:"multi_topic_engine_speedup"`
	OverlapOverhead         float64 `json:"overlap_overhead"`
}

// parallelTopics derives the low-overlap topic pool: keyword pairs whose
// generated candidate networks touch pairwise-disjoint relation sets. Node
// keys are canonical expressions over relations, so disjoint relation sets
// guarantee the topics share no plan-graph node — each is its own
// scheduling component, at any admission order, forever.
func parallelTopics(w *workload.Workload, max int, seed uint64, k int) [][]string {
	genCfg := w.Gen
	genCfg.Graph = w.Schema
	genCfg.Catalog = w.Catalog
	terms := w.Schema.Terms()
	claimed := map[string]bool{}
	var topics [][]string
	for i := 0; i < len(terms) && len(topics) < max; i++ {
		for j := i + 1; j < len(terms) && len(topics) < max; j++ {
			pair := []string{terms[i], terms[j]}
			uq, err := candidates.Generate(genCfg, "probe", pair, k, dist.New(seed+77))
			if err != nil || len(uq.CQs) < 2 {
				continue // unconnected or trivial: no join work to schedule
			}
			rels := map[string]bool{}
			for _, q := range uq.CQs {
				for _, a := range q.Atoms {
					rels[a.Rel] = true
				}
			}
			overlap := false
			for r := range rels {
				if claimed[r] {
					overlap = true
					break
				}
			}
			if overlap {
				continue
			}
			for r := range rels {
				claimed[r] = true
			}
			topics = append(topics, pair)
		}
	}
	return topics
}

// generateWaves expands the topic pool into per-round user queries with
// deterministic ids and scoring draws, identical inputs for every worker
// count.
func generateWaves(w *workload.Workload, topics [][]string, rounds int, seed uint64, k int) ([][]*cq.UQ, error) {
	genCfg := w.Gen
	genCfg.Graph = w.Schema
	genCfg.Catalog = w.Catalog
	waves := make([][]*cq.UQ, rounds)
	for r := 0; r < rounds; r++ {
		for t, kws := range topics {
			id := fmt.Sprintf("UQ-r%d-t%d", r, t)
			rng := dist.New(seed + uint64(r)*100003 + uint64(t)*1009)
			uq, err := candidates.Generate(genCfg, id, kws, k, rng)
			if err != nil {
				return nil, fmt.Errorf("benchrun: generate %v: %w", kws, err)
			}
			waves[r] = append(waves[r], uq)
		}
	}
	return waves, nil
}

// runParallelWorkload executes the waves inside one engine at the given
// worker count and measures it. A fresh workload is built per run so no run
// inherits another's materialised source views.
func runParallelWorkload(cfg Config, topics [][]string, workers int) (ParallelRun, error) {
	w, err := workload.GUS(1, workload.GUSScaleDefault())
	if err != nil {
		return ParallelRun{}, err
	}
	waves, err := generateWaves(w, topics, parallelRounds, cfg.Seed, cfg.K)
	if err != nil {
		return ParallelRun{}, err
	}
	p := core.NewPipeline(w.Fleet, w.Catalog, core.Options{Mode: qsm.ShareAll, Seed: cfg.Seed})
	p.Manager.Unit = qsm.UnitUQ
	if workers > 1 {
		p.ATC.EnableParallel(workers, cfg.Seed)
		defer p.ATC.Close()
	}

	digest := sha256.New()
	start := time.Now()
	for _, wave := range waves {
		now := p.Env.Clock.Now()
		subs := make([]batcher.Submission, len(wave))
		maxK := 0
		for i, uq := range wave {
			subs[i] = batcher.Submission{At: now, UQ: uq}
			if uq.K > maxK {
				maxK = uq.K
			}
		}
		p.Manager.SyncCatalog()
		if _, err := p.Admit(subs, mqo.Config{K: maxK}); err != nil {
			return ParallelRun{}, fmt.Errorf("benchrun: admit wave: %w", err)
		}
		for p.ATC.RunRound() {
		}
		for _, uq := range wave {
			m := p.ATC.MergeByUQ(uq.ID)
			if m == nil {
				return ParallelRun{}, fmt.Errorf("benchrun: %s not registered", uq.ID)
			}
			if m.Err != nil {
				return ParallelRun{}, fmt.Errorf("benchrun: %s failed: %w", uq.ID, m.Err)
			}
			digestMerge(digest, m)
		}
	}
	wall := time.Since(start)

	counters := countersOf(p.Snapshot())
	rows := counters.Rows()
	if rows == 0 {
		return ParallelRun{}, fmt.Errorf("benchrun: parallel run processed no rows")
	}
	run := ParallelRun{
		Workers:      workers,
		WallNS:       int64(wall),
		Rows:         rows,
		NSPerRow:     float64(wall) / float64(rows),
		EngineNS:     int64(p.Env.Clock.Now()),
		Counters:     counters,
		ResultDigest: hex.EncodeToString(digest.Sum(nil)),
	}
	if ps := p.ATC.ParallelStats(); ps.Workers > 0 {
		run.MaxRoundComponents = ps.Components.Max
		run.Utilization = ps.Utilization
	}
	return run, nil
}

// digestMerge folds one finished merge's answers into the running digest —
// rank, score, producing CQ and base-tuple identities, like digestResult on
// the serving surface.
func digestMerge(h hash.Hash, m *atc.MergeState) {
	results := m.RM.Results()
	fmt.Fprintf(h, "%s|%v|%d\n", m.RM.UQ.ID, m.RM.UQ.Keywords, len(results))
	for i, r := range results {
		fmt.Fprintf(h, "%d|%.9g|%s|", i+1, r.Score, r.CQID)
		for _, t := range r.Row.Parts() {
			io.WriteString(h, t.Schema().Name())
			io.WriteString(h, ":")
			io.WriteString(h, t.Identity())
			io.WriteString(h, "&")
		}
		io.WriteString(h, "\n")
	}
}

// overlapTopics is the high-overlap pool: the workload's own suite keywords,
// whose shared terms collapse every query into one plan-graph component.
func overlapTopics(w *workload.Workload) [][]string {
	var topics [][]string
	for _, sub := range w.Submissions {
		topics = append(topics, append([]string(nil), sub.UQ.Keywords...))
	}
	return topics
}

// RunParallel measures the parallelism profile at cfg.ParallelWorkers.
func RunParallel(cfg Config) (*ParallelProfile, error) {
	cfg = cfg.Defaults()
	workers := cfg.ParallelWorkers
	if workers < 2 {
		return nil, fmt.Errorf("benchrun: parallelism profile needs >= 2 workers, got %d", workers)
	}
	seedW, err := workload.GUS(1, workload.GUSScaleDefault())
	if err != nil {
		return nil, err
	}
	topics := parallelTopics(seedW, 8, cfg.Seed, cfg.K)
	if len(topics) < 2 {
		return nil, fmt.Errorf("benchrun: found only %d disjoint topics", len(topics))
	}
	prof := &ParallelProfile{
		Workers: workers,
		CPUs:    runtime.NumCPU(),
		Machine: machineOf(),
		Topics:  len(topics),
		Rounds:  parallelRounds,
	}

	// Multi-topic (many components): serial, half, and full worker counts.
	counts := []int{1}
	if workers > 2 {
		counts = append(counts, (workers+1)/2)
	}
	counts = append(counts, workers)
	for _, n := range counts {
		run, err := runParallelWorkload(cfg, topics, n)
		if err != nil {
			return nil, err
		}
		prof.MultiTopic = append(prof.MultiTopic, run)
	}
	prof.DigestsEqual, prof.CountersEqual = runsAgree(prof.MultiTopic)
	serial, best := prof.MultiTopic[0], prof.MultiTopic[len(prof.MultiTopic)-1]
	if best.NSPerRow > 0 {
		prof.MultiTopicSpeedup = serial.NSPerRow / best.NSPerRow
	}
	if best.EngineNS > 0 {
		prof.MultiTopicEngineSpeedup = float64(serial.EngineNS) / float64(best.EngineNS)
	}

	// High-overlap (one giant component): the parallel executor must not
	// regress when every query shares one subgraph.
	overlap := overlapTopics(seedW)
	for _, n := range []int{1, workers} {
		run, err := runParallelWorkload(cfg, overlap, n)
		if err != nil {
			return nil, err
		}
		prof.Overlap = append(prof.Overlap, run)
	}
	prof.OverlapDigestsEqual, prof.OverlapCountersEqual = runsAgree(prof.Overlap)
	if prof.Overlap[0].WallNS > 0 {
		prof.OverlapOverhead = float64(prof.Overlap[1].WallNS)/float64(prof.Overlap[0].WallNS) - 1
	}
	return prof, nil
}

// runsAgree reports whether every run's digest and counters match the first.
func runsAgree(runs []ParallelRun) (digests, counters bool) {
	digests, counters = true, true
	for _, r := range runs[1:] {
		if r.ResultDigest != runs[0].ResultDigest {
			digests = false
		}
		if r.Counters != runs[0].Counters {
			counters = false
		}
	}
	return digests, counters
}

// Summary renders the profile for the CLI.
func (p *ParallelProfile) Summary() string {
	line := func(r ParallelRun) string {
		extra := ""
		if r.Workers > 1 {
			extra = fmt.Sprintf(" comps<=%d util=%.2f", r.MaxRoundComponents, r.Utilization)
		}
		return fmt.Sprintf("  workers=%-2d %8.1f ns/row  engine=%v  (%d rows)%s\n",
			r.Workers, r.NSPerRow, time.Duration(r.EngineNS).Round(time.Millisecond), r.Rows, extra)
	}
	s := fmt.Sprintf("parallelism profile (%d topics x %d rounds, %d cpus):\n", p.Topics, p.Rounds, p.CPUs)
	s += " multi-topic (disjoint components):\n"
	for _, r := range p.MultiTopic {
		s += line(r)
	}
	s += fmt.Sprintf("  digests_equal=%v counters_equal=%v wall_speedup=%.2fx engine_speedup=%.2fx\n",
		p.DigestsEqual, p.CountersEqual, p.MultiTopicSpeedup, p.MultiTopicEngineSpeedup)
	s += " high-overlap (one component):\n"
	for _, r := range p.Overlap {
		s += line(r)
	}
	s += fmt.Sprintf("  digests_equal=%v counters_equal=%v overhead=%+.1f%%\n",
		p.OverlapDigestsEqual, p.OverlapCountersEqual, 100*p.OverlapOverhead)
	return s
}
