// Package exec orchestrates complete runs: it maps user queries onto plan
// graphs according to the chosen sharing strategy (the four configurations of
// §7.1), drives each graph's ATC along the workload's arrival timeline —
// admitting batches mid-execution exactly as §6 grafts new queries into a
// running graph — and collects the per-query latencies and work counters the
// paper's figures report.
//
// Each plan graph is one middleware execution thread with its own virtual
// clock (see simclock): queries sharing a graph contend for that clock
// (ATC-FULL's §7.1 contention), while separate graphs run in parallel
// (ATC-CQ, ATC-UQ, ATC-CL).
package exec

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/batcher"
	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/metrics"
	"repro/internal/mqo"
	"repro/internal/operator"
	"repro/internal/plangraph"
	"repro/internal/qsm"
	"repro/internal/remotedb"
)

// Strategy selects the sharing configuration (§7.1).
type Strategy int

const (
	// StrategyCQ: ATC-CQ — each user query optimized separately, no sharing
	// even among its own conjunctive queries.
	StrategyCQ Strategy = iota
	// StrategyUQ: ATC-UQ — sharing within a user query only: each user
	// query gets a plan graph of its own, shared in full.
	StrategyUQ
	// StrategyFull: ATC-FULL — one plan graph shared by every query.
	StrategyFull
	// StrategyCL: ATC-CL — user queries clustered (§6.1) into several
	// shared plan graphs.
	StrategyCL
)

// String names the strategy as the paper does.
func (s Strategy) String() string {
	switch s {
	case StrategyCQ:
		return "ATC-CQ"
	case StrategyUQ:
		return "ATC-UQ"
	case StrategyFull:
		return "ATC-FULL"
	default:
		return "ATC-CL"
	}
}

// batchWindow is the query batcher's window: §7.1 batches queries over the
// 6-second inter-arrival spread of its workload.
const batchWindow = 6 * time.Second

// Options configures a run.
type Options struct {
	Strategy Strategy
	// BatchSize is the query batcher's batch size (§7.1 uses 5).
	BatchSize int
	// Cluster tunes §6.1 clustering (StrategyCL).
	Cluster cluster.Config
	// MemoryBudget bounds per-graph state in rows (0 = unbounded).
	MemoryBudget int
	// Seed drives the delay distributions.
	Seed uint64
}

// Defaults fills zero values with the paper's experimental settings.
func (o Options) Defaults() Options {
	if o.BatchSize == 0 {
		o.BatchSize = 5
	}
	return o
}

// UQReport is one user query's outcome.
type UQReport struct {
	UQ          *cq.UQ
	GroupID     int
	Arrival     time.Duration
	Finished    time.Duration
	Results     []operator.Result
	ExecutedCQs int
	Duplicates  int
}

// Latency is the user query's response time.
func (r *UQReport) Latency() time.Duration { return r.Finished - r.Arrival }

// GroupReport summarises one plan graph's execution.
type GroupReport struct {
	GroupID   int
	Metrics   metrics.Snapshot
	Stats     plangraph.Stats
	Evictions int
	StateRows int
}

// Report is a complete run's outcome.
type Report struct {
	Strategy Strategy
	UQs      []*UQReport
	Groups   []*GroupReport
}

// Total sums work across groups.
func (r *Report) Total() metrics.Snapshot {
	var t metrics.Snapshot
	for _, g := range r.Groups {
		t = t.Add(g.Metrics)
	}
	return t
}

// Run executes the submissions against the fleet under the options. The
// query batcher runs first (batches of BatchSize over batchWindow, §3); each
// released batch is split across the strategy's plan graphs and grafted into
// them, exactly as Figure 3's pipeline orders the components.
func Run(fleet *remotedb.Fleet, cat *catalog.Catalog, subs []batcher.Submission, opts Options) (*Report, error) {
	opts = opts.Defaults()
	b := &batcher.Batcher{Size: opts.BatchSize, Window: batchWindow}
	globalBatches, err := b.Plan(subs)
	if err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	groups := groupSubmissions(subs, opts)
	report := &Report{Strategy: opts.Strategy}
	for gi, gsubs := range groups {
		member := map[string]bool{}
		for _, s := range gsubs {
			member[s.UQ.ID] = true
		}
		var gb []batcher.Batch
		for _, batch := range globalBatches {
			var part []batcher.Submission
			for _, s := range batch.Submissions {
				if member[s.UQ.ID] {
					part = append(part, s)
				}
			}
			if len(part) > 0 {
				gb = append(gb, batcher.Batch{ReleasedAt: batch.ReleasedAt, Submissions: part})
			}
		}
		gr, uqReports, err := runGroup(gi, fleet, cat, gb, opts)
		if err != nil {
			return nil, fmt.Errorf("exec: group %d: %w", gi, err)
		}
		report.Groups = append(report.Groups, gr)
		report.UQs = append(report.UQs, uqReports...)
	}
	sort.SliceStable(report.UQs, func(i, j int) bool { return report.UQs[i].Arrival < report.UQs[j].Arrival })
	return report, nil
}

// groupSubmissions maps user queries to plan graphs per the strategy.
func groupSubmissions(subs []batcher.Submission, opts Options) [][]batcher.Submission {
	switch opts.Strategy {
	case StrategyCQ, StrategyUQ:
		out := make([][]batcher.Submission, len(subs))
		for i, s := range subs {
			out[i] = []batcher.Submission{s}
		}
		return out
	case StrategyCL:
		uqs := make([]*cq.UQ, len(subs))
		at := map[string]batcher.Submission{}
		for i, s := range subs {
			uqs[i] = s.UQ
			at[s.UQ.ID] = s
		}
		clusters := cluster.Cluster(uqs, opts.Cluster)
		out := make([][]batcher.Submission, len(clusters))
		for ci, cuqs := range clusters {
			for _, uq := range cuqs {
				out[ci] = append(out[ci], at[uq.ID])
			}
			sort.SliceStable(out[ci], func(a, b int) bool { return out[ci][a].At < out[ci][b].At })
		}
		return out
	default:
		return [][]batcher.Submission{append([]batcher.Submission(nil), subs...)}
	}
}

func shareMode(s Strategy) qsm.ShareMode {
	if s == StrategyCQ {
		return qsm.ShareNone
	}
	return qsm.ShareAll
}

// runGroup executes one plan graph's submissions along the arrival timeline.
// Batching happens globally before grouping (the batcher precedes the
// optimizer and clusterer in Figure 3), so each submission carries its batch
// release time: response times are measured from release, as a query cannot
// start before its batch is handed to the optimizer.
func runGroup(gi int, fleet *remotedb.Fleet, cat *catalog.Catalog, batches []batcher.Batch, opts Options) (*GroupReport, []*UQReport, error) {
	// Each graph is its own pipeline with its own delay stream.
	p := core.NewPipeline(fleet, cat, core.Options{
		Mode:         shareMode(opts.Strategy),
		Seed:         opts.Seed + uint64(gi)*7919,
		MemoryBudget: opts.MemoryBudget,
	})
	env, controller, manager := p.Env, p.ATC, p.Manager

	for _, batch := range batches {
		// Keep executing admitted queries until the batch's release time. The
		// horizon stops a lone merge's read quantum at the read that reaches
		// it, so the batch grafts at the instant one-read rounds would.
		for !controller.AllDone() && env.Clock.Now() < batch.ReleasedAt {
			controller.RunRoundUntil(batch.ReleasedAt)
		}
		if env.Clock.Now() < batch.ReleasedAt {
			env.Clock.AdvanceTo(batch.ReleasedAt)
		}
		released := make([]batcher.Submission, len(batch.Submissions))
		for i, s := range batch.Submissions {
			released[i] = batcher.Submission{At: batch.ReleasedAt, UQ: s.UQ}
		}
		if _, err := manager.Admit(released, mqo.Config{}); err != nil {
			return nil, nil, err
		}
	}
	p.Drain()

	// The controller converts non-convergent rounds and operator panics
	// into per-merge errors (so a serving process survives them); an
	// experiment run must instead fail loudly — a truncated merge would
	// otherwise digest into the trajectory as if it were a result.
	for _, m := range controller.Merges() {
		if m.Err != nil {
			return nil, nil, fmt.Errorf("exec: query %s failed: %w", m.RM.UQ.ID, m.Err)
		}
	}

	var uqReports []*UQReport
	for _, m := range controller.Merges() {
		dups := 0
		for _, e := range m.RM.Entries {
			dups += e.Duplicates()
		}
		uqReports = append(uqReports, &UQReport{
			UQ:          m.RM.UQ,
			GroupID:     gi,
			Arrival:     m.Arrival,
			Finished:    m.Finished,
			Results:     m.RM.Results(),
			ExecutedCQs: m.RM.ExecutedCQs(),
			Duplicates:  dups,
		})
	}
	gr := &GroupReport{
		GroupID:   gi,
		Metrics:   env.Metrics.Snapshot(),
		Stats:     p.Graph.Stats(),
		Evictions: manager.Evictions(),
		StateRows: manager.StateSize(),
	}
	return gr, uqReports, nil
}
