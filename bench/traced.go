package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/atc"
	"repro/internal/batcher"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/fleet"
	"repro/internal/mqo"
	"repro/internal/qsm"
	"repro/internal/service"
	"repro/internal/workload"
)

// span is one timed call into a layer. Spans of one search share its index;
// Parent is the position of the enclosing span in the trace, -1 for the
// search's root. Start and End are nanoseconds since the trace began.
type span struct {
	Search int    `json:"search"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(search int, name string, parent int) int {
	t.spans = append(t.spans, span{Search: search, Name: name, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

// selfTimes sums, per span name, each span's duration less the part its
// child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += time.Duration(self[i])
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

const rootSpan = "search"

// driver is the benchmark's own single-threaded executor: it does for one
// search what service.shard does — expand, sync the catalog, admit, run
// rounds until the merge is done, assemble the result — on a core.Pipeline
// built the way a shard builds its engine, with a span around each call. With
// tr nil it runs untraced (warm-up).
type driver struct {
	w    *workload.Workload
	pipe *core.Pipeline
	exp  *service.Expander
	tr   *tracer

	searches    int
	rounds      int64
	searchNodes int64
	groups      int64
	candidates  int64
	recovered   int64
	cqs         int64
	engineMS    []float64
}

func newDriver(sp spec, p params) (*driver, error) {
	w, err := workload.GUS(1, sp.Scale)
	if err != nil {
		return nil, err
	}
	cfg := sp.serviceConfig(p.Seed, "")
	pipe := core.NewPipeline(w.Fleet, w.Catalog, core.Options{
		Mode: qsm.ShareAll, Seed: p.Seed, MemoryBudget: sp.Budget,
	})
	pipe.Manager.Unit = qsm.UnitUQ
	if sp.Spill {
		dir, err := os.MkdirTemp(p.Dir, "spill-")
		if err != nil {
			return nil, err
		}
		if err := pipe.Manager.EnableSpill(filepath.Join(dir, "shard-0"), pipe.Manager.DefaultResolver()); err != nil {
			return nil, err
		}
	}
	return &driver{w: w, pipe: pipe, exp: service.NewExpander(w, cfg)}, nil
}

func (d *driver) close() error {
	d.pipe.ATC.Close()
	return d.pipe.Manager.State.Close()
}

// search runs one search through the layers.
func (d *driver) search(s search) (*cq.UQ, *service.Result, error) {
	idx := d.searches
	d.searches++
	begin := func(name string, parent int) int {
		if d.tr == nil {
			return -1
		}
		return d.tr.begin(idx, name, parent)
	}
	end := func(i int) {
		if d.tr != nil {
			d.tr.end(i)
		}
	}
	root := begin(rootSpan, -1)
	defer end(root)

	sp := begin("candidates.expand", root)
	uq, err := d.exp.Expand(s.User, s.Keywords, topK)
	end(sp)
	if err != nil {
		return nil, nil, err
	}
	d.cqs += int64(len(uq.CQs))

	sp = begin("qsm.sync_catalog", root)
	d.pipe.Manager.SyncCatalog()
	end(sp)

	sp = begin("qsm.admit", root)
	rep, err := d.pipe.Admit([]batcher.Submission{{At: d.pipe.Env.Clock.Now(), UQ: uq}}, mqo.Config{K: uq.K})
	end(sp)
	if err != nil {
		return uq, nil, err
	}
	if d.tr != nil {
		// The optimizer's share of the admit call is what the engine itself
		// reports; the rest (factorize, revive, seeding, EnforceBudget) is
		// the admit span's self time.
		start := d.tr.spans[sp].Start
		d.tr.spans = append(d.tr.spans, span{Search: idx, Name: "mqo.optimize", Parent: sp, Start: start, End: start + int64(rep.OptimizeWall)})
	}
	d.searchNodes += int64(rep.SearchNodes)
	d.recovered += rep.Recovered
	d.groups += int64(len(rep.CandidatesPerGroup))
	for _, c := range rep.CandidatesPerGroup {
		d.candidates += int64(c)
	}

	sp = begin("atc.rounds", root)
	m := d.pipe.ATC.MergeByUQ(uq.ID)
	for m != nil && !m.Done {
		d.pipe.ATC.RunRound()
		d.rounds++
	}
	end(sp)
	if m == nil {
		return uq, nil, fmt.Errorf("%s not registered", uq.ID)
	}
	if m.Err != nil {
		return uq, nil, m.Err
	}
	d.engineMS = append(d.engineMS, float64(m.Latency())/float64(time.Millisecond))

	sp = begin("service.assemble", root)
	res := assemble(uq, m)
	end(sp)

	sp = begin("qsm.sync_catalog", root)
	d.pipe.ATC.Forget(uq.ID)
	d.pipe.Manager.SyncCatalog()
	end(sp)
	return uq, res, nil
}

// assemble builds the caller-facing result the way service.shard.result does.
func assemble(uq *cq.UQ, m *atc.MergeState) *service.Result {
	res := &service.Result{
		ID:                uq.ID,
		Keywords:          uq.Keywords,
		CandidateNetworks: len(uq.CQs),
		ExecutedNetworks:  m.RM.ExecutedCQs(),
		BatchSize:         1,
		EngineLatency:     m.Latency(),
	}
	for i, rr := range m.RM.Results() {
		res.Answers = append(res.Answers, service.Answer{
			Rank: i + 1, Score: rr.Score, Query: rr.CQID, Tuples: rr.Row.Parts(),
		})
	}
	return res
}

// answerDigest is the fleet.DigestAnswers form of one result.
func answerDigest(res *service.Result) [sha256.Size]byte {
	h := sha256.New()
	fleet.DigestAnswers(h, fleet.ViewOf(res))
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// runtimeMark is a reading of the Go runtime's cumulative counters; two of
// them bracket a measured part.
type runtimeMark struct {
	mem     runtime.MemStats
	gc, cpu float64
}

func markRuntime() runtimeMark {
	var r runtimeMark
	runtime.ReadMemStats(&r.mem)
	r.gc, r.cpu = gcCPU()
	return r
}

// report sets the runtime.* layer metrics for the part between from and r.
func (r runtimeMark) report(m readings, from runtimeMark, searches int) {
	m.set(perLayer, "runtime.allocs_per_search", ratio(float64(r.mem.Mallocs-from.mem.Mallocs), float64(searches)))
	m.set(perLayer, "runtime.gc_cpu_fraction", ratio(r.gc-from.gc, r.cpu-from.cpu))
	m.set(perLayer, "runtime.gc_pause_ms_total", float64(r.mem.PauseTotalNs-from.mem.PauseTotalNs)/1e6)
}

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		gc = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		total = samples[1].Value.Float64()
	}
	return gc, total
}

// runTraced is the per-layer run of an in-process workload. It first poses
// whole passes to a service, untraced, for 0.4 of p.Seconds, then replays
// exactly those searches through the traced driver. The two must give the
// same answers and the same work counters; their time difference is the
// tracing overhead plus what the service adds around the layers.
func runTraced(sp spec, p params) (*outcome, error) {
	out := &outcome{Metrics: readings{}}
	m := out.Metrics

	// Untraced reference.
	ref, _, err := setupInproc(sp, p, out)
	if err != nil {
		return nil, err
	}
	var refDigests [][sha256.Size]byte
	var refTime time.Duration
	runtime.GC()
	before := markRuntime()
	pass := sp.Warmup
	for budget := time.Duration(0.4 * p.Seconds * float64(time.Second)); refTime < budget; pass++ {
		for _, s := range passOf(ref.pool, p.Seed, pass) {
			t := time.Now()
			uq, res, err := ref.search(s)
			refTime += time.Since(t)
			out.Attempted++
			if err != nil {
				out.fail(err)
				refDigests = append(refDigests, [sha256.Size]byte{})
				continue
			}
			if err := checkAnswers(uq, res.Answers); err != nil {
				out.fail(err)
			}
			refDigests = append(refDigests, answerDigest(res))
		}
	}
	lastPass := pass
	markRuntime().report(m, before, len(refDigests))
	refWork := ref.svc.Stats().Work
	pool := ref.pool
	if err := ref.close(); err != nil {
		return nil, err
	}
	n := float64(len(refDigests))

	// Traced replay of the same searches.
	d, err := newDriver(sp, p)
	if err != nil {
		return nil, err
	}
	defer d.close()
	for pass := 0; pass < sp.Warmup; pass++ {
		for _, s := range passOf(pool, p.Seed, pass) {
			if _, _, err := d.search(s); err != nil {
				out.fail(err)
			}
		}
	}
	// Counters restart here, so everything below is over the traced searches.
	warm := d.pipe.Snapshot()
	evict0 := d.pipe.Manager.Evictions()
	*d = driver{w: d.w, pipe: d.pipe, exp: d.exp, tr: &tracer{t0: time.Now()}}
	var recorded []*cq.UQ
	i := 0
	for pass := sp.Warmup; pass < lastPass; pass++ {
		for _, s := range passOf(pool, p.Seed, pass) {
			uq, res, err := d.search(s)
			out.Attempted++
			switch {
			case err != nil:
				out.fail(err)
			case answerDigest(res) != refDigests[i]:
				out.fail(fmt.Errorf("%s: traced answers differ from the untraced run's", uq.ID))
			}
			if pass == sp.Warmup && uq != nil {
				recorded = append(recorded, uq)
			}
			i++
		}
	}
	end := d.pipe.Snapshot()
	if end != refWork {
		out.fail(fmt.Errorf("traced driver's work counters differ from the service's: %+v vs %+v", end, refWork))
	}

	// Layer times from the spans.
	self := d.tr.selfTimes()
	var traced, layers time.Duration
	for name, t := range self {
		if name != rootSpan {
			layers += t
		}
	}
	for _, s := range d.tr.spans {
		if s.Name == rootSpan {
			traced += time.Duration(s.End - s.Start)
		}
	}
	us := func(t time.Duration) float64 { return float64(t) / float64(time.Microsecond) / n }
	m.set(perLayer, "candidates.expand_us", us(self["candidates.expand"]))
	m.set(perLayer, "qsm.admit_us", us(self["qsm.admit"]+self["mqo.optimize"]))
	m.set(perLayer, "qsm.graft_us", us(self["qsm.admit"]))
	m.set(perLayer, "qsm.sync_catalog_us", us(self["qsm.sync_catalog"]))
	m.set(perLayer, "mqo.optimize_us", us(self["mqo.optimize"]))
	m.set(perLayer, "atc.rounds_us", us(self["atc.rounds"]))
	m.set(perLayer, "service.assemble_us", us(self["service.assemble"]))
	m.set(perLayer, "service.overhead_us", us(refTime-layers))
	m.set(perLayer, "trace.coverage", ratio(float64(layers), float64(traced)))
	m.set(perLayer, "trace.overhead_ratio", ratio(float64(traced), float64(refTime)))

	// Counts at the same boundaries, over the traced searches.
	m.set(perLayer, "candidates.cqs_per_search", float64(d.cqs)/n)
	m.set(perLayer, "qsm.recovered_rows_per_search", float64(d.recovered)/n)
	m.set(perLayer, "mqo.search_nodes_per_search", float64(d.searchNodes)/n)
	m.set(perLayer, "mqo.candidates_per_group", ratio(float64(d.candidates), float64(d.groups)))
	m.set(perLayer, "atc.rounds_per_search", float64(d.rounds)/n)
	m.set(perLayer, "atc.engine_latency_p50_ms", percentile(d.engineMS, 50))

	stream := float64(end.StreamTuples - warm.StreamTuples)
	probe := float64(end.ProbeTuples - warm.ProbeTuples)
	inserts := float64(end.JoinInserts - warm.JoinInserts)
	replay := float64(end.ReplayTuples - warm.ReplayTuples)
	rows := stream + probe + inserts + replay
	hits := float64(end.ProbeCacheHits - warm.ProbeCacheHits)
	calls := float64(end.ProbeCalls - warm.ProbeCalls)
	m.set(perLayer, "operator.rows_per_search", rows/n)
	m.set(perLayer, "operator.ns_per_row", ratio(float64(self["atc.rounds"]), rows))
	m.set(perLayer, "operator.stream_tuples_per_search", stream/n)
	m.set(perLayer, "operator.probe_tuples_per_search", probe/n)
	m.set(perLayer, "operator.probe_cache_hit_ratio", ratio(hits, hits+calls))
	m.set(perLayer, "operator.join_probes_per_search", float64(end.JoinProbes-warm.JoinProbes)/n)
	m.set(perLayer, "operator.replay_ratio", ratio(replay, rows))

	written := float64(end.SpillRowsWritten - warm.SpillRowsWritten)
	read := float64(end.SpillRowsRead - warm.SpillRowsRead)
	m.set(perLayer, "state.evictions_per_search", float64(d.pipe.Manager.Evictions()-evict0)/n)
	m.set(perLayer, "state.spill_rows_written_per_search", written/n)
	m.set(perLayer, "state.spill_bytes_written_per_search", float64(end.SpillBytesWritten-warm.SpillBytesWritten)/n)
	m.set(perLayer, "state.spill_rows_read_per_search", read/n)
	m.set(perLayer, "state.spill_readback_ratio", ratio(read, written))
	m.set(perLayer, "state.revivals_from_spill_per_search", float64(end.RevivalsFromSpill-warm.RevivalsFromSpill)/n)
	m.set(perLayer, "state.revivals_from_source_per_search", float64(end.RevivalsFromSource-warm.RevivalsFromSource)/n)
	m.set(perLayer, "state.resident_rows_end", float64(d.pipe.Manager.StateSize()))
	audit := d.pipe.Manager.StateSize() - d.pipe.Manager.AuditStateSize()
	m.set(perLayer, "state.ledger_audit_diff", float64(audit))
	if audit != 0 {
		out.fail(fmt.Errorf("state ledger reads %d rows off its audit", audit))
	}

	if err := isolatedLayers(d.w, recorded, p, m); err != nil {
		return nil, err
	}

	path := p.TraceOut
	if path == "" {
		path = filepath.Join(p.Dir, "trace-"+sp.Name+".jsonl")
	}
	if err := d.tr.write(path); err != nil {
		return nil, err
	}
	p.Log("  traced %d searches (%d spans written to %s); untraced %.3f ms/search, traced %.3f ms/search, layers %.3f ms/search",
		len(refDigests), len(d.tr.spans), path, float64(refTime)/1e6/n, float64(traced)/1e6/n, float64(layers)/1e6/n)
	return out, nil
}
