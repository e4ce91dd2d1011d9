package main

// metricDef names one metric of the benchmark. The tables below are the
// source BENCHMARK.json is written from (bench_test.go checks they agree);
// -compare reads bounds and directions from here.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics have none.
	Bound float64
}

// endToEnd are the metrics a person waiting for a search, or paying for the
// machine and the sources, would see. Every workload reports every one, and
// none can read 0. The timings carry the widest bound the contract allows:
// ten runs on ten seeds spread 1.4 to 4.9 % in this machine's quiet hours, and
// its host has slowed every run of a quarter of an hour by 10 to 35 % (see
// README.md).
var endToEnd = []metricDef{
	{"search_mid_ms", "ms", "lower", 0.25},
	{"search_tail_ms", "ms", "lower", 0.25},
	{"searches_per_s", "1/s", "higher", 0.25},
	{"source_tuples_per_search", "count", "lower", 0.15},
	{"alloc_kb_per_search", "KB", "lower", 0.05},
	{"live_heap_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the readings of single layers, taken in the traced run. A
// layer a workload never enters reads 0 there.
var perLayer = []metricDef{
	{"candidates.expand_us", "us", "lower", 0},
	{"candidates.cqs_per_search", "count", "lower", 0},

	{"qsm.admit_us", "us", "lower", 0},
	{"qsm.graft_us", "us", "lower", 0},
	{"qsm.sync_catalog_us", "us", "lower", 0},
	{"qsm.recovered_rows_per_search", "count", "lower", 0},

	{"mqo.optimize_us", "us", "lower", 0},
	{"mqo.search_nodes_per_search", "count", "lower", 0},
	{"mqo.candidates_per_group", "count", "lower", 0},
	{"mqo.optimize_isolated_us", "us", "lower", 0},
	{"andor.add_query_us", "us", "lower", 0},
	{"cq.canonicalize_us", "us", "lower", 0},
	{"factorize.build_us", "us", "lower", 0},

	{"atc.rounds_us", "us", "lower", 0},
	{"atc.rounds_per_search", "count", "lower", 0},
	{"atc.engine_latency_p50_ms", "ms", "lower", 0},

	{"operator.rows_per_search", "count", "lower", 0},
	{"operator.ns_per_row", "ns", "lower", 0},
	{"operator.stream_tuples_per_search", "count", "lower", 0},
	{"operator.probe_tuples_per_search", "count", "lower", 0},
	{"operator.probe_cache_hit_ratio", "ratio", "higher", 0},
	{"operator.join_probes_per_search", "count", "lower", 0},
	{"operator.replay_ratio", "ratio", "higher", 0},

	{"state.evictions_per_search", "count", "lower", 0},
	{"state.spill_rows_written_per_search", "count", "lower", 0},
	{"state.spill_bytes_written_per_search", "B", "lower", 0},
	{"state.spill_rows_read_per_search", "count", "lower", 0},
	{"state.spill_readback_ratio", "ratio", "higher", 0},
	{"state.revivals_from_spill_per_search", "count", "lower", 0},
	{"state.revivals_from_source_per_search", "count", "lower", 0},
	{"state.resident_rows_end", "count", "lower", 0},
	{"state.ledger_audit_diff", "count", "lower", 0},

	{"service.overhead_us", "us", "lower", 0},
	{"service.assemble_us", "us", "lower", 0},

	{"fleet.encode_us", "us", "lower", 0},
	{"fleet.decode_us", "us", "lower", 0},
	{"fleet.view_us", "us", "lower", 0},
	{"fleet.request_bytes", "B", "lower", 0},
	{"fleet.response_bytes", "B", "lower", 0},
	{"fleet.rpc_overhead_us", "us", "lower", 0},
	{"fleet.retries", "count", "lower", 0},
	{"fleet.failovers", "count", "lower", 0},
	{"fleet.rung40_p50_ms", "ms", "lower", 0},
	{"fleet.rung40_p95_ms", "ms", "lower", 0},
	{"fleet.rung80_p95_ms", "ms", "lower", 0},
	{"fleet.rung160_p95_ms", "ms", "lower", 0},
	{"fleet.rung320_p95_ms", "ms", "lower", 0},
	{"fleet.generator_late_max_ms", "ms", "lower", 0},
	{"fleet.sustained_qps", "1/s", "higher", 0},
	{"fleet.saturated_qps", "1/s", "higher", 0},

	{"recovery.journal_admit_us", "us", "lower", 0},

	{"runtime.allocs_per_search", "count", "lower", 0},
	{"runtime.gc_cpu_fraction", "ratio", "lower", 0},
	{"runtime.gc_pause_ms_total", "ms", "lower", 0},

	{"trace.coverage", "ratio", "higher", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}

// defsFor is the table a run emits: per-layer when traced, else end-to-end.
func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// reading is one emitted metric value. Laps holds the per-lap statistics a
// timing metric's median was taken over (empty for counts), so -compare can
// tell a resolved difference from lap noise.
type reading struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Laps  []float64 `json:"laps,omitempty"`
}

// readings collects a run's metrics by name.
type readings map[string]reading

func (r readings) set(defs []metricDef, name string, v float64, laps ...float64) {
	for _, d := range defs {
		if d.Name == name {
			r[name] = reading{Value: v, Unit: d.Unit, Laps: laps}
			return
		}
	}
	panic("bench: metric " + name + " is not in the table")
}
