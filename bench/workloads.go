package main

import (
	"fmt"
	"math/rand"

	"repro/internal/service"
	"repro/internal/workload"
)

const (
	topK = 50
	// poolBase is how many of the GUS instance-1 suite queries seed the
	// keyword pool; each contributes itself and its two overlap variants.
	poolBase = 14
	// brokenSuiteQuery is the suite query left out of the pool ("expression
	// binding"): on a warm plan graph the engine answers it with a top-k that
	// misses results the brute-force oracle finds (a cold engine answers it
	// correctly; see README.md for the reproduction). A benchmark runs only
	// searches that succeed, so it stays out until a correctness issue fixes
	// the engine.
	brokenSuiteQuery = 3
	// poolOrderSeed fixes the interleaving of the pool within a pass.
	poolOrderSeed = 42
)

var users = [3]string{"ada", "grace", "edsger"}

// spec is one benchmark workload: which data, which memory regime, which
// topology. Everything else (pool, users, k, Workers: 1, BatchWindow: 0,
// virtual clock) is common to all four.
type spec struct {
	Name string
	Why  string
	// Scale sizes the GUS instance.
	Scale workload.GUSScale
	// Budget is service.Config.MemoryBudget in rows (0 = unbounded).
	Budget int
	// Spill sets service.Config.SpillDir, turning discard eviction into
	// spill eviction.
	Spill bool
	// Fleet runs the searches through a fleet.Frontend over two HTTP shard
	// servers instead of one in-process service.
	Fleet bool
	// Warmup is the number of passes over the pool inside set-up.
	Warmup int
	// Ungated says why the driver does not run this workload (it is not in
	// BENCHMARK.json); the full run, -compare and --workload still do.
	Ungated string
}

// scanScale is GUS at ten times the default rows: the unbounded working set
// of the pool (~570 k state rows) is then about ten times scanBudget.
func scanScale() workload.GUSScale {
	s := workload.GUSScaleDefault()
	s.EntityMinRows, s.EntityMaxRows = 4000, 10000
	return s
}

const scanBudget = 60000

var specs = []spec{
	{
		Name:   "repeat_warm",
		Why:    "working set fits and every search repeats or overlaps an earlier one, so admission (expand, optimize, graft) is the cost and the executor is almost idle",
		Scale:  workload.GUSScaleDefault(),
		Warmup: 2,
	},
	{
		Name:   "scan_discard",
		Why:    "state is ten times the memory budget and evicted plans are re-derived from the sources, so stream read, probe, m-join and rank-merge do most of the work",
		Scale:  scanScale(),
		Budget: scanBudget,
		Warmup: 1,
	},
	{
		Name:   "scan_spill",
		Why:    "scan_discard's inputs with the spill tier on: evicted state is written to segment files and read back, trading source tuples for disk traffic in graft and revive",
		Scale:  scanScale(),
		Budget: scanBudget,
		Spill:  true,
		Warmup: 1,
		// Every eviction fsyncs a segment file and its directory, about 14
		// fsyncs a search. Measured: with the segment files on tmpfs
		// search_mid_ms read 25.0 and 23.8 ms where the checkout's disk read
		// 28.8 and 29.9 in alternating runs, and ten consecutive runs spread
		// 20 to 23 % on the three timings (the last three of them slower by a
		// fifth, set-up too) while the other workloads, run before and after,
		// spread 1 to 6 %.
		Ungated: "its searches wait for about 14 fsyncs each on the checkout's disk, a shared virtual disk that slowed three consecutive runs of ten by a fifth",
	},
	{
		Name:   "fleet_ladder",
		Why:    "front-end over two HTTP shard servers: the only workload with the HTTP/JSON hop and shard routing, and in its traced run a Poisson rate ladder with concurrency and queueing",
		Scale:  workload.GUSScaleDefault(),
		Fleet:  true,
		Warmup: 2,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// serviceConfig is the engine configuration of a workload. Workers is pinned
// to 1: the parallel executor races (see README.md), so it cannot be
// benchmarked yet.
func (s spec) serviceConfig(seed uint64, spillDir string) service.Config {
	cfg := service.Config{
		K:            topK,
		Seed:         seed,
		Workers:      1,
		BatchWindow:  0,
		MemoryBudget: s.Budget,
	}
	if s.Spill {
		cfg.SpillDir = spillDir
	}
	return cfg
}

// keywordPool derives the keyword sets from the first n usable suite queries:
// the base sets, then a canonically equal variant of each, then a drop-last
// overlap of each (42 sets at n = 14).
func keywordPool(w *workload.Workload, n int) [][]string {
	var base, equal, overlap [][]string
	for i, sub := range w.Submissions {
		if i == brokenSuiteQuery {
			continue
		}
		if len(base) == n {
			break
		}
		kw := sub.UQ.Keywords
		base = append(base, kw)
		v := workload.OverlapVariants(kw)
		overlap = append(overlap, v[0])
		equal = append(equal, v[1])
	}
	return append(append(base, equal...), overlap...)
}

// search is one generated input: a user posing a keyword set.
type search struct {
	User     string
	Keywords []string
}

// passOf returns pass number pass of the schedule for a seed. Every pass is
// the whole pool in one fixed interleaving of base sets, equal variants and
// overlaps, cycled from an offset the seed picks, each search posed by a user
// the seed picks. The interleaving is the same for every seed on purpose: with
// state ten times the memory budget, what a search costs depends on how long
// ago its topic was last posed, and a per-seed shuffle of 42 sets moved the
// scan workloads' source tuples by 8 % and their latency by 13 % between
// seeds, more than any change the benchmark is meant to resolve. A pass
// depends only on (seed, pass), so the traced run replays exactly the
// searches the untraced run posed.
func passOf(pool [][]string, seed uint64, pass int) []search {
	order := rand.New(rand.NewSource(poolOrderSeed)).Perm(len(pool))
	offset := rand.New(rand.NewSource(int64(seed))).Intn(len(pool))
	rng := rand.New(rand.NewSource(int64(seed)*1_000_003 + int64(pass)))
	out := make([]search, len(pool))
	for i := range out {
		out[i] = search{User: users[rng.Intn(len(users))], Keywords: pool[order[(offset+i)%len(pool)]]}
	}
	return out
}
