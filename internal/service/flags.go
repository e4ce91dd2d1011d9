package service

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/state"
)

// FlagGroup selects a set of the serving flags Flags.Bind declares. Every
// binary takes the engine and workload flags; a binary binds only the other
// groups it honours.
type FlagGroup uint8

const (
	// ServerFlags are a serving process's own: -addr, -window, -realtime
	// (qsys-serve, qsys-shard).
	ServerFlags FlagGroup = 1 << iota
	// FrontDeskFlags place and rate-limit searches over several engines:
	// -shards, -router, -user-rate, -total-rate (qsys-serve, qsys-loadgen).
	FrontDeskFlags
	// ShardFlags give one engine its fleet slot and recovery tier:
	// -shard-id, -recover-dir, -checkpoint-interval (qsys-shard).
	ShardFlags
)

// engineOnly names the bound flags that configure an engine and nothing
// else, so a front-end over shard processes has no use for them.
var engineOnly = map[string]bool{
	"batch": true, "memory-budget": true, "evict-policy": true, "spill-dir": true,
	"max-pending": true, "deadline": true, "adaptive-window": true, "max-inflight": true,
	"window": true, "realtime": true, "shards": true,
}

// Flags is what the serving flags set: the listen address, the workload to
// load, and the service configuration. The values a binary puts in before
// Bind are its flags' defaults.
type Flags struct {
	Addr     string
	Workload string
	Instance int
	Config   Config

	fs     *flag.FlagSet
	groups FlagGroup
}

// Bind declares the workload and engine flags, and those of groups, on fs.
// Each flag writes its field of f and defaults to the field's current value.
func (f *Flags) Bind(fs *flag.FlagSet, groups FlagGroup) {
	f.fs, f.groups = fs, groups
	c, a := &f.Config, &f.Config.Admission
	fs.StringVar(&f.Workload, "workload", f.Workload, "workload: bio, gus, pfam")
	fs.IntVar(&f.Instance, "instance", f.Instance, "GUS instance (1-4)")
	fs.IntVar(&c.K, "k", c.K, "default answers per search")
	fs.Uint64Var(&c.Seed, "seed", c.Seed, "deterministic delay/scoring seed (a front-end and its shard processes must share it)")
	fs.IntVar(&c.BatchSize, "batch", c.BatchSize, "admission batch size trigger (negative = window only)")
	fs.IntVar(&c.MemoryBudget, "memory-budget", c.MemoryBudget, "retained-state budget in rows per engine (0 = unbounded)")
	fs.StringVar(&c.EvictPolicy, "evict-policy", c.EvictPolicy, "eviction policy under the budget: lru or benefit")
	fs.StringVar(&c.SpillDir, "spill-dir", c.SpillDir, "spill evicted plan segments to per-engine dirs under this path instead of discarding (removed on close)")
	fs.IntVar(&a.MaxPending, "max-pending", a.MaxPending, "admission: bound each engine's queue, shedding beyond it as retryable 503 + Retry-After (0 = unbounded)")
	fs.DurationVar(&a.Deadline, "deadline", a.Deadline, "admission: per-search latency budget; a search past it is canceled mid-merge and shed non-retryably (0 = off); qsys-loadgen -target also bounds each request by it")
	fs.BoolVar(&a.AdaptiveWindow, "adaptive-window", a.AdaptiveWindow, "admission: replace the fixed batch window with a control loop over queue depth and recent latency (bounded by the window)")
	fs.IntVar(&a.MaxInFlight, "max-inflight", a.MaxInFlight, "admission: bound concurrently executing merges per engine so deadline shedding can trim the queue while admitted searches still finish in budget (0 = unbounded)")
	if groups&ServerFlags != 0 {
		fs.StringVar(&f.Addr, "addr", f.Addr, "listen address")
		fs.DurationVar(&c.BatchWindow, "window", c.BatchWindow, "admission batch window (0 = admit immediately)")
		fs.BoolVar(&c.RealTime, "realtime", c.RealTime, "sleep simulated delays for real (live demo pacing)")
	}
	if groups&FrontDeskFlags != 0 {
		fs.IntVar(&c.Shards, "shards", c.Shards, "independent in-process engines, one goroutine each")
		fs.StringVar(&c.Router, "router", c.Router, "shard placement: affinity (route by overlap with each shard's resident keywords, hash fallback) or hash (fixed keyword hash)")
		fs.Float64Var(&a.UserRate, "user-rate", a.UserRate, "admission: per-user token-bucket rate in searches/sec, shed as retryable 503 + Retry-After beyond it (0 = off)")
		fs.Float64Var(&a.TotalRate, "total-rate", a.TotalRate, "admission: global rate fair-arbitrated across active users (0 = off)")
	}
	if groups&ShardFlags != 0 {
		fs.IntVar(&c.ShardIDOffset, "shard-id", c.ShardIDOffset, "fleet slot this process serves: seeds the engine as engine <id> of an equivalent single-process service")
		fs.StringVar(&c.CheckpointDir, "recover-dir", c.CheckpointDir, "durable checkpoint + admission-journal directory; enables crash recovery and warm restart over the same path (survives shutdown)")
		fs.DurationVar(&c.CheckpointInterval, "checkpoint-interval", c.CheckpointInterval, "period of the checkpoint loop under -recover-dir (0 = checkpoint only on demand)")
	}
}

// Parse parses args into f and validates the configuration they describe.
// The -window flag bounds the adaptive window as well as the fixed one.
func (f *Flags) Parse(args []string) error {
	if err := f.fs.Parse(args); err != nil {
		return err
	}
	if f.groups&ServerFlags != 0 {
		f.Config.Admission.WindowMax = f.Config.BatchWindow
	}
	return f.Config.Validate()
}

// EngineFlagsSet names, in lexical order, the engine-only flags given on
// the command line: a front-end whose engines live in shard processes
// refuses them rather than ignore them.
func (f *Flags) EngineFlagsSet() []string {
	var set []string
	f.fs.Visit(func(fl *flag.Flag) {
		if engineOnly[fl.Name] {
			set = append(set, "-"+fl.Name)
		}
	})
	return set
}

// Validate reports the settings New would panic on: an unknown eviction
// policy or router, a negative shard id, and a spill or checkpoint
// directory that cannot be created (it creates them).
func (c Config) Validate() error {
	if _, err := state.ParsePolicy(c.EvictPolicy); err != nil {
		return err
	}
	if _, err := ParseRouter(c.Router); err != nil {
		return err
	}
	if c.ShardIDOffset < 0 {
		return fmt.Errorf("service: shard id %d is negative", c.ShardIDOffset)
	}
	for _, dir := range []string{c.SpillDir, c.CheckpointDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("service: %w", err)
		}
	}
	return nil
}
