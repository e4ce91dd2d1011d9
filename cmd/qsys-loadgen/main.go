// Command qsys-loadgen drives an in-process fleet (fleet.NewLocal: a front
// desk over -shards engines) with a closed-loop multi-user workload and
// reports throughput, latency percentiles and the engines' work counters per
// admission-window setting — the serving analogue of Figure 9's SINGLE-OPT
// vs BATCH-OPT comparison. The default state budget models production
// serving, where retained plan state is bounded and evicted under pressure
// (§6.3): there, a window of 0 admits every query alone and each one re-pays
// for evicted state, while a window > 0 co-admits concurrent arrivals so
// they drive the same live source streams — fewer total source-stream tuples
// at equal offered load. With -memory-budget 0 (unbounded state) the
// persistent shared plan graph absorbs the difference: total source work
// becomes invariant to batching and only latency and optimization
// amortization separate the settings.
//
// Usage:
//
//	qsys-loadgen [-workload bio|gus|pfam] [-instance 1]
//	             [-users 8] [-requests 12] [-k 20] [-memory-budget 500]
//	             [-evict-policy lru|benefit] [-spill-dir DIR]
//	             [-windows 0,25ms] [-batch 5] [-shards 1]
//	             [-seed 1] [-router affinity|hash] [-overlap]
//	             [-target URL] [-digest] [-rate 0] [-burst 1] [-arrivals 0]
//
// With -spill-dir set, evicted plan segments spill to disk and revivals read
// them back as local I/O; the report splits retained-state hits into memory
// vs disk and counts revivals served from spill vs re-paid at the sources.
//
// With -shards > 1 the -router flag selects shard placement — affinity
// (default: route each query to the shard whose decaying resident keyword
// set it overlaps most, §6.1 at serving scale) or hash (fixed keyword hash)
// — and each run reports its routing decisions (affinity hits, hash routes,
// estimated sharing-miss rate, per-shard resident keyword-set sizes).
// -overlap augments the pool with overlapping topic variants of each suite
// query, the workload on which placement visibly moves source-side work.
//
// -target drives a running qsys-serve over HTTP instead, and -rate replaces
// the closed loop with an open one. Both loops drive one searcher: the
// in-process front desk, or one POST /search client.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/dist"
	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/workload"
)

// options are the load generator's flags: the serving flags it shares with
// qsys-serve, and the shape of the load.
type options struct {
	service.Flags
	users, requests int
	windows         []time.Duration
	overlap         bool
	target          string
	digest          bool
	rate            float64
	burst           int
	arrivals        int
	userPerRequest  bool
}

func parseOptions(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{Flags: service.Flags{Workload: "gus", Instance: 1, Config: service.Config{
		K: 20, Seed: 1, BatchSize: 5, Shards: 1, Router: service.RouterAffinity,
		MemoryBudget: 500, EvictPolicy: "lru",
	}}}
	o.Bind(fs, service.FrontDeskFlags)
	fs.IntVar(&o.users, "users", 8, "concurrent closed-loop users")
	fs.IntVar(&o.requests, "requests", 12, "searches per user")
	windows := fs.String("windows", "0,25ms", "comma-separated admission windows to compare in process (an open loop runs the first)")
	fs.BoolVar(&o.overlap, "overlap", false, "augment the keyword pool with overlapping topic variants (drop-last and case-folded-duplicate of each suite query) — the workload shard placement is measured on")
	fs.StringVar(&o.target, "target", "", "drive a running qsys-serve (single-process or front-end) at this base URL over HTTP instead of an in-process fleet")
	fs.BoolVar(&o.digest, "digest", false, "print the sha256 result digest of each run (deterministic with -users 1; the multi-process parity gate compares it across serving modes)")
	fs.Float64Var(&o.rate, "rate", 0, "open-loop mode: offered arrival rate in searches/sec (Poisson arrivals from a seeded schedule, independent of completions); 0 = closed loop")
	fs.IntVar(&o.burst, "burst", 1, "open-loop burstiness: arrivals come in clusters of this size at each Poisson epoch (offered rate unchanged)")
	fs.IntVar(&o.arrivals, "arrivals", 0, "open-loop arrival count (0 = users*requests)")
	fs.BoolVar(&o.userPerRequest, "user-per-request", false, "with -users 1: name a fresh user per request, pinning each request's scoring coefficients independently of arrival interleaving — makes adigest comparable between closed-loop and open-loop runs even when Poisson arrivals overlap")
	if err := o.Parse(args); err != nil {
		return nil, err
	}
	for _, s := range strings.Split(*windows, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		d := time.Duration(0)
		if s != "0" {
			var err error
			if d, err = time.ParseDuration(s); err != nil {
				return nil, fmt.Errorf("bad window %q: %v", s, err)
			}
		}
		o.windows = append(o.windows, d)
	}
	if len(o.windows) == 0 {
		return nil, errors.New("no windows to run")
	}
	return o, nil
}

// config is the in-process fleet's configuration at one admission window,
// which also bounds the adaptive window.
func (o *options) config(window time.Duration) service.Config {
	cfg := o.Config
	cfg.BatchWindow, cfg.Admission.WindowMax = window, window
	if cfg.SpillDir != "" {
		// Separate windows must not inherit each other's segments.
		cfg.SpillDir = filepath.Join(cfg.SpillDir, fmt.Sprintf("w%d", window/time.Microsecond))
	}
	return cfg
}

// user names the poser of user u's i-th search.
func (o *options) user(u, i int) string {
	if o.userPerRequest && o.users == 1 {
		return fmt.Sprintf("u%d", i)
	}
	return fmt.Sprintf("user%d", u)
}

// searcher runs one search.
type searcher func(ctx context.Context, user string, keywords []string) (*fleet.ResultView, error)

// connect returns what one run drives: a fresh in-process fleet at the
// admission window and its front desk's Search, or the HTTP client of
// -target (fr nil).
func (o *options) connect(window time.Duration) (search searcher, fr *fleet.Frontend, err error) {
	if o.target != "" {
		return httpSearcher(o.target, o.Config.K, o.Config.Admission.Deadline), nil, nil
	}
	// A fresh workload per run keeps the comparison honest: no run inherits
	// another's materialised source views.
	w, err := workload.ByName(o.Workload, o.Instance)
	if err != nil {
		return nil, nil, err
	}
	fr, err = fleet.NewLocal(w, o.config(window))
	if err != nil {
		return nil, nil, err
	}
	return func(ctx context.Context, user string, kw []string) (*fleet.ResultView, error) {
		return fr.Search(ctx, user, kw, o.Config.K)
	}, fr, nil
}

func main() {
	o, err := parseOptions(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "qsys-loadgen:", err)
		os.Exit(2)
	}
	w, err := workload.ByName(o.Workload, o.Instance)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	pool := keywordPool(w)
	if o.overlap {
		pool = overlapPool(pool)
	}
	if o.rate > 0 {
		os.Exit(runOpenLoop(o, pool))
	}
	os.Exit(runClosedLoop(o, pool))
}

// runClosedLoop runs the closed loop once against -target, or once per
// admission window in process, prints the report and returns the exit code.
func runClosedLoop(o *options, pool [][]string) int {
	cfg := o.Config
	if o.target != "" {
		rep := closedLoop(o, pool, httpSearcher(o.target, cfg.K, cfg.Admission.Deadline))
		fmt.Printf("target %s: %d users x %d requests, k=%d, workload=%s\n",
			o.target, o.users, o.requests, cfg.K, o.Workload)
		fmt.Printf("qps=%.1f errors=%d retries=%d p50=%v p95=%v p99=%v\n",
			rep.qps(), rep.failed(), rep.retries, rep.p(0.50), rep.p(0.95), rep.p(0.99))
		rep.printDigests()
		if rep.failed() > 0 {
			return 1
		}
		return 0
	}

	mode := "discard"
	if cfg.SpillDir != "" {
		mode = "spill"
	}
	fmt.Printf("closed-loop load: %d users x %d requests, k=%d, batch=%d, shards=%d (router=%s), budget=%d rows (%s, policy=%s), workload=%s\n\n",
		o.users, o.requests, cfg.K, cfg.BatchSize, cfg.Shards, cfg.Router, cfg.MemoryBudget, mode, cfg.EvictPolicy, o.Workload)
	fmt.Printf("%-8s %8s %6s %9s %9s %9s %11s %11s %9s %9s %6s %7s %7s %7s %6s\n",
		"window", "qps", "err", "p50", "p95", "p99", "streamTup", "totalTup", "replayed", "spilledR", "evict", "revSp", "revSrc", "mem/dsk", "occ")

	multiShard := cfg.Shards > 1
	for _, span := range o.windows {
		search, fr, err := o.connect(span)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		rep := closedLoop(o, pool, search)
		stats := fr.Stats(context.Background())
		fr.Close() //nolint:errcheck // the run's numbers are already taken
		evictions := 0
		for _, sh := range stats.Shards {
			evictions += sh.Evictions
		}
		split := stats.Shared
		fmt.Printf("%-8v %8.1f %6d %9v %9v %9v %11d %11d %9d %9d %6d %7d %7d %3.0f/%-3.0f %6.2f\n",
			span, rep.qps(), rep.failed(),
			rep.p(0.50), rep.p(0.95), rep.p(0.99),
			stats.Work.StreamTuples, stats.Work.TuplesConsumed(),
			stats.Work.ReplayTuples, stats.Work.SpillRowsRead,
			evictions, stats.Work.RevivalsFromSpill, stats.Work.RevivalsFromSource,
			100*split.MemoryHit, 100*split.DiskHit,
			stats.Service.BatchOccupancy.Mean)
		if multiShard {
			rt := stats.Router
			kws := make([]int, 0, len(rt.Shards))
			for _, rs := range rt.Shards {
				kws = append(kws, rs.Keywords)
			}
			fmt.Printf("  router[%v]: mode=%s decisions=%d affinity=%d hash=%d missRate=%.2f kwSets=%v\n",
				span, rt.Mode, rt.Decisions, rt.AffinityHits, rt.HashRoutes, rt.MissRate, kws)
		}
		if eb := stats.Service.ExecBatch; eb.Count > 0 {
			fmt.Printf("  batch[%v]: flushes=%d rows/flush(mean=%.1f max=%d) full=%d partial=%d\n",
				span, eb.Count, eb.Mean, eb.Max,
				stats.Service.ExecBatchFull, eb.Count-stats.Service.ExecBatchFull)
		}
		rep.printDigests()
	}
	fmt.Println("\nstreamTup/totalTup: rows fetched from sources; replayed: rows served from retained memory")
	fmt.Println("state; spilledR: rows read back from the disk tier; revSp/revSrc: evicted segments revived")
	fmt.Println("from spill vs re-derived by source replay; mem/dsk: shared-work split (% of all rows).")
	fmt.Println("Under a bounded state budget, a window > 0 co-admits concurrent arrivals so they share")
	fmt.Println("live source streams before eviction can strike — fewer source tuples at equal load; a")
	fmt.Println("spill dir turns the remaining evictions into local disk reads instead of source re-reads.")
	if multiShard {
		fmt.Println("router lines: affinity = decisions placed by overlap with a shard's resident keywords;")
		fmt.Println("hash = fixed-hash placements (all of them with -router=hash); missRate = fraction of")
		fmt.Println("decisions routed away from the shard whose resident set best covered the query.")
	}
	return 0
}

// closedLoop runs -users users, each posing -requests searches one after
// another, drawn Zipf-weighted from the pool by a per-user seeded stream.
func closedLoop(o *options, pool [][]string, search searcher) *report {
	rep := newReport(o)
	var wg sync.WaitGroup
	start := time.Now()
	for u := 0; u < o.users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			zipf := dist.NewZipf(dist.New(o.Config.Seed+uint64(u)*977+3), len(pool), 0.8)
			backoff := dist.New(o.Config.Seed + uint64(u)*977 + 4)
			for i := 0; i < o.requests; i++ {
				t0 := time.Now()
				view, tries, err := withRetries(search, o.user(u, i), pool[zipf.Next()], backoff)
				rep.record(time.Since(t0), tries, view, err)
			}
		}(u)
	}
	wg.Wait()
	rep.wall = time.Since(start)
	return rep
}

// maxRetries bounds how often the closed loop resubmits one search.
const maxRetries = 5

// withRetries runs one closed-loop search, resubmitting it with jittered
// exponential backoff while it is turned away before admission — shed (a
// 503 over HTTP, from a saturated, draining or closed server) or refused a
// connection by a restarting one. Any other failure is final: the query may
// already have executed. It returns the number of resubmissions.
func withRetries(search searcher, user string, kw []string, rng *dist.RNG) (*fleet.ResultView, int, error) {
	for tries := 0; ; tries++ {
		view, err := search(context.Background(), user, kw)
		var shed *admission.ShedError
		var op *net.OpError
		retry := errors.As(err, &shed) || errors.As(err, &op) && op.Op == "dial"
		if !retry || tries == maxRetries {
			return view, tries, err
		}
		base := 25 * time.Millisecond << uint(tries)
		time.Sleep(base + time.Duration(rng.Intn(int(base)+1)))
	}
}

// httpSearcher is the one HTTP client of both loops: each search is a single
// POST /search to target, bounded by deadline when it is positive. A 503
// comes back as the *admission.ShedError its body describes.
func httpSearcher(target string, k int, deadline time.Duration) searcher {
	target = strings.TrimRight(target, "/")
	client := &http.Client{Timeout: 60 * time.Second}
	return func(ctx context.Context, user string, kw []string) (*fleet.ResultView, error) {
		if deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, deadline)
			defer cancel()
		}
		body, _ := json.Marshal(map[string]any{"user": user, "keywords": kw, "k": k})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+"/search", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			if resp.StatusCode != http.StatusServiceUnavailable {
				return nil, fmt.Errorf("search: status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
			}
			shed := &admission.ShedError{Reason: "unavailable"}
			var we struct {
				Reason       string `json:"reason"`
				RetryAfterMS int64  `json:"retry_after_ms"`
			}
			if json.Unmarshal(data, &we) == nil && we.Reason != "" {
				shed.Reason = we.Reason
				shed.RetryAfter = time.Duration(we.RetryAfterMS) * time.Millisecond
			}
			return nil, shed
		}
		var view fleet.ResultView
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			return nil, err
		}
		return &view, nil
	}
}

// runOpenLoop offers load on a fixed seeded schedule, independent of
// completions: Poisson epochs (optionally carrying -burst arrivals each) fire
// whether or not earlier requests finished, which is what makes saturation
// visible — a closed loop self-throttles at capacity, an open loop keeps
// offering and forces the server to shed. Each arrival is a single attempt:
// retrying inside the generator would convert offered load into closed-loop
// feedback and hide the shed rate being measured. It returns the exit code.
func runOpenLoop(o *options, pool [][]string) int {
	users, burst := max(o.users, 1), max(o.burst, 1)
	n := o.arrivals
	if n <= 0 {
		n = o.users * o.requests
	}

	// The whole schedule is precomputed from seeded streams before the first
	// request fires, so identical flags replay identical offered load: epoch
	// gaps are exponential with mean burst/rate (burst arrivals per epoch
	// keeps the offered rate at -rate while clustering it), and the keyword
	// stream is drawn in arrival order — with one user it is byte-identical
	// to the closed-loop user0 stream, which is what lets adigest compare
	// across loop disciplines.
	sched := dist.New(o.Config.Seed + 11)
	times := make([]time.Duration, n)
	var clock float64 // seconds
	for i := 0; i < n; i++ {
		if i%burst == 0 {
			clock += -math.Log(1-sched.Float64()) / (o.rate / float64(burst))
		}
		times[i] = time.Duration(clock * float64(time.Second))
	}
	zipf := dist.NewZipf(dist.New(o.Config.Seed+3), len(pool), 0.8)
	kws := make([][]string, n)
	for i := range kws {
		kws[i] = pool[zipf.Next()]
	}

	search, fr, err := o.connect(o.windows[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	type outcome struct {
		lat  time.Duration
		view *fleet.ResultView
		err  error
	}
	outs := make([]outcome, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(time.Until(start.Add(times[i])))
			t0 := time.Now()
			view, err := search(context.Background(), o.user(i%users, i), kws[i])
			outs[i] = outcome{time.Since(t0), view, err}
		}(i)
	}
	wg.Wait()
	// Record in arrival order so the digests are deterministic.
	rep := newReport(o)
	rep.wall = time.Since(start)
	for _, out := range outs {
		rep.record(out.lat, 0, out.view, out.err)
	}

	where := "in-process"
	if o.target != "" {
		where = o.target
	}
	fmt.Printf("open-loop load: rate=%.1f/s burst=%d arrivals=%d users=%d k=%d workload=%s target=%s\n",
		o.rate, burst, n, users, o.Config.K, o.Workload, where)
	achieved := 0.0
	if span := times[n-1]; span > 0 {
		achieved = float64(n-1) / span.Seconds()
	}
	fmt.Printf("offered=%.1f/s achieved=%.1f/s wall=%v\n", o.rate, achieved, rep.wall.Round(time.Millisecond))
	shedCount := rep.failed() - rep.errors
	fmt.Printf("served=%d goodput=%.1f/s shed=%d (%.1f%%) errors=%d\n",
		len(rep.lats), rep.qps(), shedCount, 100*float64(shedCount)/float64(n), rep.errors)
	if shedCount > 0 {
		parts := make([]string, 0, len(rep.shed))
		for r, c := range rep.shed {
			parts = append(parts, fmt.Sprintf("%s=%d", r, c))
		}
		sort.Strings(parts)
		fmt.Printf("shed reasons: %s\n", strings.Join(parts, " "))
	}
	for _, e := range rep.firstErrs {
		fmt.Printf("error: %s\n", e)
	}
	fmt.Printf("latency served: p50=%v p95=%v p99=%v max=%v\n",
		rep.p(0.50), rep.p(0.95), rep.p(0.99), rep.p(1))
	if fr != nil {
		ss := fr.Stats(context.Background()).Service
		fmt.Printf("admission: shed=%d user-rate=%d queue-full=%d deadline-canceled=%d\n",
			ss.Shed, ss.ShedUserRate, ss.ShedQueueFull, ss.DeadlineCanceled)
		fr.Close() //nolint:errcheck // the run's numbers are already taken
	}
	rep.printDigests()
	if len(rep.lats) == 0 {
		fmt.Fprintln(os.Stderr, "open-loop run served nothing")
		return 1
	}
	return 0
}

// report collects one run's outcomes. record is safe for concurrent use.
type report struct {
	mu        sync.Mutex
	lats      []time.Duration // served searches; sorted by p
	shed      map[string]int  // by reason
	errors    int
	firstErrs []string
	retries   int
	// digest hashes every served view, adigest folds the answers alone
	// (with -users 1), both in record order; nil without -digest.
	digest, adigest hash.Hash
	wall            time.Duration
}

func newReport(o *options) *report {
	r := &report{shed: map[string]int{}}
	if o.digest {
		r.digest = sha256.New()
		if o.users == 1 {
			r.adigest = sha256.New()
		}
	}
	return r
}

// record files one search's fate: served, shed (by the server, or by the
// request's own deadline — the same fate seen from the other end of the
// wire), or failed.
func (r *report) record(lat time.Duration, tries int, view *fleet.ResultView, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.retries += tries
	var shed *admission.ShedError
	switch {
	case err == nil:
		r.lats = append(r.lats, lat)
		if r.digest != nil {
			fleet.DigestView(r.digest, view)
		}
		if r.adigest != nil {
			foldAnswers(r.adigest, view)
		}
	case errors.As(err, &shed):
		r.shed[shed.Reason]++
	case errors.Is(err, context.DeadlineExceeded):
		r.shed[admission.ReasonDeadline]++
	default:
		r.errors++
		if len(r.firstErrs) < 3 {
			r.firstErrs = append(r.firstErrs, err.Error())
		}
	}
}

// failed counts the searches that were not served.
func (r *report) failed() int {
	n := r.errors
	for _, c := range r.shed {
		n += c
	}
	return n
}

func (r *report) qps() float64 {
	if r.wall <= 0 {
		return 0
	}
	return float64(len(r.lats)) / r.wall.Seconds()
}

func (r *report) p(q float64) time.Duration {
	if len(r.lats) == 0 {
		return 0
	}
	sort.Slice(r.lats, func(i, j int) bool { return r.lats[i] < r.lats[j] })
	i := int(q*float64(len(r.lats))) - 1
	if i < 0 {
		i = 0
	}
	return r.lats[i].Round(time.Microsecond)
}

func (r *report) printDigests() {
	if r.digest != nil {
		fmt.Printf("digest=%s\n", hex.EncodeToString(r.digest.Sum(nil)))
	}
	if r.adigest != nil {
		fmt.Printf("adigest=%s\n", hex.EncodeToString(r.adigest.Sum(nil)))
	}
}

// foldAnswers folds one served result into an answers-only run digest: the
// per-result fleet.DigestAnswers hash, folded in arrival order. Because the
// UQ prefix is stripped and sheds renumber nothing the client sees, a
// below-saturation open-loop run folds to the same adigest as the closed-loop
// run that issued the same keyword stream — the byte-identity half of the
// degradation contract, checked by CI across serving modes.
func foldAnswers(run hash.Hash, view *fleet.ResultView) {
	sub := sha256.New()
	fleet.DigestAnswers(sub, view)
	io.WriteString(run, hex.EncodeToString(sub.Sum(nil)))
}

// overlapPool interleaves each base search with its overlapping topic
// variants (workload.OverlapVariants — the same rules the service package's
// hash-vs-affinity test searches, so CI's loadgen comparison and that test
// exercise one workload).
func overlapPool(pool [][]string) [][]string {
	out := make([][]string, 0, 3*len(pool))
	for _, base := range pool {
		out = append(out, base)
		out = append(out, workload.OverlapVariants(base)...)
	}
	return out
}

// keywordPool collects the searches the load draws from: the workload's
// bundled query suite, or the Figure 1 scenario for the bio schema.
func keywordPool(w *workload.Workload) [][]string {
	var pool [][]string
	for _, s := range w.Submissions {
		if len(s.UQ.Keywords) > 0 {
			pool = append(pool, s.UQ.Keywords)
		}
	}
	if len(pool) == 0 {
		pool = [][]string{
			{"protein", "plasma membrane", "gene"},
			{"protein", "metabolism"},
			{"membrane", "gene"},
			{"metabolism", "gene"},
			{"membrane", "protein"},
		}
	}
	return pool
}
