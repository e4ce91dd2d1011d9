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
	"repro/internal/state"
	"repro/internal/workload"
)

func main() {
	wl := flag.String("workload", "gus", "workload: bio, gus, pfam")
	instance := flag.Int("instance", 1, "GUS instance (1-4)")
	users := flag.Int("users", 8, "concurrent closed-loop users")
	requests := flag.Int("requests", 12, "searches per user")
	k := flag.Int("k", 20, "answers per search")
	windows := flag.String("windows", "0,25ms", "comma-separated admission windows to compare")
	batch := flag.Int("batch", 5, "admission batch size trigger")
	shards := flag.Int("shards", 1, "engine shards")
	routerMode := flag.String("router", "affinity", "shard placement: affinity (route by overlap with each shard's resident keywords, hash fallback) or hash (fixed keyword hash)")
	overlap := flag.Bool("overlap", false, "augment the keyword pool with overlapping topic variants (drop-last and case-folded-duplicate of each suite query) — the workload shard placement is measured on")
	seed := flag.Uint64("seed", 1, "workload draw seed")
	budget := flag.Int("memory-budget", 500, "retained-state budget in rows per engine (0 = unbounded)")
	policy := flag.String("evict-policy", "lru", "eviction policy under the budget: lru or benefit")
	spillDir := flag.String("spill-dir", "", "spill evicted plan segments to per-shard dirs under this path instead of discarding (removed on close)")
	target := flag.String("target", "", "drive a running qsys-serve (single-process or front-end) at this base URL over HTTP instead of an in-process fleet; transient rejections (503, connection refused) are retried with jittered backoff and reported")
	digest := flag.Bool("digest", false, "with -target: print the sha256 result digest of the run (deterministic with -users 1; the multi-process parity gate compares it across serving modes)")
	rate := flag.Float64("rate", 0, "open-loop mode: offered arrival rate in searches/sec (Poisson arrivals from a seeded schedule, independent of completions); 0 = closed loop")
	burst := flag.Int("burst", 1, "open-loop burstiness: arrivals come in clusters of this size at each Poisson epoch (offered rate unchanged)")
	arrivals := flag.Int("arrivals", 0, "open-loop arrival count (0 = users*requests)")
	deadline := flag.Duration("deadline", 0, "per-request latency budget: in-process it configures admission deadline shedding; with -target it bounds each request context")
	maxPending := flag.Int("max-pending", 0, "in-process admission: bound each engine's queue, shedding beyond it (0 = unbounded)")
	userRate := flag.Float64("user-rate", 0, "in-process admission: per-user token-bucket rate in searches/sec (0 = off)")
	totalRate := flag.Float64("total-rate", 0, "in-process admission: global admission rate, fair-arbitrated across active users (0 = off)")
	adaptiveWindow := flag.Bool("adaptive-window", false, "in-process admission: replace the fixed batch window with the queue/latency control loop")
	maxInFlight := flag.Int("max-inflight", 0, "in-process admission: bound concurrently executing merges per shard; excess stays queued (0 = unbounded)")
	userPerRequest := flag.Bool("user-per-request", false, "with -users 1: name a fresh user per request, pinning each request's scoring coefficients independently of arrival interleaving — makes adigest comparable between closed-loop and open-loop runs even when Poisson arrivals overlap")
	flag.Parse()

	adm := admission.Config{
		UserRate:       *userRate,
		TotalRate:      *totalRate,
		MaxPending:     *maxPending,
		Deadline:       *deadline,
		MaxInFlight:    *maxInFlight,
		AdaptiveWindow: *adaptiveWindow,
	}

	if *rate > 0 {
		n := *arrivals
		if n <= 0 {
			n = *users * *requests
		}
		runOpenLoop(openLoopConfig{
			target: *target, wl: *wl, instance: *instance,
			rate: *rate, burst: *burst, arrivals: n, users: *users, k: *k,
			seed: *seed, overlap: *overlap, digest: *digest,
			userPerRequest: *userPerRequest,
			deadline:       *deadline, adm: adm,
			window: firstWindow(*windows), batch: *batch, shards: *shards,
			router: *routerMode, budget: *budget, policy: *policy,
		})
		return
	}

	if *target != "" {
		runTarget(*target, *wl, *instance, *users, *requests, *k, *seed, *overlap, *digest, *userPerRequest)
		return
	}

	if _, err := state.ParsePolicy(*policy); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if _, err := service.ParseRouter(*routerMode); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *spillDir != "" {
		if err := os.MkdirAll(*spillDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "qsys-loadgen: -spill-dir: %v\n", err)
			os.Exit(2)
		}
	}

	var spans []time.Duration
	for _, s := range strings.Split(*windows, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		if s == "0" {
			spans = append(spans, 0)
			continue
		}
		d, err := time.ParseDuration(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad window %q: %v\n", s, err)
			os.Exit(2)
		}
		spans = append(spans, d)
	}
	if len(spans) == 0 {
		fmt.Fprintln(os.Stderr, "no windows to run")
		os.Exit(2)
	}

	mode := "discard"
	if *spillDir != "" {
		mode = "spill"
	}
	fmt.Printf("closed-loop load: %d users x %d requests, k=%d, batch=%d, shards=%d (router=%s), budget=%d rows (%s, policy=%s), workload=%s\n\n",
		*users, *requests, *k, *batch, *shards, *routerMode, *budget, mode, *policy, *wl)
	fmt.Printf("%-8s %8s %6s %9s %9s %9s %11s %11s %9s %9s %6s %7s %7s %7s %6s\n",
		"window", "qps", "err", "p50", "p95", "p99", "streamTup", "totalTup", "replayed", "spilledR", "evict", "revSp", "revSrc", "mem/dsk", "occ")

	multiShard := *shards > 1
	for _, span := range spans {
		rep, err := run(*wl, *instance, span, *users, *requests, *k, *batch, *shards, *budget, *seed, *policy, *spillDir, *routerMode, *overlap)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		evictions := 0
		for _, sh := range rep.stats.Shards {
			evictions += sh.Evictions
		}
		split := rep.stats.Shared
		fmt.Printf("%-8v %8.1f %6d %9v %9v %9v %11d %11d %9d %9d %6d %7d %7d %3.0f/%-3.0f %6.2f\n",
			span, rep.qps, rep.errors,
			rep.p(0.50), rep.p(0.95), rep.p(0.99),
			rep.stats.Work.StreamTuples, rep.stats.Work.TuplesConsumed(),
			rep.stats.Work.ReplayTuples, rep.stats.Work.SpillRowsRead,
			evictions, rep.stats.Work.RevivalsFromSpill, rep.stats.Work.RevivalsFromSource,
			100*split.MemoryHit, 100*split.DiskHit,
			rep.stats.Service.BatchOccupancy.Mean)
		if multiShard {
			rt := rep.stats.Router
			kws := make([]int, 0, len(rt.Shards))
			for _, rs := range rt.Shards {
				kws = append(kws, rs.Keywords)
			}
			fmt.Printf("  router[%v]: mode=%s decisions=%d affinity=%d hash=%d missRate=%.2f kwSets=%v\n",
				span, rt.Mode, rt.Decisions, rt.AffinityHits, rt.HashRoutes, rt.MissRate, kws)
		}
		if eb := rep.stats.Service.ExecBatch; eb.Count > 0 {
			fmt.Printf("  batch[%v]: flushes=%d rows/flush(mean=%.1f max=%d) full=%d partial=%d\n",
				span, eb.Count, eb.Mean, eb.Max,
				rep.stats.Service.ExecBatchFull, eb.Count-rep.stats.Service.ExecBatchFull)
		}
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
}

type report struct {
	latencies []time.Duration // sorted
	mean      time.Duration
	qps       float64
	errors    int
	stats     service.Stats
}

func (r *report) p(q float64) time.Duration {
	if len(r.latencies) == 0 {
		return 0
	}
	i := int(q*float64(len(r.latencies))) - 1
	if i < 0 {
		i = 0
	}
	return r.latencies[i].Round(time.Microsecond)
}

func run(wl string, instance int, window time.Duration, users, requests, k, batch, shards, budget int, seed uint64, policy, spillDir, routerMode string, overlap bool) (*report, error) {
	// A fresh workload per run keeps the comparison honest: no run inherits
	// another's materialised source views.
	w, err := workload.ByName(wl, instance)
	if err != nil {
		return nil, err
	}
	pool := keywordPool(w)
	if len(pool) == 0 {
		return nil, fmt.Errorf("workload %s has no keyword suite", wl)
	}
	if overlap {
		pool = overlapPool(pool)
	}
	if spillDir != "" {
		// Separate windows must not inherit each other's segments.
		spillDir = filepath.Join(spillDir, fmt.Sprintf("w%d", window/time.Microsecond))
	}
	fr, err := fleet.NewLocal(w, service.Config{
		K:            k,
		Seed:         seed,
		BatchWindow:  window,
		BatchSize:    batch,
		Shards:       shards,
		Router:       routerMode,
		MemoryBudget: budget,
		EvictPolicy:  policy,
		SpillDir:     spillDir,
	})
	if err != nil {
		return nil, err
	}
	defer fr.Close()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		lats     []time.Duration
		sum      time.Duration
		errCount int
	)
	start := time.Now()
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			rng := dist.New(seed + uint64(u)*977 + 3)
			zipf := dist.NewZipf(rng, len(pool), 0.8)
			for i := 0; i < requests; i++ {
				kw := pool[zipf.Next()]
				t0 := time.Now()
				_, err := fr.Search(context.Background(), fmt.Sprintf("user%d", u), kw, k)
				d := time.Since(t0)
				mu.Lock()
				if err != nil {
					errCount++
				} else {
					lats = append(lats, d)
					sum += d
				}
				mu.Unlock()
			}
		}(u)
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	rep := &report{latencies: lats, errors: errCount, stats: fr.Stats(context.Background())}
	if len(lats) > 0 {
		rep.mean = (sum / time.Duration(len(lats))).Round(time.Microsecond)
	}
	if elapsed > 0 {
		rep.qps = float64(len(lats)) / elapsed.Seconds()
	}
	return rep, nil
}

// targetRetries bounds resubmission of transiently rejected searches in
// -target mode.
const targetRetries = 5

// runTarget drives a running qsys-serve over HTTP with the same seeded
// closed-loop workload the in-process mode uses. Searches rejected before
// admission — 503 from a draining/closed shard, connection refused from a
// restarting one — are retried with jittered exponential backoff; any other
// failure counts as an error, since the query may already have executed.
func runTarget(target, wl string, instance, users, requests, k int, seed uint64, overlap, digest, userPerRequest bool) {
	w, err := workload.ByName(wl, instance)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	pool := keywordPool(w)
	if overlap {
		pool = overlapPool(pool)
	}
	target = strings.TrimRight(target, "/")
	client := &http.Client{Timeout: 60 * time.Second}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		lats     []time.Duration
		errCount int
		retries  int
	)
	h := sha256.New()
	ah := sha256.New()
	start := time.Now()
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			rng := dist.New(seed + uint64(u)*977 + 3)
			backoffRNG := dist.New(seed + uint64(u)*977 + 4)
			zipf := dist.NewZipf(rng, len(pool), 0.8)
			for i := 0; i < requests; i++ {
				kw := pool[zipf.Next()]
				name := fmt.Sprintf("user%d", u)
				if userPerRequest && users == 1 {
					name = fmt.Sprintf("u%d", i)
				}
				t0 := time.Now()
				view, tries, err := searchHTTP(client, target, name, kw, k, backoffRNG)
				d := time.Since(t0)
				mu.Lock()
				retries += tries
				if err != nil {
					errCount++
				} else {
					lats = append(lats, d)
					if digest {
						fleet.DigestView(h, view)
						if users == 1 {
							foldAnswers(ah, view)
						}
					}
				}
				mu.Unlock()
			}
		}(u)
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	rep := &report{latencies: lats, errors: errCount}
	qps := 0.0
	if elapsed > 0 {
		qps = float64(len(lats)) / elapsed.Seconds()
	}
	fmt.Printf("target %s: %d users x %d requests, k=%d, workload=%s\n",
		target, users, requests, k, wl)
	fmt.Printf("qps=%.1f errors=%d retries=%d p50=%v p95=%v p99=%v\n",
		qps, errCount, retries, rep.p(0.50), rep.p(0.95), rep.p(0.99))
	if digest {
		fmt.Printf("digest=%s\n", hex.EncodeToString(h.Sum(nil)))
		if users == 1 {
			fmt.Printf("adigest=%s\n", hex.EncodeToString(ah.Sum(nil)))
		}
	}
	if errCount > 0 {
		os.Exit(1)
	}
}

// searchHTTP posts one search, retrying transient pre-admission rejections.
func searchHTTP(client *http.Client, target, user string, keywords []string, k int, rng *dist.RNG) (*fleet.ResultView, int, error) {
	body, _ := json.Marshal(map[string]any{"user": user, "keywords": keywords, "k": k})
	tries := 0
	for {
		view, retryableErr, err := postSearch(client, target, body)
		if err == nil {
			return view, tries, nil
		}
		if !retryableErr || tries >= targetRetries {
			return nil, tries, err
		}
		tries++
		base := 25 * time.Millisecond << uint(tries-1)
		time.Sleep(base + time.Duration(rng.Intn(int(base)+1)))
	}
}

// postSearch performs one attempt. The bool reports whether the failure is
// safely retryable: the connection was never established, or the server
// answered 503 (serve-side pre-admission rejection).
func postSearch(client *http.Client, target string, body []byte) (*fleet.ResultView, bool, error) {
	resp, err := client.Post(target+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		var op *net.OpError
		return nil, errors.As(err, &op) && op.Op == "dial", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		err := fmt.Errorf("search: status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
		return nil, resp.StatusCode == http.StatusServiceUnavailable, err
	}
	var view fleet.ResultView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return nil, false, err
	}
	return &view, false, nil
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

// firstWindow parses the first entry of the -windows list; open-loop runs
// drive a single admission-window setting.
func firstWindow(spec string) time.Duration {
	for _, s := range strings.Split(spec, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		if s == "0" {
			return 0
		}
		d, err := time.ParseDuration(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad window %q: %v\n", s, err)
			os.Exit(2)
		}
		return d
	}
	return 0
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

// openLoopConfig carries one open-loop run's knobs.
type openLoopConfig struct {
	target   string
	wl       string
	instance int
	rate     float64 // offered arrivals/sec
	burst    int     // arrivals per Poisson epoch
	arrivals int
	users    int
	k        int
	seed     uint64
	overlap  bool
	digest   bool
	// userPerRequest names a fresh user per arrival (users == 1 only), so
	// each arrival's scoring coefficients are a function of its index alone
	// and the adigest is independent of how concurrent arrivals interleave.
	userPerRequest bool
	deadline       time.Duration
	adm            admission.Config
	// in-process service shape
	window time.Duration
	batch  int
	shards int
	router string
	budget int
	policy string
}

// arrivalOutcome records one arrival's fate. Exactly one of ok/shed/err holds.
type arrivalOutcome struct {
	ok     bool
	shed   bool
	reason string // shed reason, or "" / error class
	lat    time.Duration
	view   *fleet.ResultView
}

// runOpenLoop offers load on a fixed seeded schedule, independent of
// completions: Poisson epochs (optionally carrying -burst arrivals each) fire
// whether or not earlier requests finished, which is what makes saturation
// visible — a closed loop self-throttles at capacity, an open loop keeps
// offering and forces the server to shed. Each arrival is a single attempt:
// retrying inside the generator would convert offered load into closed-loop
// feedback and hide the shed rate being measured.
func runOpenLoop(cfg openLoopConfig) {
	w, err := workload.ByName(cfg.wl, cfg.instance)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	pool := keywordPool(w)
	if len(pool) == 0 {
		fmt.Fprintf(os.Stderr, "workload %s has no keyword suite\n", cfg.wl)
		os.Exit(1)
	}
	if cfg.overlap {
		pool = overlapPool(pool)
	}
	if cfg.users < 1 {
		cfg.users = 1
	}
	burst := cfg.burst
	if burst < 1 {
		burst = 1
	}
	n := cfg.arrivals

	// The whole schedule is precomputed from seeded streams before the first
	// request fires, so identical flags replay identical offered load: epoch
	// gaps are exponential with mean burst/rate (burst arrivals per epoch
	// keeps the offered rate at -rate while clustering it), and the keyword
	// stream is drawn in arrival order — with one user it is byte-identical
	// to the closed-loop user0 stream, which is what lets adigest compare
	// across loop disciplines.
	sched := dist.New(cfg.seed + 11)
	times := make([]time.Duration, n)
	var clock float64 // seconds
	for i := 0; i < n; i++ {
		if i%burst == 0 {
			clock += -math.Log(1-sched.Float64()) / (cfg.rate / float64(burst))
		}
		times[i] = time.Duration(clock * float64(time.Second))
	}
	kwRNG := dist.New(cfg.seed + 3)
	zipf := dist.NewZipf(kwRNG, len(pool), 0.8)
	kws := make([][]string, n)
	for i := range kws {
		kws[i] = pool[zipf.Next()]
	}

	var attempt func(ctx context.Context, user string, kw []string) (*fleet.ResultView, *admission.ShedError, error)
	var fr *fleet.Frontend
	if cfg.target != "" {
		attempt = openTargetAttempt(cfg)
	} else {
		if _, err := state.ParsePolicy(cfg.policy); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if _, err := service.ParseRouter(cfg.router); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fr, err = fleet.NewLocal(w, service.Config{
			K:            cfg.k,
			Seed:         cfg.seed,
			BatchWindow:  cfg.window,
			BatchSize:    cfg.batch,
			Shards:       cfg.shards,
			Router:       cfg.router,
			MemoryBudget: cfg.budget,
			EvictPolicy:  cfg.policy,
			Admission:    cfg.adm,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer fr.Close()
		attempt = func(ctx context.Context, user string, kw []string) (*fleet.ResultView, *admission.ShedError, error) {
			view, err := fr.Search(ctx, user, kw, cfg.k)
			if err != nil {
				var shed *admission.ShedError
				if errors.As(err, &shed) {
					return nil, shed, nil
				}
				return nil, nil, err
			}
			return view, nil, nil
		}
	}

	outs := make([]arrivalOutcome, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(time.Until(start.Add(times[i])))
			ctx := context.Background()
			if cfg.target != "" && cfg.deadline > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, cfg.deadline)
				defer cancel()
			}
			t0 := time.Now()
			name := fmt.Sprintf("user%d", i%cfg.users)
			if cfg.userPerRequest && cfg.users == 1 {
				name = fmt.Sprintf("u%d", i)
			}
			view, shed, err := attempt(ctx, name, kws[i])
			d := time.Since(t0)
			switch {
			case shed != nil:
				outs[i] = arrivalOutcome{shed: true, reason: shed.Reason, lat: d}
			case errors.Is(err, context.DeadlineExceeded):
				// The client-side budget expired: same fate as a server-side
				// deadline shed, observed from the other end of the wire.
				outs[i] = arrivalOutcome{shed: true, reason: admission.ReasonDeadline, lat: d}
			case err != nil:
				outs[i] = arrivalOutcome{reason: err.Error(), lat: d}
			default:
				outs[i] = arrivalOutcome{ok: true, lat: d, view: view}
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	// Aggregate in arrival order so the adigest fold is deterministic.
	var (
		served, shedCount, errCount int
		lats                        []time.Duration
		reasons                     = map[string]int{}
		firstErrs                   []string
	)
	ah := sha256.New()
	for i := range outs {
		o := &outs[i]
		switch {
		case o.ok:
			served++
			lats = append(lats, o.lat)
			if cfg.digest && cfg.users == 1 {
				foldAnswers(ah, o.view)
			}
		case o.shed:
			shedCount++
			reasons[o.reason]++
		default:
			errCount++
			if len(firstErrs) < 3 {
				firstErrs = append(firstErrs, fmt.Sprintf("arrival %d: %s", i, o.reason))
			}
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	rep := &report{latencies: lats}

	mode := "in-process"
	if cfg.target != "" {
		mode = cfg.target
	}
	fmt.Printf("open-loop load: rate=%.1f/s burst=%d arrivals=%d users=%d k=%d workload=%s target=%s\n",
		cfg.rate, burst, n, cfg.users, cfg.k, cfg.wl, mode)
	span := times[n-1]
	achieved := 0.0
	if span > 0 {
		achieved = float64(n-1) / span.Seconds()
	}
	goodput := 0.0
	if wall > 0 {
		goodput = float64(served) / wall.Seconds()
	}
	fmt.Printf("offered=%.1f/s achieved=%.1f/s wall=%v\n", cfg.rate, achieved, wall.Round(time.Millisecond))
	shedPct := 0.0
	if n > 0 {
		shedPct = 100 * float64(shedCount) / float64(n)
	}
	fmt.Printf("served=%d goodput=%.1f/s shed=%d (%.1f%%) errors=%d\n", served, goodput, shedCount, shedPct, errCount)
	if len(reasons) > 0 {
		keys := make([]string, 0, len(reasons))
		for r := range reasons {
			keys = append(keys, r)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, r := range keys {
			parts = append(parts, fmt.Sprintf("%s=%d", r, reasons[r]))
		}
		fmt.Printf("shed reasons: %s\n", strings.Join(parts, " "))
	}
	for _, e := range firstErrs {
		fmt.Printf("error: %s\n", e)
	}
	fmt.Printf("latency served: p50=%v p95=%v p99=%v max=%v\n",
		rep.p(0.50), rep.p(0.95), rep.p(0.99), rep.p(1))
	if fr != nil {
		ss := fr.Stats(context.Background()).Service
		fmt.Printf("admission: shed=%d user-rate=%d queue-full=%d deadline-canceled=%d\n",
			ss.Shed, ss.ShedUserRate, ss.ShedQueueFull, ss.DeadlineCanceled)
	}
	if cfg.digest && cfg.users == 1 {
		fmt.Printf("adigest=%s\n", hex.EncodeToString(ah.Sum(nil)))
	}
	if served == 0 {
		fmt.Fprintln(os.Stderr, "open-loop run served nothing")
		os.Exit(1)
	}
}

// openTargetAttempt builds the single-attempt HTTP searcher for -target mode:
// one POST, no retries (the generator must not convert offered load into
// closed-loop feedback), 503 decoded into its admission shed reason.
func openTargetAttempt(cfg openLoopConfig) func(ctx context.Context, user string, kw []string) (*fleet.ResultView, *admission.ShedError, error) {
	target := strings.TrimRight(cfg.target, "/")
	client := &http.Client{Timeout: 60 * time.Second}
	return func(ctx context.Context, user string, kw []string) (*fleet.ResultView, *admission.ShedError, error) {
		body, _ := json.Marshal(map[string]any{"user": user, "keywords": kw, "k": cfg.k})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+"/search", bytes.NewReader(body))
		if err != nil {
			return nil, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			shed := &admission.ShedError{Reason: "unavailable"}
			var we struct {
				Reason       string `json:"reason"`
				RetryAfterMS int64  `json:"retry_after_ms"`
			}
			if json.Unmarshal(data, &we) == nil && we.Reason != "" {
				shed.Reason = we.Reason
				shed.RetryAfter = time.Duration(we.RetryAfterMS) * time.Millisecond
			}
			return nil, shed, nil
		}
		if resp.StatusCode != http.StatusOK {
			data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			return nil, nil, fmt.Errorf("search: status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
		}
		var view fleet.ResultView
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			return nil, nil, err
		}
		return &view, nil, nil
	}
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
