package service

import (
	"fmt"
	"sync"

	"repro/internal/candidates"
	"repro/internal/cq"
	"repro/internal/dist"
	"repro/internal/workload"
)

// Expander is the front-desk half of query admission: it turns (user,
// keywords, k) into a fully expanded user query — candidate networks plus
// the user's personal scoring coefficients (§2.1) — and assigns the UQ id.
// It is the only mutable state that must live in exactly one place for a
// deterministic run: the per-user RNGs consume workload-dependent draws, so
// whoever expands must see the whole request stream. The front desk
// (fleet.Frontend) owns one and hands the expanded UQs to its engines, in
// this process or in shard processes; engines never expand anything.
//
// Expand is safe for concurrent use and serializes only what must be: the
// candidate networks of a keyword set come from the expansion cache (or are
// derived) before the lock is taken, and the arrival's queries are built
// after it is released.
type Expander struct {
	genCfg candidates.Config
	seed   uint64
	k      int
	// cache holds the coefficient-free skeleton of each recently expanded
	// keyword sequence. It belongs to the expander and dies with it.
	cache *candidates.Cache

	// mu guards the per-user draw sequences and the UQ counter.
	mu sync.Mutex
	// users holds each user's generator by value: the splitmix state is one
	// word and is the whole of the user's coefficient sequence, so it can be
	// neither shared nor dropped without changing answers.
	users  map[string]dist.RNG
	nextUQ int
}

// NewExpander builds an expander for a workload. Expansion follows the way
// the workload's own query suite was built (path lengths, match fan-out,
// scoring family, candidate-network cap); Config.K is the default answer
// count.
func NewExpander(w *workload.Workload, cfg Config) *Expander {
	cfg = cfg.withDefaults()
	genCfg := w.Gen
	genCfg.Graph = w.Schema
	genCfg.Catalog = w.Catalog
	return &Expander{
		genCfg: genCfg, seed: cfg.Seed, k: cfg.K,
		cache: candidates.NewCache(), users: map[string]dist.RNG{},
	}
}

// Expand generates the user query. k <= 0 uses the configured default.
func (e *Expander) Expand(user string, keywords []string, k int) (*cq.UQ, error) {
	if k <= 0 {
		k = e.k
	}
	sk := e.cache.Skeleton(e.genCfg, keywords)

	e.mu.Lock()
	rng, ok := e.users[user]
	if !ok {
		rng = *candidates.UserRNG(e.seed, user)
	}
	coefs := sk.Draw(&rng)
	e.users[user] = rng
	e.nextUQ++
	n := e.nextUQ
	e.mu.Unlock()

	return sk.Instantiate(fmt.Sprintf("UQ%d", n), keywords, k, coefs)
}

// CacheStats reports the expansion cache's cumulative traffic and size.
func (e *Expander) CacheStats() candidates.CacheStats { return e.cache.Stats() }
