package candidates

import (
	"container/list"
	"strconv"
	"strings"
	"sync"
)

// The expansion cache shares the front desk's work across arrivals: keyword
// traffic collapses onto few recurring keyword sets, and a set's candidate
// networks are a function of the keyword sequence and the schema graph
// alone — only the scoring coefficients differ from one arrival to the next.
// An entry is the Skeleton of one sequence; a lookup serves it only while the
// graph is still at the generation it was derived at, so the cache changes
// when a network is derived, never which networks a search gets.

// cacheCap bounds the cache in entries (least recently used goes first). An
// entry is a few dozen query bodies and their canonical forms, tens of KB, so
// like the plan cache's it is a constant and not accounted in the row ledger.
const cacheCap = 256

// CacheStats counts an expansion cache's traffic since it was built.
type CacheStats struct {
	// Hits and Misses partition the lookups: a search either found its
	// skeleton or derived it.
	Hits   int64
	Misses int64
	// Stale counts the misses that found an entry derived from an older
	// generation of the schema graph.
	Stale int64
	// Entries is the current size (at most 256).
	Entries int
}

// cacheKey identifies a skeleton: the lower-cased keyword sequence (order and
// repetition matter — they fix which match combinations are tried, and in
// which order) and the defaulted configuration, graph and catalog included.
type cacheKey struct {
	keywords string
	cfg      Config
}

func cacheKeyOf(cfg Config, keywords []string) cacheKey {
	var b strings.Builder
	for _, kw := range keywords {
		// Length-prefixed, so no keyword text can imitate a boundary.
		kw = strings.ToLower(kw)
		b.WriteString(strconv.Itoa(len(kw)))
		b.WriteByte(':')
		b.WriteString(kw)
	}
	return cacheKey{keywords: b.String(), cfg: cfg}
}

// Cache is a bounded LRU of skeletons, safe for concurrent use. Its owner
// decides its lifetime: it holds query bodies and their canonical forms, so
// it should die with the front desk it serves.
type Cache struct {
	mu    sync.Mutex
	byKey map[cacheKey]*list.Element // of *cacheEntry
	lru   *list.List                 // front = most recently used
	stats CacheStats
}

type cacheEntry struct {
	key cacheKey
	sk  *Skeleton
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{byKey: map[cacheKey]*list.Element{}, lru: list.New()}
}

// Skeleton returns the skeleton of the keyword sequence under cfg, derived
// now unless the cache holds it at the graph's current generation. The lock
// is not held while a skeleton is derived: two first arrivals of one sequence
// may both derive it, and the later insert wins.
func (c *Cache) Skeleton(cfg Config, keywords []string) *Skeleton {
	cfg = cfg.Defaults()
	key := cacheKeyOf(cfg, keywords)
	gen := cfg.Graph.Generation()
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*cacheEntry)
		if sk := e.sk; sk.gen == gen {
			c.stats.Hits++
			c.lru.MoveToFront(el)
			c.mu.Unlock()
			return sk
		}
		c.stats.Stale++
		c.lru.Remove(el)
		delete(c.byKey, key)
	}
	c.stats.Misses++
	c.mu.Unlock()

	sk := NewSkeleton(cfg, keywords)

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEntry).sk = sk
		c.lru.MoveToFront(el)
		return sk
	}
	c.byKey[key] = c.lru.PushFront(&cacheEntry{key: key, sk: sk})
	for c.lru.Len() > cacheCap {
		el := c.lru.Back()
		c.lru.Remove(el)
		delete(c.byKey, el.Value.(*cacheEntry).key)
	}
	return sk
}

// Stats reports the cache's cumulative traffic and size.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.lru.Len()
	return s
}
