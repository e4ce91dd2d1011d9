// Package relationdb is the storage substrate for the simulated remote
// databases: in-memory relations kept in nonincreasing score order (the
// paper's streaming-source contract, §3) with lazily-built hash indexes over
// join columns (the probe path of random-access sources).
package relationdb

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/tuple"
)

// Relation stores the rows of one relation sorted by nonincreasing score
// (ties broken by primary key for determinism) and serves two access paths:
// positional scan in score order, and hash lookup by column value.
type Relation struct {
	schema *tuple.Schema
	rows   []*tuple.Tuple

	mu      sync.Mutex
	indexes map[int]*colIndex
}

// colIndex is a hash index over one column: rows holds the relation's rows
// grouped by value, first-seen value first and each group in score order,
// and group takes a value's key to its group g, rows[starts[g]:starts[g+1]].
type colIndex struct {
	group  map[tuple.IndexKey]int32
	starts []int32
	rows   []*tuple.Tuple
}

func newColIndex(rows []*tuple.Tuple, col int) *colIndex {
	ix := &colIndex{group: map[tuple.IndexKey]int32{}}
	of := make([]int32, len(rows))
	var count []int32
	for i, t := range rows {
		k := t.Val(col).IndexKey()
		g, ok := ix.group[k]
		if !ok {
			g = int32(len(count))
			ix.group[k] = g
			count = append(count, 0)
		}
		of[i] = g
		count[g]++
	}
	ix.starts = make([]int32, len(count)+1)
	for g, c := range count {
		ix.starts[g+1] = ix.starts[g] + c
	}
	next := count // reused as each group's fill position
	copy(next, ix.starts)
	ix.rows = make([]*tuple.Tuple, len(rows))
	for i, t := range rows {
		ix.rows[next[of[i]]] = t
		next[of[i]]++
	}
	return ix
}

// NewRelation builds a relation from rows; the slice is re-sorted into
// nonincreasing score order and sequence numbers are assigned.
func NewRelation(schema *tuple.Schema, rows []*tuple.Tuple) *Relation {
	sorted := append([]*tuple.Tuple(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool {
		si, sj := sorted[i].Score(), sorted[j].Score()
		if si != sj {
			return si > sj
		}
		return sorted[i].Identity() < sorted[j].Identity()
	})
	for i, t := range sorted {
		t.WithSeq(int64(i))
	}
	return &Relation{schema: schema, rows: sorted, indexes: map[int]*colIndex{}}
}

// Schema returns the relation schema.
func (r *Relation) Schema() *tuple.Schema { return r.schema }

// Cardinality returns the number of rows.
func (r *Relation) Cardinality() int { return len(r.rows) }

// Row returns the i'th row in score order.
func (r *Relation) Row(i int) *tuple.Tuple { return r.rows[i] }

// Rows returns the backing slice (callers must not mutate).
func (r *Relation) Rows() []*tuple.Tuple { return r.rows }

// MaxScore returns the highest score (the first row's), or
// tuple.NeutralScore when the relation is empty or score-less.
func (r *Relation) MaxScore() float64 {
	if len(r.rows) == 0 || !r.schema.HasScore() {
		return tuple.NeutralScore
	}
	return r.rows[0].Score()
}

// Lookup returns the rows whose col equals v, in score order, via a
// lazily-built hash index. The slice is the index's: callers must not
// mutate it.
func (r *Relation) Lookup(col int, v tuple.Value) []*tuple.Tuple {
	ix := r.index(col)
	g, ok := ix.group[v.IndexKey()]
	if !ok {
		return nil
	}
	lo, hi := ix.starts[g], ix.starts[g+1]
	return ix.rows[lo:hi:hi]
}

// DistinctCount returns the number of distinct values in col (computed on
// demand through the same index the probes use).
func (r *Relation) DistinctCount(col int) int { return len(r.index(col).group) }

// index returns the hash index over col, building it on first use.
func (r *Relation) index(col int) *colIndex {
	r.mu.Lock()
	defer r.mu.Unlock()
	ix, ok := r.indexes[col]
	if !ok {
		ix = newColIndex(r.rows, col)
		r.indexes[col] = ix
	}
	return ix
}

// Store is a named collection of relations: one simulated database instance.
type Store struct {
	name string

	mu        sync.Mutex
	relations map[string]*Relation
	loaders   map[string]func() *Relation
}

// NewStore creates an empty database instance with the given name.
func NewStore(name string) *Store {
	return &Store{name: name, relations: map[string]*Relation{}, loaders: map[string]func() *Relation{}}
}

// Name returns the database instance name.
func (s *Store) Name() string { return s.name }

// Put registers a materialised relation.
func (s *Store) Put(rel *Relation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.relations[rel.Schema().Name()] = rel
}

// PutLazy registers a loader invoked on first access — the GUS workload
// declares 358 relations but only materialises those a run touches.
func (s *Store) PutLazy(name string, load func() *Relation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loaders[name] = load
}

// Relation returns the named relation, materialising it if lazy.
func (s *Store) Relation(name string) (*Relation, error) {
	s.mu.Lock()
	if rel, ok := s.relations[name]; ok {
		s.mu.Unlock()
		return rel, nil
	}
	load, ok := s.loaders[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("relationdb: %s has no relation %q", s.name, name)
	}
	rel := load()
	s.mu.Lock()
	s.relations[rel.Schema().Name()] = rel
	s.mu.Unlock()
	return rel, nil
}

// MustRelation is Relation for trusted callers.
func (s *Store) MustRelation(name string) *Relation {
	rel, err := s.Relation(name)
	if err != nil {
		panic(err)
	}
	return rel
}

// Has reports whether the store knows the relation (materialised or lazy).
func (s *Store) Has(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.relations[name]; ok {
		return true
	}
	_, ok := s.loaders[name]
	return ok
}

// Names returns all relation names (materialised and lazy), sorted.
func (s *Store) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	set := map[string]bool{}
	for n := range s.relations {
		set[n] = true
	}
	for n := range s.loaders {
		set[n] = true
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
