package operator

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/state"
	"repro/internal/tuple"
)

// identSet is a duplicate-elimination set over row identities. Membership is
// keyed by the row's cached 64-bit identity hash; the (rare) hash collision
// is resolved by comparing the cached identity strings, so the set never
// mis-identifies two distinct rows while keeping the common path free of
// long-string hashing. The first identity under a hash is held inline; only
// colliding ones go to a per-hash overflow list.
type identSet struct {
	first map[uint64]string
	more  map[uint64][]string
	n     int
	// acct, when set, receives +1 per newly added identity — entries reach
	// log identity sets both through Append and directly from recovery
	// (RecoverHistory dedups via the set), so accounting lives here.
	acct *state.Account
}

func newIdentSet(capacity int) *identSet {
	return &identSet{first: make(map[uint64]string, capacity)}
}

// Has reports whether the row's identity is in the set.
func (s *identSet) Has(r *tuple.Row) bool { return s.has(r.IdentityHash(), r.Identity()) }

func (s *identSet) has(h uint64, id string) bool {
	x, ok := s.first[h]
	if !ok {
		return false
	}
	if x == id {
		return true
	}
	for _, x := range s.more[h] {
		if x == id {
			return true
		}
	}
	return false
}

// Add inserts the row's identity, reporting whether it was newly added.
func (s *identSet) Add(r *tuple.Row) bool { return s.add(r.IdentityHash(), r.Identity()) }

func (s *identSet) add(h uint64, id string) bool {
	if _, ok := s.first[h]; !ok {
		s.first[h] = id
	} else {
		if s.has(h, id) {
			return false
		}
		if s.more == nil {
			s.more = map[uint64][]string{}
		}
		s.more[h] = append(s.more[h], id)
	}
	s.n++
	s.acct.Add(1)
	return true
}

// Len returns the number of identities held (memory accounting, §6.3).
func (s *identSet) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// Log records a node's delivered rows in arrival order, each tagged with the
// epoch (§6.2's logical timestamp) current when it arrived. Logs are the
// durable state the query state manager reuses across executions: they stand
// in for the paper's linked lists embedded in m-join hash tables, recording
// exactly the original arrival (score) order.
type Log struct {
	rows blockList[*tuple.Row]
	// epochs stamps the rows in runs; while the runs are nondecreasing the
	// rows before an epoch are a prefix, which countBefore finds by binary
	// search and EachBefore walks without a per-row check.
	epochs epochRuns
	// idents, once materialised by IdentitySet, is maintained incrementally
	// by Append so repeated recovery passes stop rebuilding it from scratch.
	// It is resident state and is counted by IdentCount / cleared by Reset.
	idents *identSet
	// ix, once built by the first endpoint seeded from this log, orders a
	// prefix of the rows by score product (productIndex). Like an access
	// module's hash chains it is an index, not resident state: the ledger does
	// not count it.
	ix *logIndex

	// acct, when set, receives every size delta (rows + identity entries) so
	// the state subsystem's ledger tracks resident state without rescans.
	acct *state.Account
}

// SetAccount wires the log (and its identity set) to a ledger account,
// crediting any rows it already holds.
func (l *Log) SetAccount(a *state.Account) {
	l.acct = a
	if l.idents != nil {
		l.idents.acct = a
	}
	a.Add(l.rows.n + l.idents.Len())
}

// Append records a delivered row.
func (l *Log) Append(r *tuple.Row, epoch int) {
	l.epochs.stamp(l.rows.n, epoch)
	l.rows.push(r)
	l.acct.Add(1)
	if l.idents != nil {
		l.idents.Add(r) // accounts its own delta
	}
}

// Len returns the number of logged rows.
func (l *Log) Len() int { return l.rows.n }

// Row returns the i'th logged row.
func (l *Log) Row(i int) *tuple.Row { return l.rows.at(i) }

// EachBefore calls fn for every row logged with epoch < e, in arrival order —
// the pre-epoch partition Algorithm 2 replays — without materialising a
// slice. When epochs are nondecreasing (the normal case) the walk stops at
// the first run stamped e or later.
func (l *Log) EachBefore(e int, fn func(*tuple.Row)) {
	l.epochs.eachBefore(e, l.rows.n, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			fn(l.rows.at(i))
		}
	})
}

// eachFrom calls fn for every row logged at index i or later, with its
// epoch, in arrival order — the suffix a revived consumer missed while
// parked.
func (l *Log) eachFrom(i int, fn func(*tuple.Row, int)) {
	for k, run := range l.epochs.runs {
		for p := max(run.start, i); p < l.epochs.end(k, l.rows.n); p++ {
			fn(l.rows.at(p), run.epoch)
		}
	}
}

// countBefore returns how many rows were logged with epoch < e.
func (l *Log) countBefore(e int) int { return l.epochs.countBefore(e, l.rows.n) }

// seedBlock is how many index positions share one entry of a logIndex's
// per-atom suffix maxima.
const seedBlock = 16

// logIndex orders the first len(order) rows of a log by nonincreasing score
// product, position ascending on ties — the order a pushed-down stream
// delivers (§3), so for the product family it is the order of every CQ's
// score up to rounding. caps[b*arity+a] is the largest score at node atom a
// among the rows at order[b*seedBlock:]: per-atom maxima of every suffix,
// at block granularity, the bound a sum-family score needs. An index is
// never modified once built, so a cursor holding one keeps its view.
type logIndex struct {
	order []int32
	caps  []float64
	arity int
}

// productIndex returns an index over every row logged so far. The first call
// sorts the whole log; later calls sort only the rows appended since the last
// index and merge them into a new one. Append never touches it.
func (l *Log) productIndex() *logIndex {
	n := l.rows.n
	var prev []int32
	if l.ix != nil {
		if len(l.ix.order) == n {
			return l.ix
		}
		prev = l.ix.order
	}
	from := len(prev)
	prods := make([]float64, n-from) // by position - from
	fresh := make([]int32, n-from)
	for i := range fresh {
		fresh[i] = int32(from + i)
		prods[i] = l.rows.at(from + i).ScoreProduct()
	}
	slices.SortStableFunc(fresh, func(a, b int32) int {
		pa, pb := prods[int(a)-from], prods[int(b)-from]
		switch {
		case pa > pb:
			return -1
		case pa < pb:
			return 1
		}
		return 0
	})
	// Merge: on a tie the earlier position — the old index's — goes first.
	order := make([]int32, 0, n)
	i, j := 0, 0
	for i < len(prev) && j < len(fresh) {
		if prods[int(fresh[j])-from] > l.rows.at(int(prev[i])).ScoreProduct() {
			order = append(order, fresh[j])
			j++
		} else {
			order = append(order, prev[i])
			i++
		}
	}
	order = append(append(order, prev[i:]...), fresh[j:]...)
	l.ix = &logIndex{order: order}
	if n > 0 {
		l.ix.buildCaps(&l.rows)
	}
	return l.ix
}

// buildCaps computes the per-block suffix maxima of an ordered index.
func (ix *logIndex) buildCaps(rows *blockList[*tuple.Row]) {
	ix.arity = rows.at(int(ix.order[0])).Arity()
	blocks := (len(ix.order) + seedBlock - 1) / seedBlock
	ix.caps = make([]float64, blocks*ix.arity)
	run := make([]float64, ix.arity)
	for a := range run {
		run[a] = math.Inf(-1)
	}
	for b := blocks - 1; b >= 0; b-- {
		for _, pos := range ix.order[b*seedBlock : min((b+1)*seedBlock, len(ix.order))] {
			r := rows.at(int(pos))
			for a := range run {
				run[a] = max(run[a], r.Part(a).Score())
			}
		}
		copy(ix.caps[b*ix.arity:], run)
	}
}

// seedView is a snapshot of a log's pre-epoch partition in product order:
// the rows and epoch runs as they were when it was taken, an index over
// them, and how many of them were logged before the epoch. Later appends,
// index merges and a Reset of the log leave it unchanged: appends write past
// its rows and runs, and full blocks never move.
type seedView struct {
	rows   blockList[*tuple.Row]
	epochs epochRuns
	ix     *logIndex
	epoch  int
	n      int
}

// seedView snapshots the rows logged before epoch e, extending the log's
// product index first if rows were appended since it was last built.
func (l *Log) seedView(e int) seedView {
	v := seedView{rows: l.rows, epochs: l.epochs, epoch: e, n: l.countBefore(e)}
	if v.n > 0 {
		v.ix = l.productIndex()
	}
	return v
}

// before reports whether the row at position pos was logged before the
// view's epoch: with sorted epochs the first n rows were.
func (v *seedView) before(pos int32) bool {
	if v.epochs.sorted {
		return int(pos) < v.n
	}
	return v.epochs.runs[v.epochs.runAt(int(pos), -1)].epoch < v.epoch
}

// IdentitySet returns the log's resident identity set, building it on first
// use and maintaining it incrementally afterwards (duplicate suppression
// during state recovery, §6.2).
func (l *Log) IdentitySet() *identSet {
	if l.idents == nil {
		l.idents = newIdentSet(l.rows.n)
		l.idents.acct = l.acct
		for i := 0; i < l.rows.n; i++ {
			l.idents.Add(l.rows.at(i))
		}
	}
	return l.idents
}

// IdentCount reports the resident identity-set size in entries (0 when the
// set was never materialised). It participates in §6.3 memory accounting.
func (l *Log) IdentCount() int { return l.idents.Len() }

// Reset discards the log and its identity set (eviction, §6.3). The blocks
// are dropped, never reused: a seedView may still hold them.
func (l *Log) Reset() {
	l.acct.Add(-(l.rows.n + l.idents.Len()))
	l.rows, l.epochs = blockList[*tuple.Row]{}, epochRuns{}
	l.idents = nil
	l.ix = nil
}

// Export returns the log's rows and epochs in arrival order, one of each per
// row, in fresh slices (spill serialization).
func (l *Log) Export() ([]*tuple.Row, []int) {
	return l.rows.appendTo(make([]*tuple.Row, 0, l.rows.n)), l.epochs.epochs(l.rows.n)
}

// partialRow is a row translated into a join node's atom space: parts is
// indexed by the node expression's atom positions, nil outside the
// originating input's coverage. A stored row's parts are a capped view into
// its module's block.
type partialRow struct {
	parts []*tuple.Tuple
	epoch int
}

// AccessModule is the per-input state of an m-join (§4.1): the rows received
// on one input, stored in node-space with arrival order and epochs preserved,
// and hash-indexed on demand by (atom position, column).
type AccessModule struct {
	// parts holds every row's node-space part vector, the rows' vectors side
	// by side in blocks; epochs stamps them in runs.
	parts  blockList[*tuple.Tuple]
	epochs epochRuns
	// indexes holds one chained index per (atom, col) probed so far; a
	// module has one or two, so a linear scan finds them.
	indexes []*chainIndex
	// coverage lists the node atom positions this input covers.
	coverage []int
	// acct, when set, receives per-row size deltas for the state ledger.
	acct *state.Account
}

// chainIndex indexes a module's rows by the value at (atom, col). Each
// distinct value is a chain of row positions in insertion order: chains
// holds each chain's ends and key word, and next, parallel to the module's
// rows, links a row to the next row of its chain (-1 ends a chain and marks
// rows with no part at atom). A value finds its chain through slots, an
// open-addressing table probed linearly from a Fibonacci hash of the
// value's key word. A slot is 0 when empty and otherwise a chain id + 1,
// negated for chains of a kind other than int. An int's word is its bits,
// so an int chain matches on its word alone, with no value set aside as a
// sentinel; any other kind's word is tuple.IndexKey.Word, and a word match
// is confirmed against the value in the chain's first row. The table
// doubles when it passes half full, re-placing only slots; chains and links
// live in blocks that are never copied, and nothing holds a pointer.
type chainIndex struct {
	atom, col int
	slots     []int32
	shift     uint // 64 - log2(len(slots))
	chains    blockList[chain]
	next      blockList[int32]
}

// chain is one chain of a chainIndex: its key word and the positions of its
// first and last rows.
type chain struct {
	key         uint64
	first, last int32
}

// fibonacci is 2^64 over the golden ratio: the top bits of a word times it
// spread dense int keys evenly over the table.
const fibonacci = 0x9E3779B97F4A7C15

// minSlots is the smallest table, the one an index built before its
// module's first row starts with.
const minSlots = 8

// newChainIndex makes an index sized for rows chains at load ½: a lazily
// built index is presized from its module's row count.
func newChainIndex(atom, col, rows int) *chainIndex {
	size := minSlots
	for size < 2*rows {
		size <<= 1
	}
	ix := &chainIndex{atom: atom, col: col}
	ix.resize(size)
	return ix
}

// resize moves the table's slots to a new table of size slots, a power of
// two.
func (ix *chainIndex) resize(size int) {
	old := ix.slots
	ix.slots = make([]int32, size)
	ix.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, s := range old {
		if s != 0 {
			i := ix.home(ix.chains.at(chainOf(s)).key)
			for ix.slots[i] != 0 {
				i = (i + 1) & mask
			}
			ix.slots[i] = s
		}
	}
}

// home returns the slot where the probe for word w starts.
func (ix *chainIndex) home(w uint64) int { return int(w * fibonacci >> ix.shift) }

// chainOf returns the chain id held by a nonempty slot.
func chainOf(s int32) int {
	if s < 0 {
		return int(-s - 1)
	}
	return int(s - 1)
}

// find returns the slot holding v's chain, or the empty slot where v's
// probe ended if v has none, and v's key word. rows are the module's rows,
// where a chain's first row is found to confirm a match of a non-int word.
func (ix *chainIndex) find(v tuple.Value, rows *blockList[*tuple.Tuple]) (int, uint64) {
	mask := len(ix.slots) - 1
	if v.Kind() == tuple.KindInt {
		w := uint64(v.AsInt())
		for i := ix.home(w); ; i = (i + 1) & mask {
			if s := ix.slots[i]; s == 0 || s > 0 && ix.chains.at(int(s-1)).key == w {
				return i, w
			}
		}
	}
	k := v.IndexKey()
	w := k.Word()
	for i := ix.home(w); ; i = (i + 1) & mask {
		s := ix.slots[i]
		if s == 0 {
			return i, w
		}
		if s < 0 {
			if c := ix.chains.at(int(-s - 1)); c.key == w && rows.row(int(c.first))[ix.atom].Val(ix.col).IndexKey() == k {
				return i, w
			}
		}
	}
}

// first returns the position of the first row whose value is v, if any.
func (ix *chainIndex) first(v tuple.Value, rows *blockList[*tuple.Tuple]) (int, bool) {
	i, _ := ix.find(v, rows)
	if s := ix.slots[i]; s != 0 {
		return int(ix.chains.at(chainOf(s)).first), true
	}
	return 0, false
}

// add links row pos of rows, whose parts are given, onto its value's chain.
// Rows must be added in position order.
func (ix *chainIndex) add(pos int32, parts []*tuple.Tuple, rows *blockList[*tuple.Tuple]) {
	ix.next.push(-1)
	t := parts[ix.atom]
	if t == nil {
		return
	}
	v := t.Val(ix.col)
	i, w := ix.find(v, rows)
	if s := ix.slots[i]; s != 0 {
		id := chainOf(s)
		c := ix.chains.at(id)
		ix.next.set(int(c.last), pos)
		c.last = pos
		ix.chains.set(id, c)
		return
	}
	s := int32(ix.chains.n + 1)
	if v.Kind() != tuple.KindInt {
		s = -s
	}
	ix.slots[i] = s
	ix.chains.push(chain{key: w, first: pos, last: pos})
	if 2*ix.chains.n > len(ix.slots) {
		ix.resize(2 * len(ix.slots))
	}
}

// SetAccount wires the module to a ledger account, crediting any rows it
// already holds.
func (m *AccessModule) SetAccount(a *state.Account) {
	m.acct = a
	a.Add(m.parts.n)
}

// NewAccessModule creates a module covering the given node atom positions.
func NewAccessModule(coverage []int) *AccessModule {
	return &AccessModule{coverage: append([]int(nil), coverage...)}
}

// Coverage returns the node atom positions this module covers.
func (m *AccessModule) Coverage() []int { return m.coverage }

// Len returns the number of stored rows (memory accounting).
func (m *AccessModule) Len() int { return m.parts.n }

// Insert stores a copy of a row's node-space parts with its epoch and
// maintains any built indexes.
func (m *AccessModule) Insert(parts []*tuple.Tuple, epoch int) {
	slot := m.slot(len(parts), epoch)
	copy(slot, parts)
	m.link(slot)
}

// insertRow translates a producer row into node space (width atoms, through
// the edge's atom map) straight into a new row's slot, stores it with its
// epoch, maintains any built indexes, and returns the slot.
func (m *AccessModule) insertRow(r *tuple.Row, atomMap []int, width, epoch int) []*tuple.Tuple {
	slot := m.slot(width, epoch)
	for fi, ti := range atomMap {
		slot[ti] = r.Part(fi)
	}
	m.link(slot)
	return slot
}

// slot appends an empty row of width parts stamped with epoch.
func (m *AccessModule) slot(width, epoch int) []*tuple.Tuple {
	m.epochs.stamp(m.parts.n, epoch)
	m.acct.Add(1)
	return m.parts.grow(width)
}

// link adds the last stored row, whose parts are given, to every built index.
func (m *AccessModule) link(parts []*tuple.Tuple) {
	pos := int32(m.parts.n - 1)
	for _, ix := range m.indexes {
		ix.add(pos, parts, &m.parts)
	}
}

// index returns (building on demand) the chained index for (atom, col). A
// lazily built index links the stored rows in position order, exactly as
// Insert would have had the index existed when they arrived.
func (m *AccessModule) index(atom, col int) *chainIndex {
	for _, ix := range m.indexes {
		if ix.atom == atom && ix.col == col {
			return ix
		}
	}
	ix := newChainIndex(atom, col, m.parts.n)
	ix.next.reserve(m.parts.n)
	for pos := 0; pos < m.parts.n; pos++ {
		ix.add(int32(pos), m.parts.row(pos), &m.parts)
	}
	m.indexes = append(m.indexes, ix)
	return ix
}

// AppendProbe appends to dst the stored rows whose (atom, col) value equals v
// and whose epoch is strictly below maxEpoch (MaxEpochLive for live probes;
// state recovery passes the graft epoch to see only pre-existing rows), in
// insertion order, returning the extended slice. With a warm index and
// sufficient dst capacity it performs no allocation — the m-join hot path
// passes a per-node scratch buffer.
func (m *AccessModule) AppendProbe(dst []partialRow, atom, col int, v tuple.Value, maxEpoch int) []partialRow {
	ix := m.index(atom, col)
	first, ok := ix.first(v, &m.parts)
	if !ok {
		return dst
	}
	// Rows [start, end) are run k's, the run of the row visited last; a
	// chain ascends, so a walk moves to a later run at most once per run.
	runs := m.epochs.runs
	k, e, end := 0, 0, 0
	for pos := first; pos >= 0; pos = int(ix.next.at(pos)) {
		if pos >= end {
			k = m.epochs.runAt(pos, k+1)
			e, end = runs[k].epoch, m.epochs.end(k, m.parts.n)
		}
		if e < maxEpoch {
			dst = append(dst, partialRow{parts: m.parts.row(pos), epoch: e})
		} else if m.epochs.sorted {
			break // every later row is stamped e or later
		}
	}
	return dst
}

// EachBefore calls fn for each stored row with epoch < maxEpoch in insertion
// order (used by state recovery when no index applies), without allocating.
func (m *AccessModule) EachBefore(maxEpoch int, fn func(partialRow)) {
	m.epochs.eachBefore(maxEpoch, m.parts.n, func(lo, hi, e int) {
		for pos := lo; pos < hi; pos++ {
			fn(partialRow{parts: m.parts.row(pos), epoch: e})
		}
	})
}

// Export returns the module's rows (node-space part vectors, views the
// caller must not mutate) and epochs in insertion order (spill
// serialization).
func (m *AccessModule) Export() ([][]*tuple.Tuple, []int) {
	parts := make([][]*tuple.Tuple, m.parts.n)
	for i := range parts {
		parts[i] = m.parts.row(i)
	}
	return parts, m.epochs.epochs(m.parts.n)
}

// MaxEpochLive is the epoch filter admitting every row.
const MaxEpochLive = math.MaxInt
