package operator

import "sort"

// blockShift sets B = blockRows, the number of rows one block of retained
// join state holds. It is a constant, not an option: the row-to-block split
// is a shift and a mask on every probe, and no workload needs another size.
const (
	blockShift = 8
	blockRows  = 1 << blockShift
	blockMask  = blockRows - 1
)

// blockList is an append-only list of rows of w elements each (w is fixed by
// the first row), stored in blocks of blockRows rows. A block is never
// copied, moved or reused once full, so a view into one — a module row's
// parts, a seedView of a log — stays valid for as long as it is held, and a
// list that ends with n rows has allocated about n rows' worth, not the
// several times n that regrowing one slice would. Only the first block,
// head, grows, doubling from headRows rows, so a small list costs what a
// plain slice would and needs no block directory.
type blockList[T any] struct {
	head []T
	// blocks holds rows blockRows and on, one full-size block each.
	blocks [][]T
	n, w   int
}

// headRows is the first block's initial room, in rows.
const headRows = 4

// grow appends a row of w zero elements and returns it as a view capped at
// its own w elements.
func (s *blockList[T]) grow(w int) []T {
	if s.w == 0 {
		s.w = w
	} else if w != s.w {
		panic("operator: block list row width changed")
	}
	b := &s.head
	if s.n >= blockRows {
		if s.n&blockMask == 0 {
			if s.blocks == nil {
				// Room for 16 blocks before the directory regrows.
				s.blocks = make([][]T, 0, 16)
			}
			s.blocks = append(s.blocks, make([]T, 0, blockRows*w))
		}
		b = &s.blocks[len(s.blocks)-1]
	} else if len(s.head) == cap(s.head) {
		nb := make([]T, len(s.head), min(max(2*cap(s.head), headRows*w), blockRows*w))
		copy(nb, s.head)
		s.head = nb
	}
	o := len(*b)
	*b = (*b)[:o+w]
	s.n++
	return (*b)[o : o+w : o+w]
}

// reserve gives an empty list of one-element rows room for n of them in
// its first block, up to a block's worth, so a list whose length is known
// ahead does not regrow on the way there.
func (s *blockList[T]) reserve(n int) {
	s.head = make([]T, 0, min(n, blockRows))
}

// push appends a one-element row; while the current block has room it
// needs no call to grow.
func (s *blockList[T]) push(v T) {
	if s.w == 1 && s.n > blockRows && s.n&blockMask != 0 {
		k := len(s.blocks) - 1
		s.blocks[k] = append(s.blocks[k], v) // within the block's capacity
	} else if s.w == 1 && s.n < blockRows && s.n < cap(s.head) {
		s.head = append(s.head, v)
	} else {
		s.grow(1)[0] = v
		return
	}
	s.n++
}

// at returns the element of one-element row i.
func (s *blockList[T]) at(i int) T {
	if i < blockRows {
		return s.head[i]
	}
	return s.blocks[i>>blockShift-1][i&blockMask]
}

// set overwrites the element of one-element row i.
func (s *blockList[T]) set(i int, v T) {
	if i < blockRows {
		s.head[i] = v
		return
	}
	s.blocks[i>>blockShift-1][i&blockMask] = v
}

// row returns row i as a view capped at its w elements.
func (s *blockList[T]) row(i int) []T {
	b := s.head
	if i >= blockRows {
		b = s.blocks[i>>blockShift-1]
	}
	o := (i & blockMask) * s.w
	return b[o : o+s.w : o+s.w]
}

// appendTo appends every element, in row order, to dst.
func (s *blockList[T]) appendTo(dst []T) []T {
	dst = append(dst, s.head...)
	for _, b := range s.blocks {
		dst = append(dst, b...)
	}
	return dst
}

// epochRun starts a run of rows stamped with one epoch.
type epochRun struct{ start, epoch int }

// epochRuns stamps the rows of an append-only structure with epochs (§6.2's
// logical timestamps), one entry per run of equal epochs rather than one per
// row. Epochs are nondecreasing in normal operation — recovery appends e-1
// before live rows append e — and sorted records whether they still are:
// while it holds, the rows stamped before an epoch are a prefix, found by
// binary search.
type epochRuns struct {
	runs   []epochRun
	sorted bool
}

// stamp records epoch for row n, the next row to be appended.
func (er *epochRuns) stamp(n, epoch int) {
	switch k := len(er.runs); {
	case k == 0:
		er.sorted = true
	case er.runs[k-1].epoch == epoch:
		return
	case epoch < er.runs[k-1].epoch:
		er.sorted = false
	}
	er.runs = append(er.runs, epochRun{n, epoch})
}

// end returns where run k ends, given the row count n.
func (er *epochRuns) end(k, n int) int {
	if k+1 < len(er.runs) {
		return er.runs[k+1].start
	}
	return n
}

// countBefore returns how many of the n rows carry an epoch below e.
func (er *epochRuns) countBefore(e, n int) int {
	if er.sorted {
		k := sort.Search(len(er.runs), func(i int) bool { return er.runs[i].epoch >= e })
		if k == len(er.runs) {
			return n
		}
		return er.runs[k].start
	}
	c := 0
	for k, r := range er.runs {
		if r.epoch < e {
			c += er.end(k, n) - r.start
		}
	}
	return c
}

// runAt returns the run holding row pos, trying run k first: walks that
// visit rows in ascending order pass their last answer back in.
func (er *epochRuns) runAt(pos, k int) int {
	if k >= 0 && k < len(er.runs) && er.runs[k].start <= pos && (k+1 == len(er.runs) || pos < er.runs[k+1].start) {
		return k
	}
	return sort.Search(len(er.runs), func(i int) bool { return er.runs[i].start > pos }) - 1
}

// eachBefore calls fn with every run of rows [lo, hi) stamped with an epoch
// below e, in row order, given the row count n.
func (er *epochRuns) eachBefore(e, n int, fn func(lo, hi, epoch int)) {
	for k, r := range er.runs {
		if r.epoch < e {
			fn(r.start, er.end(k, n), r.epoch)
		} else if er.sorted {
			return
		}
	}
}

// epochs returns the n rows' epochs one per row (export only).
func (er *epochRuns) epochs(n int) []int {
	out := make([]int, n)
	for k, r := range er.runs {
		for i := r.start; i < er.end(k, n); i++ {
			out[i] = r.epoch
		}
	}
	return out
}
