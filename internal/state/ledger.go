// Package state is the execution-state subsystem of §6: the one place that
// knows how much retained operator state exists, which of it to give up under
// memory pressure, and how to keep evicted state recoverable at local-I/O
// cost instead of re-paying remote source reads.
//
// It has two parts, each usable on its own:
//
//   - the accounting Ledger: every retained structure (access modules, node
//     logs, rank-merge seen-sets, endpoint buffers) holds an Account and
//     registers size deltas as rows arrive, so the total resident state is a
//     running sum instead of an O(graph) rescan (§6.3 accounting);
//   - the Spill tier: parked plan segments serialize their epoch-stamped log
//     and module rows to per-shard disk segments on eviction, and revival
//     (§6.2, Algorithm 2) reads them back as cheap local I/O, falling back
//     to source replay only when no segment exists.
//
// The package is deliberately free of engine imports (operator, atc, qsm):
// the engine registers deltas and extracts/reinstalls rows; state owns the
// bookkeeping and the bytes on disk; the query state manager (internal/qsm)
// chooses the victims.
package state

// Ledger is the incremental accounting of all retained execution state of
// one engine (one plan graph), in rows. It replaces the per-victim
// StateSize() rescan of the pre-subsystem eviction loop: structures call
// Account.Add as rows arrive and leave, and Total is a running sum.
//
// A ledger and its accounts are plain, unsynchronised state owned by the
// engine goroutine: every other reader (the stats surface's Total and
// Scratch) reaches them through that goroutine, so a read from anywhere
// else is a data race.
type Ledger struct {
	total    int64
	accounts int64
	// scratch tracks pooled executor scratch memory (free-listed part
	// vectors) in rows. It is kept out of Total on purpose:
	// scratch is reclaimable instantly (dropping a free list frees it) and
	// charging it against the eviction budget would perturb victim choice —
	// and therefore result digests — by how warm a node's pools happen to
	// be. It is surfaced separately so operators still see true footprint.
	scratch int64
}

// NewLedger creates an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// Total returns the resident state across all live accounts, in rows.
func (l *Ledger) Total() int64 {
	if l == nil {
		return 0
	}
	return l.total
}

// Scratch returns the pooled executor scratch held across all live
// accounts, in rows. Scratch is reported beside Total, never inside it.
func (l *Ledger) Scratch() int64 {
	if l == nil {
		return 0
	}
	return l.scratch
}

// Accounts returns how many live accounts the ledger tracks.
func (l *Ledger) Accounts() int {
	if l == nil {
		return 0
	}
	return int(l.accounts)
}

// NewAccount opens an account for one retained structure (a node exec, an
// endpoint entry).
func (l *Ledger) NewAccount() *Account {
	if l == nil {
		return nil
	}
	l.accounts++
	return &Account{ledger: l}
}

// Release closes an account: its rows leave the total and all further Adds
// on it are ignored. Releasing nil or an already-released account is a
// no-op, so eviction racing cancellation cannot double-release. Like Add,
// Release must come from the engine goroutine.
func (l *Ledger) Release(a *Account) {
	if l == nil || a == nil || a.dead {
		return
	}
	a.dead = true
	l.total -= a.rows
	l.scratch -= a.scratch
	l.accounts--
}

// Account is one structure's running row count within a ledger. All methods
// are safe on a nil receiver: operator structures created outside an engine
// (unit tests, ad hoc use) simply go unaccounted. Like its ledger, an
// account is read and written only by the engine goroutine that owns it.
type Account struct {
	ledger  *Ledger
	rows    int64
	scratch int64
	dead    bool
}

// Add registers a size delta in rows (negative deltas release rows).
func (a *Account) Add(delta int) {
	if a == nil || a.dead {
		return
	}
	a.rows += int64(delta)
	a.ledger.total += int64(delta)
}

// AddScratch registers a pooled-scratch delta in rows (free-listed part
// vectors held for reuse). Scratch rides the same ownership rules as Add but
// lands in the ledger's separate scratch aggregate, not the eviction total.
func (a *Account) AddScratch(delta int) {
	if a == nil || a.dead {
		return
	}
	a.scratch += int64(delta)
	a.ledger.scratch += int64(delta)
}

// ScratchRows returns the account's pooled-scratch row count.
func (a *Account) ScratchRows() int64 {
	if a == nil {
		return 0
	}
	return a.scratch
}

// Rows returns the account's current row count.
func (a *Account) Rows() int64 {
	if a == nil {
		return 0
	}
	return a.rows
}

// Live reports whether the account is still open.
func (a *Account) Live() bool { return a != nil && !a.dead }
