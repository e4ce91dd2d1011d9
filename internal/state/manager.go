package state

// Manager bundles one engine's state subsystem: the accounting ledger and
// the optional spill tier. The query state manager (internal/qsm) owns the
// graph mechanics of eviction and revival, the budget and the victim choice;
// this Manager owns the bookkeeping those mechanics consult.
type Manager struct {
	Ledger *Ledger

	spill *Spill

	evictions int
}

// NewManager creates a manager with a fresh ledger and no spill tier.
func NewManager() *Manager {
	return &Manager{Ledger: NewLedger()}
}

// Spill returns the spill tier, or nil when eviction discards.
func (m *Manager) Spill() *Spill { return m.spill }

// AttachSpill installs a spill tier.
func (m *Manager) AttachSpill(s *Spill) { m.spill = s }

// NoteEviction records one eviction.
func (m *Manager) NoteEviction() { m.evictions++ }

// Evictions returns the total evictions recorded.
func (m *Manager) Evictions() int { return m.evictions }

// Close releases the spill tier's disk space.
func (m *Manager) Close() error {
	if m.spill != nil {
		return m.spill.Close()
	}
	return nil
}
