package state

// Manager bundles one engine's state subsystem: the accounting ledger, the
// eviction policy and the optional spill tier. The query state manager
// (internal/qsm) owns the graph mechanics of eviction and revival and the
// budget; this Manager owns the bookkeeping those mechanics consult.
type Manager struct {
	Ledger *Ledger

	policy Policy
	spill  *Spill

	evictions         int
	evictionsByPolicy map[string]int
}

// NewManager creates a manager with a fresh ledger, the LRU policy and no
// spill tier.
func NewManager() *Manager {
	return &Manager{
		Ledger:            NewLedger(),
		policy:            LRU{},
		evictionsByPolicy: map[string]int{},
	}
}

// Policy returns the active eviction policy.
func (m *Manager) Policy() Policy { return m.policy }

// SetPolicy installs an eviction policy (nil restores LRU).
func (m *Manager) SetPolicy(p Policy) {
	if p == nil {
		p = LRU{}
	}
	m.policy = p
}

// Spill returns the spill tier, or nil when eviction discards.
func (m *Manager) Spill() *Spill { return m.spill }

// AttachSpill installs a spill tier.
func (m *Manager) AttachSpill(s *Spill) { m.spill = s }

// NoteEviction records one eviction under the given policy name.
func (m *Manager) NoteEviction(policy string) {
	m.evictions++
	m.evictionsByPolicy[policy]++
}

// Evictions returns the total evictions recorded.
func (m *Manager) Evictions() int { return m.evictions }

// EvictionsByPolicy returns a copy of the per-policy eviction counts.
func (m *Manager) EvictionsByPolicy() map[string]int {
	out := make(map[string]int, len(m.evictionsByPolicy))
	for k, v := range m.evictionsByPolicy {
		out[k] = v
	}
	return out
}

// Close releases the spill tier's disk space.
func (m *Manager) Close() error {
	if m.spill != nil {
		return m.spill.Close()
	}
	return nil
}
