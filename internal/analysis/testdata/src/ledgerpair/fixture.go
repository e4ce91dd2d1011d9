// Package ledgerfix exercises the ledgerpair analyzer against the real
// state.Account API: owned accounts that grow must have a release path.
package ledgerfix

import "repro/internal/state"

// leaky owns its account and grows it with no release path anywhere: the
// PR 8 ScratchRows class.
type leaky struct {
	acct *state.Account
	rows []int
}

func newLeaky(l *state.Ledger) *leaky {
	t := &leaky{}
	t.acct = l.NewAccount()
	return t
}

func (t *leaky) Append(v int) {
	t.rows = append(t.rows, v)
	t.acct.Add(1) // want `leaky.acct grows via Add but nothing in this package releases it`
}

// scratchLeak grows the pooled-scratch dimension with no release.
type scratchLeak struct {
	acct *state.Account
}

func newScratchLeak(l *state.Ledger) *scratchLeak {
	s := &scratchLeak{}
	s.acct = l.NewAccount()
	return s
}

func (s *scratchLeak) Pool(n int) {
	s.acct.AddScratch(n) // want `scratchLeak.acct grows via AddScratch`
}

// paired grows and releases: legal.
type paired struct {
	acct *state.Account
	rows []int
}

func newPaired(l *state.Ledger) *paired {
	p := &paired{}
	p.acct = l.NewAccount()
	return p
}

func (p *paired) Append(v int) {
	p.rows = append(p.rows, v)
	p.acct.Add(1)
}

func (p *paired) Reset() {
	p.acct.Add(-len(p.rows))
	p.rows = nil
}

// exposed grows but returns its account for the owner to release — the
// NodeExec/ATC idiom: legal.
type exposed struct {
	acct *state.Account
}

func newExposed(l *state.Ledger) *exposed {
	return &exposed{acct: l.NewAccount()}
}

func (e *exposed) Grow()                   { e.acct.Add(1) }
func (e *exposed) Account() *state.Account { return e.acct }

// borrowed references an account someone else owns (wired in via
// SetAccount, like a Log's identity set riding the Log account): legal.
type borrowed struct {
	acct *state.Account
}

func (b *borrowed) SetAccount(a *state.Account) { b.acct = a }
func (b *borrowed) Grow()                       { b.acct.Add(1) }

// allowedLeak documents an intentional process-lifetime account.
type allowedLeak struct {
	acct *state.Account
}

func newAllowedLeak(l *state.Ledger) *allowedLeak {
	a := &allowedLeak{}
	a.acct = l.NewAccount()
	return a
}

func (a *allowedLeak) Grow() {
	//qsys:allow ledgerpair: fixture process-lifetime account, reclaimed at ledger teardown
	a.acct.Add(1)
}

// emptyReason shows the escape hatch failing without a justification.
type emptyReason struct {
	acct *state.Account
}

func newEmptyReason(l *state.Ledger) *emptyReason {
	e := &emptyReason{}
	e.acct = l.NewAccount()
	return e
}

func (e *emptyReason) Grow() {
	e.acct.Add(1) //qsys:allow ledgerpair: // want `empty reason` `emptyReason.acct grows via Add`
}
