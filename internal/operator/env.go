// Package operator implements the query plan graph's runtime operators (§4.1):
// epoch-partitioned access modules with insertion-order logs (the hash tables
// with embedded linked lists of §6.2), the m-join / STeM eddy with adaptive
// probe sequencing [24,34], the split operator (fan-out delivery), and the
// m-way rank-merge operator with TA/NRA-style thresholds [7]. The ATC drives
// these operators; every remote or CPU operation is charged to the execution
// environment's clock and counters, which is how the experiments measure the
// paper's time breakdown (Figure 8).
package operator

import (
	"repro/internal/metrics"
	"repro/internal/simclock"
)

// Env is the execution context shared by all operators of one plan graph:
// one ATC thread, one clock, one delay model, one counter set.
type Env struct {
	Clock   *simclock.Virtual
	Delays  *simclock.DelayModel
	Metrics *metrics.Counters
}

// ChargeStreamRead advances the clock by one streaming-read delay.
func (e *Env) ChargeStreamRead() {
	d := e.Delays.StreamRead()
	e.Clock.Advance(d)
	e.Metrics.AddStreamRead(d)
}

// ChargeRemoteProbe advances the clock by one remote-probe delay; n is the
// number of tuples the probe returned.
func (e *Env) ChargeRemoteProbe(n int) {
	d := e.Delays.RemoteProbe()
	e.Clock.Advance(d)
	e.Metrics.AddProbe(d, n)
}

// ChargeJoin advances the clock by one in-memory join operation.
func (e *Env) ChargeJoin() {
	d := e.Delays.Join()
	e.Clock.Advance(d)
	e.Metrics.AddJoin(d)
}

// ChargeSpillRead advances the clock by the local-I/O cost of reading rows
// back from a spilled plan segment (§6.3 disk tier) and records the read.
// Spilled rows are charged as cheap local work, not as remote source reads —
// that difference is the entire point of spilling over discarding.
func (e *Env) ChargeSpillRead(rows int, bytes int64) {
	e.Clock.Advance(e.Delays.SpillRead(rows))
	e.Metrics.AddSpillRead(int64(rows), bytes)
}
