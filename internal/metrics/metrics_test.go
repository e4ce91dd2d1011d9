package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestCountersAccumulate(t *testing.T) {
	var c Counters
	c.AddStreamRead(2 * time.Millisecond)
	c.AddStreamRead(3 * time.Millisecond)
	c.AddProbe(time.Millisecond, 4)
	c.AddProbeCacheHit()
	c.AddJoin(time.Microsecond)
	c.AddJoinInsert()
	c.AddJoinProbe()
	c.AddResult()
	c.AddReplayTuple()
	s := c.Snapshot()
	if s.StreamTime != 5*time.Millisecond || s.StreamTuples != 2 {
		t.Errorf("stream: %v %d", s.StreamTime, s.StreamTuples)
	}
	if s.ProbeTime != time.Millisecond || s.ProbeCalls != 1 || s.ProbeTuples != 4 || s.ProbeCacheHits != 1 {
		t.Errorf("probe: %+v", s)
	}
	if s.JoinTime != time.Microsecond || s.JoinInserts != 1 || s.JoinProbes != 1 {
		t.Errorf("join: %+v", s)
	}
	if s.ResultsEmitted != 1 || s.ReplayTuples != 1 {
		t.Errorf("results/replay: %+v", s)
	}
	if s.TuplesConsumed() != 6 {
		t.Errorf("consumed = %d, want streamTuples+probeTuples = 6", s.TuplesConsumed())
	}
	if s.TotalTime() != 5*time.Millisecond+time.Millisecond+time.Microsecond {
		t.Errorf("total = %v", s.TotalTime())
	}
}

func TestSnapshotAdd(t *testing.T) {
	var a, b Counters
	a.AddStreamRead(time.Millisecond)
	b.AddProbe(2*time.Millisecond, 3)
	sum := a.Snapshot().Add(b.Snapshot())
	if sum.StreamTuples != 1 || sum.ProbeTuples != 3 || sum.TotalTime() != 3*time.Millisecond {
		t.Errorf("sum = %+v", sum)
	}
}

// TestCountersConcurrent pins the ownership contract: a counter set belongs
// to one goroutine (its engine's), so engines running side by side each
// count into their own set, lose nothing, and their snapshots sum exactly
// with Snapshot.Add. Under -race it also shows that no set is shared.
func TestCountersConcurrent(t *testing.T) {
	const owners, steps = 8, 1000
	sets := make([]Counters, owners)
	var wg sync.WaitGroup
	for i := range sets {
		wg.Add(1)
		go func(c *Counters) {
			defer wg.Done()
			for j := 0; j < steps; j++ {
				c.AddStreamRead(time.Microsecond)
				c.AddJoinProbe()
				c.AddSpillWrite(2, 3)
			}
		}(&sets[i])
	}
	wg.Wait()
	var sum Snapshot
	for i := range sets {
		s := sets[i].Snapshot()
		if s.StreamTuples != steps || s.JoinProbes != steps || s.SpillRowsWritten != 2*steps {
			t.Errorf("set %d lost updates: %+v", i, s)
		}
		sum = sum.Add(s)
	}
	want := Snapshot{
		StreamTime:        owners * steps * time.Microsecond,
		StreamTuples:      owners * steps,
		JoinProbes:        owners * steps,
		SpillSegsWritten:  owners * steps,
		SpillRowsWritten:  2 * owners * steps,
		SpillBytesWritten: 3 * owners * steps,
	}
	if sum != want {
		t.Errorf("summed snapshots = %+v, want %+v", sum, want)
	}
}
