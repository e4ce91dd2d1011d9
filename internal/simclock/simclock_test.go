package simclock

import (
	"testing"
	"time"

	"repro/internal/dist"
)

func TestVirtualClockAdvance(t *testing.T) {
	c := NewVirtual(0)
	if c.Now() != 0 {
		t.Fatalf("start = %v", c.Now())
	}
	c.Advance(5 * time.Millisecond)
	c.Advance(-time.Second) // negative ignored
	if c.Now() != 5*time.Millisecond {
		t.Errorf("now = %v", c.Now())
	}
	c.AdvanceTo(3 * time.Millisecond) // past: no-op
	if c.Now() != 5*time.Millisecond {
		t.Errorf("AdvanceTo went backwards: %v", c.Now())
	}
	c.AdvanceTo(9 * time.Millisecond)
	if c.Now() != 9*time.Millisecond {
		t.Errorf("AdvanceTo failed: %v", c.Now())
	}
}

func TestVirtualClockStart(t *testing.T) {
	c := NewVirtual(42 * time.Second)
	if c.Now() != 42*time.Second {
		t.Errorf("start offset lost: %v", c.Now())
	}
}

// TestVirtualClockConcurrent pins the ownership contract: a clock belongs to
// one goroutine, and engines running side by side on their own clocks (one
// goroutine each) lose no advance. Under -race it also shows that no clock
// is shared between them.
func TestVirtualClockConcurrent(t *testing.T) {
	const owners, steps = 8, 1000
	clocks := make([]*Virtual, owners)
	done := make(chan struct{})
	for i := range clocks {
		clocks[i] = NewVirtual(time.Duration(i) * time.Second)
		go func(c *Virtual) {
			defer func() { done <- struct{}{} }()
			for j := 0; j < steps; j++ {
				c.Advance(time.Microsecond)
				c.AdvanceTo(c.Now() - time.Nanosecond) // past: no-op
			}
		}(clocks[i])
	}
	for range clocks {
		<-done
	}
	for i, c := range clocks {
		if want := time.Duration(i)*time.Second + steps*time.Microsecond; c.Now() != want {
			t.Errorf("clock %d = %v, want %v", i, c.Now(), want)
		}
	}
}

func TestDelayModelDistributions(t *testing.T) {
	m := DefaultDelays(dist.New(1))
	const n = 20000
	var sumS, sumP time.Duration
	for i := 0; i < n; i++ {
		s := m.StreamRead()
		p := m.RemoteProbe()
		if s < 0 || p < 0 {
			t.Fatal("negative delay")
		}
		sumS += s
		sumP += p
	}
	meanS := sumS / n
	meanP := sumP / n
	if meanS < 1900*time.Microsecond || meanS > 2100*time.Microsecond {
		t.Errorf("stream mean = %v, want ≈2ms", meanS)
	}
	if meanP < 1900*time.Microsecond || meanP > 2100*time.Microsecond {
		t.Errorf("probe mean = %v, want ≈2ms", meanP)
	}
	if m.Join() != m.JoinCost || m.Join() <= 0 {
		t.Errorf("join cost = %v", m.Join())
	}
}

func TestDelayModelDeterministic(t *testing.T) {
	m1 := DefaultDelays(dist.New(9))
	m2 := DefaultDelays(dist.New(9))
	for i := 0; i < 100; i++ {
		if m1.StreamRead() != m2.StreamRead() {
			t.Fatal("same-seed delay models diverged")
		}
	}
}

func TestZeroMeanDelay(t *testing.T) {
	m := &DelayModel{rng: dist.New(1), StreamMean: 0, ProbeMean: 0}
	if m.StreamRead() != 0 || m.RemoteProbe() != 0 {
		t.Error("zero-mean delays should be zero")
	}
}
