package admission

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestNilControllerAdmitsEverything(t *testing.T) {
	var c *Controller
	if err := c.Admit("anyone", time.Now()); err != nil {
		t.Fatalf("nil controller shed: %v", err)
	}
	if NewController(Config{MaxPending: 10, Deadline: time.Second}) != nil {
		t.Fatal("queue/deadline-only config should not allocate a rate controller")
	}
}

func TestUserRateBucket(t *testing.T) {
	// 2/s holds a burst of ceil(2) = 2.
	c := NewController(Config{UserRate: 2})
	now := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		if err := c.Admit("alice", now); err != nil {
			t.Fatalf("burst admit %d shed: %v", i, err)
		}
	}
	shed := c.Admit("alice", now)
	if shed == nil {
		t.Fatal("third immediate request should shed")
	}
	if shed.Reason != ReasonUserRate {
		t.Fatalf("reason = %q, want %q", shed.Reason, ReasonUserRate)
	}
	if !shed.Retryable() {
		t.Fatal("rate shed must be retryable (strictly pre-admission)")
	}
	// An empty bucket at 2/s next holds a token in 500ms.
	if shed.RetryAfter != 500*time.Millisecond {
		t.Fatalf("rate shed hints Retry-After %v, want 500ms", shed.RetryAfter)
	}
	// Another user is unaffected.
	if err := c.Admit("bob", now); err != nil {
		t.Fatalf("bob shed by alice's bucket: %v", err)
	}
	// 500ms refills one token at 2/s.
	if err := c.Admit("alice", now.Add(510*time.Millisecond)); err != nil {
		t.Fatalf("refilled admit shed: %v", err)
	}
}

func TestFairArbitrationOfTotalRate(t *testing.T) {
	// 20/s global, no fixed per-user limit. With two active users each fair
	// share is 10/s: one user alone cannot monopolize the global rate. The
	// whole test spans 0.6s, so both users stay active throughout.
	c := NewController(Config{TotalRate: 20})
	now := time.Unix(2000, 0)
	if err := c.Admit("greedy", now); err != nil {
		t.Fatalf("first admit shed: %v", err)
	}
	if err := c.Admit("meek", now); err != nil {
		t.Fatalf("meek admit shed: %v", err)
	}
	// Force the fair-share denominator rescan past the amortization.
	now = now.Add(200 * time.Millisecond)
	admitted := 0
	for i := 0; i < 40; i++ {
		if c.Admit("greedy", now.Add(time.Duration(i)*10*time.Millisecond)) == nil {
			admitted++
		}
	}
	// Over 0.4s at a 10/s fair share, greedy gets ~4 admits (+ small burst);
	// anywhere near the 40 offered would mean fair arbitration is off.
	if admitted > 12 {
		t.Fatalf("greedy admitted %d of 40 under a 10/s fair share", admitted)
	}
	// meek still gets through at the same instants.
	if err := c.Admit("meek", now.Add(400*time.Millisecond)); err != nil {
		t.Fatalf("meek starved: %v", err)
	}
}

// TestUserBucketRecycling: past maxUsers tracked users the least recently
// seen bucket is recycled.
func TestUserBucketRecycling(t *testing.T) {
	c := NewController(Config{UserRate: 1})
	now := time.Unix(3000, 0)
	for i := 0; i <= maxUsers; i++ { // the last recycles u0
		c.Admit(fmt.Sprintf("u%d", i), now)
	}
	if len(c.users) != maxUsers {
		t.Fatalf("tracked users = %d, want %d", len(c.users), maxUsers)
	}
	if _, ok := c.users["u0"]; ok {
		t.Fatal("oldest user not recycled")
	}
	// A recycled user returns with a fresh (full) bucket, not a grudge.
	if err := c.Admit("u0", now); err != nil {
		t.Fatalf("recycled user shed on return: %v", err)
	}
}

func TestShedErrorClassification(t *testing.T) {
	for reason, retryable := range map[string]bool{
		ReasonUserRate:  true,
		ReasonQueueFull: true,
		ReasonDeadline:  false,
		ReasonDrain:     false,
	} {
		e := &ShedError{Reason: reason}
		if e.Retryable() != retryable {
			t.Errorf("Retryable(%s) = %v, want %v", reason, e.Retryable(), retryable)
		}
		var shed *ShedError
		if !errors.As(error(e), &shed) {
			t.Errorf("errors.As failed for %s", reason)
		}
	}
}

// TestConfigDefaults: a bucket's capacity is its rate rounded up, and never
// less than one token.
func TestConfigDefaults(t *testing.T) {
	for rate, want := range map[float64]int{3.5: 4, 10: 10, 0.2: 1, 0: 1} {
		if got := burstFor(rate); got != want {
			t.Errorf("burstFor(%v) = %d, want %d", rate, got, want)
		}
	}
}
