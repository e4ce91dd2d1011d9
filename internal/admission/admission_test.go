package admission

import (
	"errors"
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
	c := NewController(Config{UserRate: 10, UserBurst: 2})
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
	if shed.RetryAfter <= 0 {
		t.Fatal("rate shed should hint Retry-After")
	}
	// Another user is unaffected.
	if err := c.Admit("bob", now); err != nil {
		t.Fatalf("bob shed by alice's bucket: %v", err)
	}
	// 100ms refills one token at 10/s.
	if err := c.Admit("alice", now.Add(110*time.Millisecond)); err != nil {
		t.Fatalf("refilled admit shed: %v", err)
	}
}

func TestFairArbitrationOfTotalRate(t *testing.T) {
	// 20/s global, no fixed per-user limit. With two active users each fair
	// share is 10/s: one user alone cannot monopolize the global rate.
	c := NewController(Config{TotalRate: 20, TotalBurst: 40, ActiveWindow: time.Minute})
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

func TestMaxUsersRecycling(t *testing.T) {
	c := NewController(Config{UserRate: 1, MaxUsers: 2})
	now := time.Unix(3000, 0)
	c.Admit("a", now)
	c.Admit("b", now)
	c.Admit("c", now) // recycles a
	if len(c.users) != 2 {
		t.Fatalf("tracked users = %d, want 2", len(c.users))
	}
	if _, ok := c.users["a"]; ok {
		t.Fatal("oldest user not recycled")
	}
	// A recycled user returns with a fresh (full) bucket, not a grudge.
	if err := c.Admit("a", now); err != nil {
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

func TestWindowWidensUnderQueuePressureAndDecaysIdle(t *testing.T) {
	w := NewWindowController(25*time.Millisecond, 0)
	if w.Window() != 0 {
		t.Fatalf("initial window = %v, want 0", w.Window())
	}
	for i := 0; i < 50; i++ {
		w.ObserveQueue(40, 5)
	}
	widened := w.Window()
	if widened != 25*time.Millisecond {
		t.Fatalf("window under sustained pressure = %v, want clamp at 25ms", widened)
	}
	for i := 0; i < 50; i++ {
		w.ObserveQueue(0, 1)
	}
	if w.Window() != 0 {
		t.Fatalf("idle window = %v, want decay to 0", w.Window())
	}
}

func TestWindowShrinksWhenLatencyNearsDeadline(t *testing.T) {
	deadline := 100 * time.Millisecond
	w := NewWindowController(25*time.Millisecond, deadline)
	for i := 0; i < 20; i++ {
		w.ObserveQueue(40, 5)
	}
	if w.Window() == 0 {
		t.Fatal("setup: window should be widened")
	}
	// Completions near the budget must pull the window back down even while
	// the queue stays deep: admission wait cannot spend the engine's budget.
	for i := 0; i < 50; i++ {
		w.ObserveLatency(90 * time.Millisecond)
	}
	if w.Window() != 0 {
		t.Fatalf("window with p99 at 90%% of deadline = %v, want 0", w.Window())
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{UserRate: 3.5}.withDefaults()
	if c.UserBurst != 4 {
		t.Fatalf("UserBurst default = %d, want ceil(3.5)=4", c.UserBurst)
	}
	if c.RetryAfter != 50*time.Millisecond || c.MaxUsers != 1024 {
		t.Fatalf("defaults: %+v", c)
	}
	if !c.Enabled() || !c.RateLimited() {
		t.Fatal("UserRate config should be enabled and rate-limited")
	}
	if (Config{}).Enabled() {
		t.Fatal("zero config must be disabled")
	}
	if !(Config{AdaptiveWindow: true}).Enabled() {
		t.Fatal("adaptive-window config should count as enabled")
	}
}
