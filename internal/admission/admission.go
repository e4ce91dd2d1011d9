// Package admission is the serving tier's overload-control layer: per-user
// token-bucket rate limits with fair arbitration of a global admission rate,
// bounded-queue shedding, and per-request latency budgets (deadline
// shedding).
//
// The package deliberately knows nothing about engines or HTTP. The service
// layer consults a Controller before a query is expanded or enqueued and
// translates a ShedError into its wire form (retryable 503 + Retry-After);
// the executor consults each request's deadline and cancels merges past
// their budget. Everything a shed means for correctness follows from where
// it happens: a rate or queue shed is strictly pre-admission and safe to
// retry elsewhere, while a deadline or drain shed cancels work that was
// already admitted and therefore must never be silently resubmitted.
package admission

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Shed reasons. Pre-admission reasons (user-rate, queue-full) are retryable;
// post-admission reasons (deadline, drain) are not — the query may have
// executed partially, and the strict idempotency rule of the fleet client
// only resubmits work that provably never reached admission.
const (
	// ReasonUserRate: the user's token bucket (or their fair share of the
	// global admission rate) was empty.
	ReasonUserRate = "user-rate"
	// ReasonQueueFull: the routed shard's admission queue was at MaxPending.
	ReasonQueueFull = "queue-full"
	// ReasonDeadline: the request exceeded its latency budget; its merge was
	// canceled and unlinked from the plan graph.
	ReasonDeadline = "deadline"
	// ReasonDrain: the request was aborted by a drain deadline so the shard
	// could finish shutting down.
	ReasonDrain = "drain"
	// ReasonRecoveredAbort: the admission journal of a crashed-and-restarted
	// shard proves the query was in flight when the process died. The merge
	// may have partially executed, so the shed is post-admission and
	// non-retryable at the RPC layer; only the front-end's explicit
	// re-dispatch path — which confirms the crash first — may resubmit it.
	ReasonRecoveredAbort = "recovered-abort"
)

// ShedError reports a load-shed decision. It flows from the admission layer
// through the service to the HTTP surface, where it becomes a 503 with a
// Retry-After hint and the retryable flag set only for pre-admission sheds.
type ShedError struct {
	// Reason is one of the Reason* constants.
	Reason string
	// RetryAfter hints when the client should try again (0 = no hint).
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("admission: shed (%s)", e.Reason)
}

// Retryable reports whether the shed happened strictly before admission, so
// a client may safely resubmit the query without risking double execution.
func (e *ShedError) Retryable() bool {
	return e.Reason == ReasonUserRate || e.Reason == ReasonQueueFull
}

// Config tunes the overload-control layer. The zero value disables every
// mechanism (the closed-loop behavior: senders block on the shard queue
// until the executor drains them). Each token bucket holds
// max(1, ceil(rate)) tokens.
type Config struct {
	// UserRate is the sustained per-user admission rate in queries/sec
	// (0 = no fixed per-user limit; with TotalRate set each user is still
	// bounded by their fair share of it).
	UserRate float64
	// TotalRate is the sustained global admission rate in queries/sec,
	// fair-arbitrated across the currently active users: each user may not
	// exceed TotalRate divided by the number of users seen in the last
	// activeWindow. 0 = unlimited.
	TotalRate float64

	// MaxPending bounds each shard's admission queue (submitted but not yet
	// admitted); arrivals beyond it are shed with ReasonQueueFull instead of
	// blocking the caller (0 = unbounded, closed-loop blocking).
	MaxPending int
	// Deadline is the per-request latency budget: a request still queued or
	// still merging this long after submission is shed with ReasonDeadline
	// and its merge canceled (0 = no budget).
	Deadline time.Duration
	// MaxInFlight bounds how many admitted merges a shard executes
	// concurrently; excess releases stay queued until capacity frees
	// (0 = unbounded). The engine processor-shares its scheduling rounds
	// across every admitted merge, so under sustained overload an unbounded
	// in-flight set slows all of them past any deadline together — bounding
	// it is what lets deadline shedding trim the queue's tail while the
	// head still completes in time.
	MaxInFlight int
}

// RetryAfter is the hint attached to a queue-full shed and the floor of a
// rate shed's hint.
const RetryAfter = 50 * time.Millisecond

const (
	// activeWindow is how long a user counts as active for fair arbitration
	// after their last request.
	activeWindow = time.Second
	// maxUsers bounds the tracked per-user buckets; the least recently seen
	// bucket is recycled first.
	maxUsers = 1024
)

// burstFor is the capacity of a bucket refilling at rate.
func burstFor(rate float64) int { return max(1, int(math.Ceil(rate))) }

// bucket is one token bucket. Tokens refill continuously at rate/sec up to
// burst; taking below zero is never allowed.
type bucket struct {
	tokens float64
	last   time.Time
	seen   time.Time // last admission attempt, for fair-share accounting
}

func (b *bucket) refill(now time.Time, rate float64, burst int) {
	if rate <= 0 {
		return
	}
	if !b.last.IsZero() {
		b.tokens += rate * now.Sub(b.last).Seconds()
	}
	if max := float64(burst); b.tokens > max {
		b.tokens = max
	}
	b.last = now
}

// Controller makes pre-admission shed decisions: per-user token buckets with
// fair arbitration of a global rate. Safe for concurrent use.
type Controller struct {
	cfg Config

	mu     sync.Mutex
	global bucket
	users  map[string]*bucket
	order  []string // insertion order, for maxUsers recycling

	// activeUsers is the cached fair-share denominator: distinct users seen
	// within activeWindow, recomputed lazily at most every activeEvery.
	activeUsers   int
	activeScanned time.Time
}

// activeEvery bounds how often the fair-share denominator is rescanned.
const activeEvery = 100 * time.Millisecond

// NewController builds a controller. Returns nil when cfg configures no
// rate limits — a nil Controller admits everything, so callers can hold one
// unconditionally.
func NewController(cfg Config) *Controller {
	if cfg.UserRate <= 0 && cfg.TotalRate <= 0 {
		return nil
	}
	c := &Controller{cfg: cfg, users: map[string]*bucket{}}
	c.global.tokens = float64(burstFor(cfg.TotalRate))
	return c
}

// Admit decides whether one request from user may enter at now. On shed it
// returns a ShedError with ReasonUserRate and a Retry-After hint sized to
// when the next token arrives; nil means admitted (tokens consumed).
func (c *Controller) Admit(user string, now time.Time) *ShedError {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	ub := c.userBucket(user, now)
	ub.seen = now

	// Per-user ceiling: the configured fixed rate, or — under a global rate
	// with no fixed per-user limit — the user's fair share of it. Fixed and
	// fair limits combine by the tighter one.
	rate := c.cfg.UserRate
	burst := burstFor(rate)
	if c.cfg.TotalRate > 0 {
		fair := c.cfg.TotalRate / float64(c.active(now))
		if rate <= 0 || fair < rate {
			rate = fair
			if b := burstFor(fair); b < burst || c.cfg.UserRate <= 0 {
				burst = b
			}
		}
	}

	if rate > 0 {
		ub.refill(now, rate, burst)
		if ub.tokens < 1 {
			return &ShedError{Reason: ReasonUserRate, RetryAfter: retryAfter(rate, ub.tokens)}
		}
	}
	if c.cfg.TotalRate > 0 {
		c.global.refill(now, c.cfg.TotalRate, burstFor(c.cfg.TotalRate))
		if c.global.tokens < 1 {
			return &ShedError{Reason: ReasonUserRate, RetryAfter: retryAfter(c.cfg.TotalRate, c.global.tokens)}
		}
		c.global.tokens--
	}
	if rate > 0 {
		ub.tokens--
	}
	return nil
}

// retryAfter sizes the hint to when the bucket next holds a whole token,
// floored at RetryAfter.
func retryAfter(rate, tokens float64) time.Duration {
	d := RetryAfter
	if rate > 0 {
		if wait := time.Duration((1 - tokens) / rate * float64(time.Second)); wait > d {
			d = wait
		}
	}
	return d
}

// userBucket finds or creates the user's bucket, recycling the oldest entry
// past maxUsers. A recycled user starts from a full bucket — forgetting is
// generous, never punitive.
func (c *Controller) userBucket(user string, now time.Time) *bucket {
	if b, ok := c.users[user]; ok {
		return b
	}
	if len(c.order) >= maxUsers {
		delete(c.users, c.order[0])
		c.order = c.order[1:]
	}
	b := &bucket{tokens: float64(burstFor(c.cfg.UserRate)), last: now}
	c.users[user] = b
	c.order = append(c.order, user)
	return b
}

// active returns the fair-share denominator: users seen within activeWindow,
// at least 1. Rescan is amortized to every activeEvery.
func (c *Controller) active(now time.Time) int {
	if now.Sub(c.activeScanned) >= activeEvery || c.activeUsers == 0 {
		n := 0
		for _, b := range c.users {
			if now.Sub(b.seen) <= activeWindow {
				n++
			}
		}
		c.activeUsers = n
		c.activeScanned = now
	}
	if c.activeUsers < 1 {
		return 1
	}
	return c.activeUsers
}
