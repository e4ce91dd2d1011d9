// Package chaos is the fleet tier's fault-injection harness: an
// http.RoundTripper that wraps a real transport and injects the failure modes
// a distributed serving tier must degrade through — added latency, refused
// connections, and connections that drop after the request was delivered.
//
// The injection point matters for correctness. A refusal is surfaced as a
// dial-op net.OpError, which the fleet client classifies as "provably never
// reached the shard" and may retry; a post-delivery drop is surfaced as a
// read-op error, which the client must NOT retry — the shard may have
// admitted and executed the request. The harness therefore exercises exactly
// the idempotency boundary the degradation contract pins: faults may cost
// answers or return errors, but they can never cause a query to execute
// twice.
//
// The random stream is seeded and independent of request timing only in
// count order: the i-th request through the transport sees a deterministic
// draw. Under concurrency the assignment of draws to requests varies, which
// is fine — fault-injection tests assert the contract (no wrong answers,
// front-end survives), never a particular fault placement.
package chaos

import (
	"errors"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/dist"
)

// Config tunes the injected faults. The zero value injects nothing.
type Config struct {
	// Latency is added to every request before it is sent; Jitter adds a
	// uniform extra in [0, Jitter).
	Latency time.Duration
	Jitter  time.Duration
	// RefuseProb is the probability a request fails with a connection
	// refusal before any bytes are sent (retryable at the client).
	RefuseProb float64
	// DropProb is the probability the connection "drops" after the request
	// was delivered and a response received: the response is discarded and a
	// read error surfaced (NOT retryable at the client — the request may
	// have executed).
	DropProb float64
}

// Stats counts injected faults.
type Stats struct {
	Requests int64 `json:"requests"`
	Refused  int64 `json:"refused"`
	Dropped  int64 `json:"dropped"`
}

// Transport injects faults around a base RoundTripper. Safe for concurrent
// use.
type Transport struct {
	base http.RoundTripper

	mu    sync.Mutex
	cfg   Config
	rng   *dist.RNG
	stats Stats
}

// New wraps base (nil = http.DefaultTransport) with fault injection drawn
// from a deterministic stream seeded by seed.
func New(base http.RoundTripper, seed uint64, cfg Config) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Transport{base: base, cfg: cfg, rng: dist.New(seed)}
}

// Stats snapshots the fault counters.
func (t *Transport) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// CloseIdleConnections forwards to the base transport so http.Client.
// CloseIdleConnections still releases pooled connections through the wrapper.
func (t *Transport) CloseIdleConnections() {
	if ci, ok := t.base.(interface{ CloseIdleConnections() }); ok {
		ci.CloseIdleConnections()
	}
}

// errRefused mimics a TCP connection refusal: the one failure mode after
// which the client knows no request bytes reached the server.
var errRefused = errors.New("chaos: connection refused")

// errDropped mimics a connection reset after the request was delivered.
var errDropped = errors.New("chaos: connection dropped mid-response")

// RoundTrip applies the fault plan to one request.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	cfg := t.cfg
	t.stats.Requests++
	refuse := cfg.RefuseProb > 0 && t.rng.Float64() < cfg.RefuseProb
	drop := cfg.DropProb > 0 && t.rng.Float64() < cfg.DropProb
	delay := cfg.Latency
	if cfg.Jitter > 0 {
		delay += time.Duration(t.rng.Float64() * float64(cfg.Jitter))
	}
	if refuse {
		t.stats.Refused++
	}
	t.mu.Unlock()

	if delay > 0 {
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		}
	}
	if refuse {
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: errRefused}
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if drop {
		resp.Body.Close()
		t.mu.Lock()
		t.stats.Dropped++
		t.mu.Unlock()
		return nil, &net.OpError{Op: "read", Net: "tcp", Err: errDropped}
	}
	return resp, nil
}
