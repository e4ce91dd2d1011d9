package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/cq"
	"repro/internal/metrics"
	"repro/internal/service"
)

// RPCError is a non-2xx response from a shard. Retryable is the shard's own
// claim that the request was rejected strictly before admission. Reason, when
// set, is the admission shed reason (admission.Reason* constants): the shard
// turned the request away because it is saturated or the request blew its
// latency budget — not because the shard is down. RetryAfter is the shard's
// hint on when to try again.
type RPCError struct {
	Status     int
	Msg        string
	Retryable  bool
	Reason     string
	RetryAfter time.Duration
}

// Shed reports whether the error is an overload shed rather than a failure.
func (e *RPCError) Shed() bool { return e.Reason != "" }

func (e *RPCError) Error() string {
	return fmt.Sprintf("fleet: rpc status %d: %s", e.Status, e.Msg)
}

// ErrCircuitOpen is returned without touching the network while a backend's
// circuit breaker is open.
var ErrCircuitOpen = errors.New("fleet: circuit open")

// ClientConfig tunes a shard client.
type ClientConfig struct {
	// Timeout bounds each RPC attempt (default 30s).
	Timeout time.Duration
	// MaxRetries bounds resubmissions of safely retryable failures
	// (default 3).
	MaxRetries int
	// RetryBackoff is the base backoff between attempts, jittered and doubled
	// per retry (default 25ms).
	RetryBackoff time.Duration
	// BreakerThreshold is the consecutive-failure count that opens the
	// circuit (default 5); BreakerCooloff how long it stays open before one
	// probe attempt is let through (default 2s).
	BreakerThreshold int
	BreakerCooloff   time.Duration
	// Transport, when non-nil, replaces the default HTTP transport — the
	// fault-injection seam (see the chaos package). Production leaves it nil.
	Transport http.RoundTripper
	// Metrics receives RPC and breaker counters; nil disables.
	Metrics *metrics.Fleet
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooloff <= 0 {
		c.BreakerCooloff = 2 * time.Second
	}
	return c
}

// Client speaks the shard RPC surface to one endpoint, with per-attempt
// timeouts, bounded jittered retry of safely-retryable failures, and a
// consecutive-failure circuit breaker that fails fast while open.
//
// The retry rule is strict about idempotency: a search is resubmitted only
// when it provably never reached admission — the connection could not be
// established at all, or the shard answered 503 with the retryable flag
// (drain/closed rejection before admission). An error after the request may
// have started executing (reset mid-response, timeout, 5xx without the flag)
// is surfaced, never retried: the engine is deterministic precisely because
// each UQ is admitted exactly once.
type Client struct {
	base string
	cfg  ClientConfig
	http *http.Client

	mu        sync.Mutex
	fails     int       // consecutive transport/5xx failures
	openUntil time.Time // breaker open until this instant
	rng       *rand.Rand
}

// NewClient builds a client for a shard endpoint ("http://host:port").
func NewClient(endpoint string, cfg ClientConfig) *Client {
	cfg = cfg.withDefaults()
	return &Client{
		base: strings.TrimRight(endpoint, "/"),
		cfg:  cfg,
		http: &http.Client{Timeout: cfg.Timeout, Transport: cfg.Transport},
		rng:  rand.New(rand.NewSource(int64(len(endpoint)) + time.Now().UnixNano())),
	}
}

// Endpoint returns the shard base URL.
func (c *Client) Endpoint() string { return c.base }

// Close releases idle connections.
func (c *Client) Close() error {
	c.http.CloseIdleConnections()
	return nil
}

// breakerAllow reports whether a call may proceed: the circuit is closed, or
// it is open but the cooloff has passed, in which case this call is the
// half-open probe (the open window is extended so concurrent calls keep
// failing fast until the probe settles).
func (c *Client) breakerAllow() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fails < c.cfg.BreakerThreshold {
		return true
	}
	now := time.Now()
	if now.Before(c.openUntil) {
		return false
	}
	c.openUntil = now.Add(c.cfg.BreakerCooloff)
	return true
}

func (c *Client) noteResult(failed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !failed {
		c.fails = 0
		return
	}
	c.fails++
	if c.fails == c.cfg.BreakerThreshold {
		c.openUntil = time.Now().Add(c.cfg.BreakerCooloff)
		if c.cfg.Metrics != nil {
			c.cfg.Metrics.CircuitOpens.Inc()
		}
	}
}

// connectFailure reports whether err means the connection was never
// established — the one transport failure after which no request bytes can
// have reached the shard.
func connectFailure(err error) bool {
	var op *net.OpError
	if errors.As(err, &op) && op.Op == "dial" {
		return true
	}
	return false
}

// retryable classifies an RPC failure per the idempotency rule above.
func retryable(err error) bool {
	var rpcErr *RPCError
	if errors.As(err, &rpcErr) {
		return rpcErr.Retryable && rpcErr.Status == http.StatusServiceUnavailable
	}
	return connectFailure(err)
}

// call performs one RPC with retry and breaker handling. in == nil sends a
// GET; out == nil discards the response body.
func (c *Client) call(ctx context.Context, path string, in, out any) error {
	if !c.breakerAllow() {
		if c.cfg.Metrics != nil {
			c.cfg.Metrics.RPCFailures.Inc()
		}
		return fmt.Errorf("%w: %s", ErrCircuitOpen, c.base)
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if c.cfg.Metrics != nil {
			c.cfg.Metrics.RPCCalls.Inc()
		}
		t0 := time.Now()
		err := c.once(ctx, path, in, out)
		if c.cfg.Metrics != nil {
			c.cfg.Metrics.RPCLatency.Observe(time.Since(t0))
		}
		c.noteResult(err != nil && terminalTransport(err))
		if err == nil {
			return nil
		}
		lastErr = err
		if c.cfg.Metrics != nil {
			c.cfg.Metrics.RPCFailures.Inc()
		}
		if attempt >= c.cfg.MaxRetries || !retryable(err) || ctx.Err() != nil {
			return err
		}
		if c.cfg.Metrics != nil {
			c.cfg.Metrics.RPCRetries.Inc()
		}
		// A shed's Retry-After hint floors the backoff: retrying into a
		// saturated shard before its bucket refills just sheds again.
		wait := c.backoff(attempt)
		var rpcErr *RPCError
		if errors.As(err, &rpcErr) && rpcErr.RetryAfter > wait {
			wait = rpcErr.RetryAfter
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return lastErr
		}
	}
}

// terminalTransport reports whether the failure should count against the
// circuit breaker: transport-level errors and 5xx responses, but not
// application rejections (4xx) — a malformed query says nothing about the
// shard's health — and not overload sheds, which mean the shard is saturated
// and alive; opening the circuit on sheds would turn backpressure into an
// outage.
func terminalTransport(err error) bool {
	var rpcErr *RPCError
	if errors.As(err, &rpcErr) {
		return rpcErr.Status >= 500 && !rpcErr.Shed()
	}
	return true
}

// backoff returns the jittered exponential delay before retry attempt+1.
func (c *Client) backoff(attempt int) time.Duration {
	base := c.cfg.RetryBackoff << uint(attempt)
	c.mu.Lock()
	j := c.rng.Int63n(int64(base) + 1)
	c.mu.Unlock()
	return base + time.Duration(j)
}

func (c *Client) once(ctx context.Context, path string, in, out any) error {
	var (
		req *http.Request
		err error
	)
	if in == nil {
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	} else {
		var body bytes.Buffer
		if err := json.NewEncoder(&body).Encode(in); err != nil {
			return fmt.Errorf("fleet: encode %s: %w", path, err)
		}
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, &body)
		if req != nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var we wireError
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if json.Unmarshal(data, &we) != nil || we.Error == "" {
			we.Error = strings.TrimSpace(string(data))
		}
		return &RPCError{
			Status:     resp.StatusCode,
			Msg:        we.Error,
			Retryable:  we.Retryable,
			Reason:     we.Reason,
			RetryAfter: time.Duration(we.RetryAfterMS) * time.Millisecond,
		}
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Search ships an expanded user query to the shard.
func (c *Client) Search(ctx context.Context, uq *cq.UQ) (*ResultView, error) {
	var view ResultView
	if err := c.call(ctx, "/rpc/search", EncodeUQ(uq), &view); err != nil {
		return nil, err
	}
	return &view, nil
}

// Health probes the shard.
func (c *Client) Health(ctx context.Context) (HealthView, error) {
	var hv HealthView
	err := c.call(ctx, "/rpc/health", nil, &hv)
	return hv, err
}

// Recovered fetches the shard's journaled crash aborts.
func (c *Client) Recovered(ctx context.Context) (RecoveredView, error) {
	var rv RecoveredView
	err := c.call(ctx, "/rpc/recovered", nil, &rv)
	return rv, err
}

// Stats snapshots the shard's counters.
func (c *Client) Stats(ctx context.Context) (*service.Stats, error) {
	var st service.Stats
	if err := c.call(ctx, "/rpc/stats", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}
