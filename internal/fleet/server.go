package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/service"
)

// ShardServer exposes one engine as a shard of the distributed
// tier. It owns the drain lifecycle: once draining, searches are turned away
// with a retryable 503 (they were rejected strictly before admission, so
// resubmitting elsewhere is safe) and in-flight searches run to completion.
// The engine keeps its retained state, so a checkpoint taken after the drain
// still captures it.
type ShardServer struct {
	svc *service.Service

	// DrainDeadline bounds how long a drain waits for in-flight searches
	// before aborting them (0 = the 60s default). Set before serving.
	DrainDeadline time.Duration

	mu       sync.Mutex
	draining bool
	inflight int
	// idle is closed when draining has been requested and the last in-flight
	// search has finished.
	idle chan struct{}
}

// NewShardServer wraps an engine (service.New with the slot's ShardIDOffset)
// for serving.
func NewShardServer(svc *service.Service) *ShardServer {
	return &ShardServer{svc: svc}
}

// Handler returns the shard's RPC mux.
func (s *ShardServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /rpc/search", s.handleSearch)
	mux.HandleFunc("GET /rpc/stats", s.handleStats)
	mux.HandleFunc("GET /rpc/health", s.handleHealth)
	mux.HandleFunc("GET /rpc/recovered", s.handleRecovered)
	mux.HandleFunc("POST /rpc/drain", s.handleDrain)
	return mux
}

// beginSearch claims an in-flight slot unless the shard is draining. The
// claim and the check are one critical section, so no search can slip past
// a drain that has already counted the in-flight set.
func (s *ShardServer) beginSearch() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight++
	return true
}

func (s *ShardServer) endSearch() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight--
	if s.draining && s.inflight == 0 && s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
}

// Draining reports whether the shard has stopped admitting searches.
func (s *ShardServer) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// InFlight reports the number of searches currently executing.
func (s *ShardServer) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

func (s *ShardServer) handleSearch(rw http.ResponseWriter, req *http.Request) {
	if !s.beginSearch() {
		// Refused strictly before admission — retryable by construction.
		writeRPCError(rw, http.StatusServiceUnavailable, "shard draining", true)
		return
	}
	defer s.endSearch()

	body, err := readBody(http.MaxBytesReader(rw, req.Body, maxFrameBytes), req.ContentLength)
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) || errors.Is(err, errFrameTooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeRPCError(rw, code, err.Error(), false)
		return
	}
	wire, err := DecodeSearchRequest(body)
	if err != nil {
		writeRPCError(rw, http.StatusBadRequest, err.Error(), false)
		return
	}
	uq, err := DecodeUQ(wire)
	if err != nil {
		writeRPCError(rw, http.StatusUnprocessableEntity, err.Error(), false)
		return
	}
	res, err := s.svc.SearchUQ(req.Context(), uq)
	if err != nil {
		var shed *admission.ShedError
		switch {
		case errors.As(err, &shed):
			// A load shed is a 503 that keeps its provenance: the reason and
			// Retry-After hint ride the envelope, and the retryable flag is
			// exactly the shed's pre-admission claim.
			WriteShedError(rw, shed)
		case errors.Is(err, service.ErrClosed):
			// Closed before admission ever happened: safe to resubmit.
			writeRPCError(rw, http.StatusServiceUnavailable, err.Error(), true)
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			writeRPCError(rw, http.StatusRequestTimeout, err.Error(), false)
		default:
			writeRPCError(rw, http.StatusUnprocessableEntity, err.Error(), false)
		}
		return
	}
	frame := AppendSearchResponse(nil, ViewOf(res))
	rw.Header().Set("Content-Type", frameContentType)
	rw.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	if _, err := rw.Write(frame); err != nil {
		log.Printf("fleet: write search response: %v", err)
	}
}

func (s *ShardServer) handleStats(rw http.ResponseWriter, req *http.Request) {
	st := s.svc.Stats()
	writeRPCJSON(rw, &st)
}

func (s *ShardServer) handleHealth(rw http.ResponseWriter, req *http.Request) {
	writeRPCJSON(rw, s.health())
}

// health reports the shard's lifecycle phase and recovery counters.
func (s *ShardServer) health() HealthView {
	s.mu.Lock()
	draining, inflight := s.draining, s.inflight
	s.mu.Unlock()
	st := "ready"
	if draining {
		st = "draining"
	}
	rs := s.svc.RecoveryStats()
	return HealthView{
		Healthy:         !draining,
		Draining:        draining,
		InFlight:        inflight,
		State:           st,
		CheckpointGen:   rs.Generation,
		RecoveredAborts: rs.JournaledAborts,
		JournalErrors:   rs.JournalErrors,
	}
}

func (s *ShardServer) handleRecovered(rw http.ResponseWriter, req *http.Request) {
	recs := s.svc.RecoveredAborts()
	writeRPCJSON(rw, RecoveredView{Count: len(recs), Queries: recs})
}

func (s *ShardServer) handleDrain(rw http.ResponseWriter, req *http.Request) {
	if err := s.Drain(req.Context()); err != nil {
		writeRPCError(rw, http.StatusUnprocessableEntity, err.Error(), false)
		return
	}
	writeRPCJSON(rw, s.health())
}

// drainTimeout bounds how long a drain waits for in-flight searches.
const drainTimeout = 60 * time.Second

// drainAbortGrace bounds the post-abort re-wait: aborted handlers only need
// to observe their settled response channels and return.
const drainAbortGrace = 5 * time.Second

// Drain stops admissions and waits for in-flight searches to finish their
// merges. The engine's retained state stays where it is: the next checkpoint
// captures it, and a restart over the same checkpoint directory recovers it.
// Idempotent.
//
// The idle wait is bounded by DrainDeadline: a merge that never converges
// (the engine turns non-convergent rounds into per-merge errors, but a
// pathological one can still grind for a long time) must not wedge the drain
// forever. Past the deadline every in-flight search is aborted with a
// non-retryable drain shed — their merges canceled and unlinked.
func (s *ShardServer) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	var idle chan struct{}
	if s.inflight > 0 {
		if s.idle == nil {
			s.idle = make(chan struct{})
		}
		idle = s.idle
	}
	s.mu.Unlock()
	if idle != nil {
		deadline := s.DrainDeadline
		if deadline <= 0 {
			deadline = drainTimeout
		}
		select {
		case <-idle:
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(deadline):
			n := s.svc.AbortInFlight(&admission.ShedError{Reason: admission.ReasonDrain})
			log.Printf("fleet: drain deadline after %v: aborted %d in-flight searches", deadline, n)
			// The aborted handlers just need to deliver their 503s and
			// return; give them a short grace — the engine itself is
			// already quiescent.
			select {
			case <-idle:
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(drainAbortGrace):
			}
		}
	}
	return nil
}

// Close stops admissions and shuts the wrapped service down, logging — not
// swallowing — its state-teardown error.
func (s *ShardServer) Close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	if err := s.svc.Close(); err != nil {
		log.Printf("fleet: shard close: %v", err)
	}
}

func writeRPCJSON(rw http.ResponseWriter, v any) {
	rw.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(rw).Encode(v); err != nil {
		log.Printf("fleet: encode response: %v", err)
	}
}

func writeRPCError(rw http.ResponseWriter, code int, msg string, retryable bool) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	json.NewEncoder(rw).Encode(wireError{Error: msg, Retryable: retryable}) //nolint:errcheck
}

// WriteShedError maps a load shed to its wire form: 503 with the reason, the
// shed's own retryable claim, and the Retry-After hint both in the envelope
// (milliseconds) and as the standard header (whole seconds, rounded up, for
// generic HTTP clients).
func WriteShedError(rw http.ResponseWriter, shed *admission.ShedError) {
	rw.Header().Set("Content-Type", "application/json")
	if shed.RetryAfter > 0 {
		secs := (shed.RetryAfter + time.Second - 1) / time.Second
		rw.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	rw.WriteHeader(http.StatusServiceUnavailable)
	json.NewEncoder(rw).Encode(wireError{ //nolint:errcheck
		Error:        shed.Error(),
		Retryable:    shed.Retryable(),
		Reason:       shed.Reason,
		RetryAfterMS: shed.RetryAfter.Milliseconds(),
	})
}
