package service_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/workload"
)

// TestUserRateShed: with a per-user admission rate of ~1 query/sec and burst
// 1, a user's second immediate search is shed with a retryable user-rate
// ShedError and a Retry-After hint, and the shed counters record it.
func TestUserRateShed(t *testing.T) {
	s := newBioService(t, service.Config{
		K:         5,
		Admission: admission.Config{UserRate: 1},
	})
	defer s.Close()

	if _, err := s.Search(context.Background(), "alice", bioKeywords[0], 5); err != nil {
		t.Fatalf("first search: %v", err)
	}
	_, err := s.Search(context.Background(), "alice", bioKeywords[1], 5)
	var shed *admission.ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("second search: got %v, want ShedError", err)
	}
	if shed.Reason != admission.ReasonUserRate {
		t.Errorf("reason = %q, want %q", shed.Reason, admission.ReasonUserRate)
	}
	if !shed.Retryable() {
		t.Error("pre-admission rate shed must be retryable")
	}
	if shed.RetryAfter <= 0 {
		t.Error("rate shed carries no Retry-After hint")
	}
	// A different user still has a full bucket.
	if _, err := s.Search(context.Background(), "bob", bioKeywords[0], 5); err != nil {
		t.Fatalf("other user: %v", err)
	}
	st := s.Stats(context.Background()).Service
	if st.Shed != 1 || st.ShedUserRate != 1 {
		t.Errorf("shed counters = %d/%d, want 1/1", st.Shed, st.ShedUserRate)
	}
}

// TestQueueFullShed: with MaxPending 1 and a long admission window, a second
// arrival finds the engine's queue full and is shed immediately instead of
// blocking its caller.
func TestQueueFullShed(t *testing.T) {
	s := newBioService(t, service.Config{
		K:           5,
		BatchSize:   8,
		BatchWindow: 300 * time.Millisecond,
		Admission:   admission.Config{MaxPending: 1},
	})
	defer s.Close()

	first := make(chan error, 1)
	go func() {
		_, err := s.Search(context.Background(), "alice", bioKeywords[0], 5)
		first <- err
	}()
	// Wait until the first search occupies the queue.
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats(context.Background()).Service.Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first search never queued")
		}
		time.Sleep(time.Millisecond)
	}

	_, err := s.Search(context.Background(), "bob", bioKeywords[1], 5)
	var shed *admission.ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("second search: got %v, want ShedError", err)
	}
	if shed.Reason != admission.ReasonQueueFull {
		t.Errorf("reason = %q, want %q", shed.Reason, admission.ReasonQueueFull)
	}
	if !shed.Retryable() {
		t.Error("queue-full shed must be retryable")
	}
	if shed.RetryAfter != admission.RetryAfter {
		t.Errorf("RetryAfter = %v, want %v", shed.RetryAfter, admission.RetryAfter)
	}
	if err := <-first; err != nil {
		t.Fatalf("first search: %v", err)
	}
	st := s.Stats(context.Background()).Service
	if st.ShedQueueFull != 1 {
		t.Errorf("ShedQueueFull = %d, want 1", st.ShedQueueFull)
	}
}

// TestDeadlineShed: a request whose latency budget expires while it is still
// collecting in the admission window is shed with a non-retryable deadline
// ShedError and counted as DeadlineCanceled, not as a pre-admission shed.
func TestDeadlineShed(t *testing.T) {
	s := newBioService(t, service.Config{
		K:           5,
		BatchSize:   8,
		BatchWindow: 150 * time.Millisecond,
		Admission:   admission.Config{Deadline: 10 * time.Millisecond},
	})
	defer s.Close()

	_, err := s.Search(context.Background(), "alice", bioKeywords[0], 5)
	var shed *admission.ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("got %v, want ShedError", err)
	}
	if shed.Reason != admission.ReasonDeadline {
		t.Errorf("reason = %q, want %q", shed.Reason, admission.ReasonDeadline)
	}
	if shed.Retryable() {
		t.Error("deadline shed must not be retryable")
	}
	st := s.Stats(context.Background()).Service
	if st.DeadlineCanceled != 1 {
		t.Errorf("DeadlineCanceled = %d, want 1", st.DeadlineCanceled)
	}
	if st.Shed != 0 {
		t.Errorf("Shed = %d, want 0 (deadline sheds are post-admission)", st.Shed)
	}
}

// TestAbortInFlight: a drain abort settles a queued search with the given
// reason and reports how many requests it cut loose; the service keeps
// serving afterwards.
func TestAbortInFlight(t *testing.T) {
	w, err := workload.Bio()
	if err != nil {
		t.Fatal(err)
	}
	s, engines := localEngines(t, w, service.Config{
		K:           5,
		BatchSize:   8,
		BatchWindow: time.Second,
	})
	defer s.Close()

	got := make(chan error, 1)
	go func() {
		_, err := s.Search(context.Background(), "alice", bioKeywords[0], 5)
		got <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats(context.Background()).Service.Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("search never queued")
		}
		time.Sleep(time.Millisecond)
	}

	n := engines[0].AbortInFlight(&admission.ShedError{Reason: admission.ReasonDrain})
	if n != 1 {
		t.Errorf("aborted %d requests, want 1", n)
	}
	err = <-got
	var shed *admission.ShedError
	if !errors.As(err, &shed) || shed.Reason != admission.ReasonDrain {
		t.Fatalf("got %v, want drain ShedError", err)
	}
	if shed.Retryable() {
		t.Error("drain shed must not be retryable")
	}
	// The engine survives the abort and serves new work.
	if _, err := s.Search(context.Background(), "bob", bioKeywords[1], 5); err != nil {
		t.Fatalf("search after abort: %v", err)
	}
}

// TestOverloadNeverServesWrongAnswer is the degradation contract: overload
// may cost answers (sheds), never wrong ones. A sequential control run over
// the GUS suite fixes each arrival's answers; then the same arrivals are
// fired all at once at a service that admits one merge at a time behind a
// queue of eight. It must shed some, serve some, and every answer it serves
// must equal its control.
func TestOverloadNeverServesWrongAnswer(t *testing.T) {
	if testing.Short() {
		t.Skip("two runs of the GUS suite x 3")
	}
	const k = 50
	// A fresh workload per run: the loaded run inherits none of the
	// control's materialised source views.
	start := func(adm admission.Config) (*fleet.Frontend, [][]string) {
		w, err := workload.GUS(1, workload.GUSScaleDefault())
		if err != nil {
			t.Fatal(err)
		}
		var pool [][]string
		for _, sub := range w.Submissions {
			pool = append(pool, sub.UQ.Keywords)
		}
		return newLocal(t, w, service.Config{
			Seed: 1, K: k, Shards: 1, BatchWindow: 0, Admission: adm,
		}), pool
	}
	// One user per arrival: the expander seeds a user's coefficient RNG from
	// the name alone, so arrival i draws the same coefficients whether the
	// run is sequential or racing — which is what makes the per-arrival
	// comparison exact. Answers only (UQ numbering stripped): a loaded run
	// that shed some arrivals numbers the rest differently.
	search := func(svc *fleet.Frontend, pool [][]string, i int) (string, error) {
		res, err := svc.Search(context.Background(), fmt.Sprintf("arrival-%d", i), pool[i%len(pool)], k)
		if err != nil {
			return "", err
		}
		h := sha256.New()
		fleet.DigestAnswers(h, res)
		return hex.EncodeToString(h.Sum(nil)), nil
	}

	svc, pool := start(admission.Config{})
	control := make([]string, 3*len(pool))
	for i := range control {
		var err error
		if control[i], err = search(svc, pool, i); err != nil {
			t.Fatalf("control arrival %d: %v", i, err)
		}
	}
	svc.Close() //nolint:errcheck

	svc, pool = start(admission.Config{MaxPending: 8, MaxInFlight: 1, Deadline: 5 * time.Second})
	defer svc.Close() //nolint:errcheck
	got := make([]string, len(control))
	errs := make([]error, len(control))
	var wg sync.WaitGroup
	for i := range control {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = search(svc, pool, i)
		}(i)
	}
	wg.Wait()

	served, shed := 0, 0
	for i, err := range errs {
		var se *admission.ShedError
		switch {
		case err == nil:
			served++
			if got[i] != control[i] {
				t.Errorf("arrival %d served under overload differs from its unloaded control", i)
			}
		case errors.As(err, &se):
			shed++
		default:
			t.Errorf("arrival %d: %v", i, err)
		}
	}
	if served == 0 {
		t.Error("overloaded service served nothing (collapse)")
	}
	if shed == 0 {
		t.Error("overloaded service shed nothing (admission control inert)")
	}
	t.Logf("%d arrivals: served %d, shed %d", len(control), served, shed)
}
