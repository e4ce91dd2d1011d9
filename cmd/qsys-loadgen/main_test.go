package main

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/service"
)

func parseTest(t *testing.T, args ...string) *options {
	t.Helper()
	fs := flag.NewFlagSet("qsys-loadgen", flag.ContinueOnError)
	fs.SetOutput(new(strings.Builder))
	o, err := parseOptions(fs, args)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestInProcessConfigIsTheBoundConfig: the fleet both loops build in
// process is the bound configuration at the run's admission window, the
// admission and spill settings included.
func TestInProcessConfigIsTheBoundConfig(t *testing.T) {
	dir := t.TempDir()
	o := parseTest(t, "-k", "4", "-seed", "9", "-batch", "3", "-shards", "2", "-router", "hash",
		"-memory-budget", "7", "-evict-policy", "benefit", "-spill-dir", dir,
		"-max-pending", "3", "-deadline", "2s", "-max-inflight", "1", "-adaptive-window",
		"-user-rate", "4", "-total-rate", "9", "-windows", "10ms,0")
	for _, run := range []struct {
		window time.Duration
		spill  string // separate windows spill to separate dirs
	}{{10 * time.Millisecond, "w10000"}, {0, "w0"}} {
		window := run.window
		want := service.Config{
			K: 4, Seed: 9, BatchSize: 3, BatchWindow: window, Shards: 2, Router: service.RouterHash,
			MemoryBudget: 7, EvictPolicy: "benefit", SpillDir: filepath.Join(dir, run.spill),
			Admission: admission.Config{
				MaxPending: 3, Deadline: 2 * time.Second, MaxInFlight: 1, AdaptiveWindow: true,
				UserRate: 4, TotalRate: 9, WindowMax: window,
			},
		}
		if got := o.config(window); !reflect.DeepEqual(got, want) {
			t.Errorf("window %v: in-process config\n%+v\nwant\n%+v", window, got, want)
		}
	}
	if o.windows[0] != 10*time.Millisecond {
		t.Errorf("open loop would run window %v, want the first of -windows", o.windows[0])
	}
}

// TestClosedLoopOverHTTPHonoursDeadline: -deadline bounds each request of
// the HTTP closed loop, and an expired request is recorded as a deadline
// shed after one attempt.
func TestClosedLoopOverHTTPHonoursDeadline(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		hits.Add(1)
		// Consume the body so the server watches the connection and sees
		// the client give up.
		io.Copy(io.Discard, req.Body) //nolint:errcheck
		select {
		case <-req.Context().Done():
		case <-time.After(5 * time.Second):
		}
	}))
	defer srv.Close()

	o := parseTest(t, "-target", srv.URL, "-users", "1", "-requests", "2", "-deadline", "20ms", "-workload", "bio")
	rep := closedLoop(o, [][]string{{"protein", "metabolism"}}, httpSearcher(o.target, o.Config.K, o.Config.Admission.Deadline))
	if got := rep.shed[admission.ReasonDeadline]; got != 2 || rep.failed() != 2 {
		t.Errorf("deadline sheds = %d, failed = %d; want 2 and 2", got, rep.failed())
	}
	if hits.Load() != 2 || rep.retries != 0 {
		t.Errorf("server saw %d requests with %d retries; want 2 and 0", hits.Load(), rep.retries)
	}
}

// TestHTTPShedDecoded: a 503 comes back as the shed its body describes, and
// the closed loop resubmits it.
func TestHTTPShedDecoded(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if hits.Add(1) == 1 {
			rw.WriteHeader(http.StatusServiceUnavailable)
			rw.Write([]byte(`{"error":"admission: shed (queue-full)","retryable":true,"reason":"queue-full","retry_after_ms":70}`)) //nolint:errcheck
			return
		}
		rw.Write([]byte(`{"id":"UQ1"}`)) //nolint:errcheck
	}))
	defer srv.Close()

	search := httpSearcher(srv.URL, 5, 0)
	_, err := search(t.Context(), "u", []string{"protein"})
	shed, ok := err.(*admission.ShedError)
	if !ok || shed.Reason != admission.ReasonQueueFull || shed.RetryAfter != 70*time.Millisecond {
		t.Fatalf("503 decoded as %#v", err)
	}
	hits.Store(0)
	o := parseTest(t, "-target", srv.URL, "-users", "1", "-requests", "1", "-workload", "bio")
	rep := closedLoop(o, [][]string{{"protein"}}, search)
	if len(rep.lats) != 1 || rep.retries != 1 || rep.failed() != 0 {
		t.Errorf("served %d with %d retries and %d failures; want 1, 1, 0", len(rep.lats), rep.retries, rep.failed())
	}
}
