package fleet_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/workload"
)

// bioUQ expands one bio search the way a front desk would.
func bioUQ(t *testing.T, seed uint64) *cq.UQ {
	t.Helper()
	w, err := workload.Bio()
	if err != nil {
		t.Fatal(err)
	}
	uq, err := service.NewExpander(w, service.Config{Seed: seed, K: 10}).Expand("wire", []string{"metabolism", "protein"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	return uq
}

// rawPost sends one hand-written request to addr and reads the response, so
// a test controls the bytes and headers a client library would fix. body
// runs concurrently with the read: the shard may answer before it is done.
func rawPost(t *testing.T, addr, head string, body func(io.Writer)) *http.Response {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	if _, err := io.WriteString(conn, head); err != nil {
		t.Fatal(err)
	}
	go body(conn)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestSearchRPCRefusesForeignBodies: a JSON body, a frame of an unknown
// version and a body over the frame bound come back as non-retryable 4xx
// envelopes, and none reaches admission.
func TestSearchRPCRefusesForeignBodies(t *testing.T) {
	srv, _ := newShardHTTP(t, 0, 5)
	addr := strings.TrimPrefix(srv.URL, "http://")
	requests := func() int64 {
		st, err := fleet.NewClient(srv.URL, fleet.ClientConfig{}).Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return st.Service.Requests
	}
	before := requests()

	uq := bioUQ(t, 5)
	jsonBody, err := json.Marshal(fleet.EncodeUQ(uq))
	if err != nil {
		t.Fatal(err)
	}
	foreign := fleet.AppendSearchRequest(nil, fleet.EncodeUQ(uq))
	foreign[0] = 0x7f
	sized := func(b []byte) (string, func(io.Writer)) {
		return fmt.Sprintf("Content-Length: %d\r\n", len(b)), func(w io.Writer) { w.Write(b) } //nolint:errcheck
	}
	cases := []struct {
		name   string
		status int
		header string
		body   func(io.Writer)
	}{
		{name: "json", status: http.StatusBadRequest},
		{name: "unknown version", status: http.StatusBadRequest},
		{
			name: "declared oversize", status: http.StatusRequestEntityTooLarge,
			header: fmt.Sprintf("Content-Length: %d\r\n", fleet.MaxFrameBytes+1),
			body:   func(io.Writer) {},
		},
		{
			name: "streamed oversize", status: http.StatusRequestEntityTooLarge,
			header: "Transfer-Encoding: chunked\r\n",
			body: func(w io.Writer) {
				chunk := make([]byte, 1<<20)
				for sent := 0; sent <= fleet.MaxFrameBytes; sent += len(chunk) {
					if _, err := fmt.Fprintf(w, "%x\r\n%s\r\n", len(chunk), chunk); err != nil {
						return
					}
				}
				io.WriteString(w, "0\r\n\r\n") //nolint:errcheck
			},
		},
	}
	cases[0].header, cases[0].body = sized(jsonBody)
	cases[1].header, cases[1].body = sized(foreign)
	for _, c := range cases {
		resp := rawPost(t, addr, "POST /rpc/search HTTP/1.1\r\nHost: shard\r\n"+c.header+"\r\n", c.body)
		var env struct {
			Error     string `json:"error"`
			Retryable bool   `json:"retryable"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("%s: status %d without a JSON envelope: %v", c.name, resp.StatusCode, err)
		}
		if resp.StatusCode != c.status || env.Retryable || env.Error == "" {
			t.Errorf("%s: status %d %+v; want %d, not retryable, with a reason", c.name, resp.StatusCode, env, c.status)
		}
	}
	if after := requests(); after != before {
		t.Fatalf("refused bodies were admitted: requests %d → %d", before, after)
	}
	// The control: one well-formed frame is admitted and counted.
	if _, err := fleet.NewClient(srv.URL, fleet.ClientConfig{}).Search(context.Background(), uq); err != nil {
		t.Fatal(err)
	}
	if after := requests(); after != before+1 {
		t.Fatalf("a valid search moved requests %d → %d", before, after)
	}
}

// TestClientTruncatedFrameNotRetried: a 200 whose frame is cut short fails
// the search after one call. The shard may have executed it, so it is never
// resubmitted.
func TestClientTruncatedFrameNotRetried(t *testing.T) {
	frame := fleet.AppendSearchResponse(nil, &fleet.ResultView{
		ID: "UQ1", Answers: []fleet.AnswerView{{Rank: 1, Score: 0.5, Query: "UQ1.CQ1", IDs: []string{"T:1"}}},
	})
	cut := frame[:len(frame)-3]
	for _, mode := range []string{"frame cut", "body cut"} {
		var hits atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			hits.Add(1)
			io.Copy(io.Discard, req.Body) //nolint:errcheck
			if mode == "frame cut" {
				rw.Write(cut) //nolint:errcheck
				return
			}
			// The header promises the whole frame; the connection ends early.
			conn, buf, err := rw.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(frame), cut)
			buf.Flush() //nolint:errcheck
			conn.Close()
		}))
		fm := &metrics.Fleet{}
		c := fleet.NewClient(srv.URL, fleet.ClientConfig{MaxRetries: 3, RetryBackoff: time.Millisecond, Metrics: fm})
		_, err := c.Search(context.Background(), bioUQ(t, 5))
		srv.Close()
		if err == nil {
			t.Fatalf("%s: a truncated frame decoded", mode)
		}
		if fm.RPCCalls.Value() != 1 || fm.RPCRetries.Value() != 0 || hits.Load() != 1 {
			t.Fatalf("%s: %d calls, %d retries, %d requests at the shard; want one call, no retry",
				mode, fm.RPCCalls.Value(), fm.RPCRetries.Value(), hits.Load())
		}
	}
}

// wireCounter wraps a shard's handler and sums the /rpc/search bodies it
// reads and, for 200s, writes.
type wireCounter struct {
	next      http.Handler
	req, resp atomic.Int64
}

type countingWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

func (c *wireCounter) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	if req.URL.Path != "/rpc/search" {
		c.next.ServeHTTP(rw, req)
		return
	}
	body, err := io.ReadAll(req.Body)
	if err != nil {
		panic(err)
	}
	c.req.Add(int64(len(body)))
	req.Body = io.NopCloser(bytes.NewReader(body))
	cw := &countingWriter{ResponseWriter: rw, status: http.StatusOK}
	c.next.ServeHTTP(cw, req)
	if cw.status == http.StatusOK {
		c.resp.Add(cw.n)
	}
}

// TestFrontendStatsCountsWireBytes: the front desk's /stats reports exactly
// the frame bytes its shards read and wrote for searches; an engine's own
// stats carry no fleet block.
func TestFrontendStatsCountsWireBytes(t *testing.T) {
	w, err := workload.Bio()
	if err != nil {
		t.Fatal(err)
	}
	var servers []*httptest.Server
	var counters []*wireCounter
	for slot := 0; slot < 2; slot++ {
		ss := fleet.NewShardServer(service.New(w, service.Config{Seed: 13, K: 10, Shards: 1, ShardIDOffset: slot}))
		wc := &wireCounter{next: ss.Handler()}
		srv := httptest.NewServer(wc)
		t.Cleanup(func() { srv.Close(); ss.Close() })
		servers, counters = append(servers, srv), append(counters, wc)
	}
	fr := newTestFrontend(t, 13, servers, fleet.FrontendConfig{Metrics: &metrics.Fleet{}})
	for _, kw := range fleetTopics {
		if _, err := fr.Search(context.Background(), "bytes", kw, 10); err != nil {
			t.Fatal(err)
		}
	}
	var req, resp int64
	for _, wc := range counters {
		req, resp = req+wc.req.Load(), resp+wc.resp.Load()
	}
	st := fr.Stats(context.Background())
	if st.Fleet == nil {
		t.Fatal("front desk stats carry no fleet block")
	}
	if req == 0 || resp == 0 || st.Fleet.SearchRequestBytes != req || st.Fleet.SearchResponseBytes != resp {
		t.Fatalf("stats report %d request / %d response bytes; the shards read %d and wrote %d",
			st.Fleet.SearchRequestBytes, st.Fleet.SearchResponseBytes, req, resp)
	}
	es, err := fleet.NewClient(servers[0].URL, fleet.ClientConfig{}).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if es.Fleet != nil {
		t.Fatalf("an engine's stats carry a fleet block: %+v", es.Fleet)
	}
}
