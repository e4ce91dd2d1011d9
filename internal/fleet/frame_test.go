package fleet_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// The seed corpora under testdata/fuzz are the request and response frames
// of one real bio search ("metabolism protein") and one real GUS search (the
// suite's first query), expanded and answered at seed 3, k = 10, and the
// response frame AppendResult wrote for the Pfam suite's first query at the
// same seed and k. The request files "bio" and "gus" are frames of the
// retired version 0x01, which carried the expanded plan: inputs the decoder
// must refuse.

// FuzzSearchRequestFrame: any byte string either fails to decode or decodes
// to a request that re-encodes to the same bytes.
func FuzzSearchRequestFrame(f *testing.F) {
	f.Add(fleet.AppendRequest(nil, specialRequest()))
	f.Add(fleet.AppendRequest(nil, &fleet.SearchRequest{}))
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := fleet.DecodeRequest(b)
		if err != nil {
			return
		}
		if got := fleet.AppendRequest(nil, r); !bytes.Equal(got, b) {
			t.Fatalf("accepted frame re-encodes differently:\n in %x\nout %x", b, got)
		}
	})
}

// FuzzSearchResponseFrame: any byte string, read as the front-end reads a
// response body (Client.Search's path), with its length declared and with
// it unknown, either fails to decode both ways or decodes to a view that
// re-encodes to the same bytes and digests without panicking.
func FuzzSearchResponseFrame(f *testing.F) {
	f.Add(fleet.AppendSearchResponse(nil, specialResponse()))
	f.Add(fleet.AppendSearchResponse(nil, &fleet.ResultView{}))
	f.Fuzz(func(t *testing.T, b []byte) {
		v, n, err := fleet.ReadSearchResponse(bytes.NewReader(b), int64(len(b)))
		_, _, errUnknown := fleet.ReadSearchResponse(bytes.NewReader(b), -1)
		if (err == nil) != (errUnknown == nil) {
			t.Fatalf("declared length: %v; unknown length: %v", err, errUnknown)
		}
		if err != nil {
			return
		}
		if n != len(b) {
			t.Fatalf("read %d of %d bytes", n, len(b))
		}
		if got := fleet.AppendSearchResponse(nil, v); !bytes.Equal(got, b) {
			t.Fatalf("accepted frame re-encodes differently:\n in %x\nout %x", b, got)
		}
		fleet.DigestView(sha256.New(), v)
		fleet.DigestAnswers(sha256.New(), v)
	})
}

// specials are the floats JSON mangles or refuses: negative zero, the
// infinities, a NaN with a payload, and subnormals.
var specials = []float64{
	math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7ff8_0000_dead_beef),
	math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64,
}

// specialRequest fills every field, the words with their extreme bit
// patterns.
func specialRequest() *fleet.SearchRequest {
	return &fleet.SearchRequest{
		ID: "UQ1", Keywords: []string{"protein", ""}, K: -10,
		DrawState: math.MaxUint64, Digest: 1 << 63,
	}
}

func specialResponse() *fleet.ResultView {
	v := &fleet.ResultView{ID: "UQ1", Keywords: []string{"protein"}, Shard: -1}
	for i, x := range specials {
		v.Answers = append(v.Answers, fleet.AnswerView{Rank: i + 1, Score: x, Query: "UQ1.CQ1", IDs: []string{"T:1"}})
	}
	return v
}

// TestSearchFrameCarriesFloatBits pins what JSON could not: scores of -0,
// ±Inf, NaN and a subnormal arrive bit for bit. A request carries no floats;
// the weights and constants a shard admits are the ones it re-instantiates
// from the request's draw state, and those match the front desk's bit for
// bit.
func TestSearchFrameCarriesFloatBits(t *testing.T) {
	for _, x := range specials[1:4] {
		if _, err := json.Marshal(x); err == nil {
			t.Fatalf("JSON encoded %v; the frame is no longer the only way to carry it", x)
		}
	}
	same := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: %#x arrived as %#x", what, math.Float64bits(want), math.Float64bits(got))
		}
	}
	front, shard := bioWorkload(t), bioWorkload(t)
	cfg := service.Config{Seed: 3, K: 10}
	svc := service.New(shard, cfg)
	defer svc.Close() //nolint:errcheck
	uq, err := service.NewExpander(front, cfg).Expand("bits", []string{"metabolism", "protein"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	r, err := fleet.DecodeRequest(fleet.AppendRequest(nil, fleet.RequestOf(uq)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := svc.Instantiate(r.ID, r.Keywords, r.K, r.DrawState)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.CQs) != len(uq.CQs) || got.Digest() != r.Digest {
		t.Fatalf("shard instantiated %d queries (digest %#x), the front desk %d (%#x)",
			len(got.CQs), got.Digest(), len(uq.CQs), r.Digest)
	}
	for i, q := range uq.CQs {
		g := got.CQs[i]
		same("static", g.Model.Static, q.Model.Static)
		for j, x := range q.Model.Weights {
			same("weight", g.Model.Weights[j], x)
		}
		for j, a := range q.Atoms {
			for k, arg := range a.Args {
				if arg.IsConst() && arg.Const.Kind() == tuple.KindFloat {
					same("constant", g.Atoms[j].Args[k].Const.AsFloat(), arg.Const.AsFloat())
				}
			}
		}
	}
	v, err := fleet.DecodeSearchResponse(fleet.AppendSearchResponse(nil, specialResponse()))
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range specials {
		same("score", v.Answers[i].Score, x)
	}
}

// TestSearchFrameRejectsDamage: every strict prefix of a frame, trailing
// bytes, a foreign version (the retired plan-carrying request among them)
// and a varint in a longer form than needed are refused, never decoded.
func TestSearchFrameRejectsDamage(t *testing.T) {
	req := fleet.AppendRequest(nil, specialRequest())
	resp := fleet.AppendSearchResponse(nil, specialResponse())
	for i := range req {
		if _, err := fleet.DecodeRequest(req[:i]); err == nil {
			t.Fatalf("request truncated to %d of %d bytes decoded", i, len(req))
		}
	}
	for i := range resp {
		if _, err := fleet.DecodeSearchResponse(resp[:i]); err == nil {
			t.Fatalf("response truncated to %d of %d bytes decoded", i, len(resp))
		}
	}
	if _, err := fleet.DecodeRequest(resp); err == nil {
		t.Fatal("a response frame decoded as a request")
	}
	if _, err := fleet.DecodeSearchResponse(req); err == nil {
		t.Fatal("a request frame decoded as a response")
	}
	if _, err := fleet.DecodeRequest([]byte(`{"id":"UQ1","keywords":["protein"],"k":10}`)); err == nil {
		t.Fatal("a JSON body decoded as a frame")
	}

	// A payload edited in place: the header's length is rewritten to match.
	edit := func(frame []byte, at int, cut int, insert ...byte) []byte {
		out := append(append(append([]byte{}, frame[:at]...), insert...), frame[at+cut:]...)
		binary.LittleEndian.PutUint32(out[1:5], uint32(len(out)-5))
		return out
	}
	idLen := 5 // the id's length byte: "UQ1" → 0x03
	cases := map[string][]byte{
		"trailing byte":       edit(req, len(req), 0, 0),
		"overlong varint":     edit(req, idLen, 1, 0x83, 0x00),
		"retired version":     append([]byte{0x01}, req[1:]...),
		"varint overflow":     edit(req, idLen, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f),
		"length past payload": edit(req, idLen, 1, 0xff, 0x7f),
		"short digest":        edit(req, len(req)-1, 1),
	}
	for name, b := range cases {
		if bytes.Equal(b, req) {
			t.Fatalf("%s: the edit changed nothing", name)
		}
		if _, err := fleet.DecodeRequest(b); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// TestFrameLengthPrefixesBoundAllocation: a length prefix claiming far more
// elements than the frame holds is refused before it allocates, so decoding
// a short hostile frame allocates little whatever it claims.
func TestFrameLengthPrefixesBoundAllocation(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	frame := func(version byte, fields ...[]byte) []byte {
		p := bytes.Join(fields, nil)
		return append(binary.LittleEndian.AppendUint32([]byte{version}, uint32(len(p))), p...)
	}
	str := []byte{3, 'U', 'Q', '1'}
	none := []byte{0}
	requests := [][]byte{
		frame(0x03, huge),                 // id length
		frame(0x03, str, huge),            // keyword count
		frame(0x03, str, []byte{1}, huge), // keyword length
	}
	responses := [][]byte{
		frame(0x02, str, huge),       // keyword count
		frame(0x02, str, none, huge), // answer count
	}
	limit := func(b []byte) uint64 { return 64*uint64(len(b)) + 4096 }
	var ms runtime.MemStats
	for i, b := range append(requests, responses...) {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		var err error
		if i < len(requests) {
			_, err = fleet.DecodeRequest(b)
		} else {
			_, err = fleet.DecodeSearchResponse(b)
		}
		runtime.ReadMemStats(&ms)
		if err == nil {
			t.Errorf("frame %d (%x) claiming 2^40 elements decoded", i, b)
		}
		if got := ms.TotalAlloc - before; got > limit(b) {
			t.Errorf("frame %d of %d bytes allocated %d bytes decoding", i, len(b), got)
		}
	}
}

// TestAppendResultMatchesView runs every bio, GUS and Pfam suite search on a
// real engine, and takes a result with no answers besides. The frame the
// shard appends from each result is byte for byte the frame of its view, and
// the front-end's read of it digests like that view.
func TestAppendResultMatchesView(t *testing.T) {
	digest := func(v *fleet.ResultView) string {
		h := sha256.New()
		fleet.DigestView(h, v)
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	for _, name := range []string{"bio", "gus", "pfam"} {
		t.Run(name, func(t *testing.T) {
			w, err := workload.ByName(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := service.Config{Seed: 3, K: 10}
			svc := service.New(w, cfg)
			defer svc.Close() //nolint:errcheck
			exp := service.NewExpander(w, cfg)
			results := []*service.Result{{ID: "UQ0", Keywords: []string{"nothing"}, CandidateNetworks: 2, Shard: -1}}
			for i, sub := range w.Submissions {
				uq, err := exp.Expand(fmt.Sprintf("user%d", i%3), sub.UQ.Keywords, 0)
				if err != nil {
					t.Fatal(err)
				}
				res, err := svc.SearchUQ(context.Background(), uq)
				if err != nil {
					t.Fatalf("%v: %v", sub.UQ.Keywords, err)
				}
				results = append(results, res)
			}
			answers := 0
			for _, res := range results {
				answers += len(res.Answers)
				want := fleet.ViewOf(res)
				frame := fleet.AppendResult(nil, res)
				if viewFrame := fleet.AppendSearchResponse(nil, want); !bytes.Equal(frame, viewFrame) {
					t.Fatalf("%s %v: AppendResult wrote\n%x\nthe view's frame is\n%x", res.ID, res.Keywords, frame, viewFrame)
				}
				got, n, err := fleet.ReadSearchResponse(bytes.NewReader(frame), int64(len(frame)))
				if err != nil || n != len(frame) {
					t.Fatalf("%s: read %d of %d bytes: %v", res.ID, n, len(frame), err)
				}
				if digest(got) != digest(want) {
					t.Fatalf("%s %v: the decoded view digests differently", res.ID, res.Keywords)
				}
			}
			if answers == 0 {
				t.Fatal("no suite search answered")
			}
		})
	}
}

// TestAppendResultAllocatesNothing: into a buffer with room for the frame,
// the shard's encoder allocates nothing; the ids are the tuples' cached
// qualified identities.
func TestAppendResultAllocatesNothing(t *testing.T) {
	res := frameResult(50)
	buf := fleet.AppendResult(nil, res)
	if got := testing.AllocsPerRun(100, func() { buf = fleet.AppendResult(buf[:0], res) }); got != 0 {
		t.Fatalf("AppendResult allocated %v times per frame", got)
	}
}

// TestSearchResponseReadAllocations: the front-end's read and decode of a
// response body allocates as many times whatever the answer count, and its
// bytes are the payload once plus the view's own slices. A second copy of
// the payload does not fit the bound.
func TestSearchResponseReadAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes the read buffer pool drop buffers")
	}
	size := func(v any) uint64 { return uint64(reflect.TypeOf(v).Size()) }
	// classed bounds an allocation rounded up to its size class or pages: at
	// most a quarter above what was asked for.
	classed := func(n uint64) uint64 { return n + n/4 + 16 }
	var rd bytes.Reader
	allocs := -1.0
	for _, answers := range []int{1, 8, 50, 400} {
		v := fleet.ViewOf(frameResult(answers))
		frame := fleet.AppendSearchResponse(nil, v)
		read := func() {
			rd.Reset(frame)
			if _, _, err := fleet.ReadSearchResponse(&rd, int64(len(frame))); err != nil {
				t.Fatal(err)
			}
		}
		got := testing.AllocsPerRun(100, read)
		if allocs >= 0 && got != allocs {
			t.Fatalf("%d answers: %v allocations, %v at fewer answers", answers, got, allocs)
		}
		allocs = got

		ids := 0
		for _, a := range v.Answers {
			ids += len(a.IDs)
		}
		limit := classed(uint64(len(frame))) + classed(size(fleet.ResultView{})) +
			classed(uint64(len(v.Keywords))*size("")) +
			classed(uint64(answers)*size(fleet.AnswerView{})) + classed(uint64(ids)*size(""))
		heap := allocatedBytes(100, read)
		t.Logf("%d answers: a %d-byte frame reads in %v allocations, %d bytes (bound %d)", answers, len(frame), allocs, heap, limit)
		if heap > limit {
			t.Errorf("%d answers: %d bytes to read a %d-byte frame, over %d", answers, heap, len(frame), limit)
		}
	}
}

// allocatedBytes is the heap bytes one call of f allocates, averaged over
// runs calls after a warm-up, on one processor as testing.AllocsPerRun does.
func allocatedBytes(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// BenchmarkSearchFrame is one hop's codec work as the fleet does it: the
// front-end appends the request of a two-keyword search and the shard reads
// it; the shard appends a 50-answer response straight from its result into a
// reused buffer and the front-end reads and decodes it.
func BenchmarkSearchFrame(b *testing.B) {
	req := &fleet.SearchRequest{
		ID: "UQ17", Keywords: []string{"plasma membrane", "protein"}, K: 50,
		DrawState: 0x9e3779b97f4a7c15, Digest: 0xc2b2ae3d27d4eb4f,
	}
	res := frameResult(50)
	var buf []byte
	var rd bytes.Reader
	b.ReportAllocs()
	for b.Loop() {
		frame := fleet.AppendRequest(nil, req)
		rd.Reset(frame)
		if _, err := fleet.ReadRequest(&rd, int64(len(frame))); err != nil {
			b.Fatal(err)
		}
		buf = fleet.AppendResult(buf[:0], res)
		rd.Reset(buf)
		if _, _, err := fleet.ReadSearchResponse(&rd, int64(len(buf))); err != nil {
			b.Fatal(err)
		}
	}
}

// frameResult is a result of n answers shaped like a bio search's: three
// keyed tuples each.
func frameResult(n int) *service.Result {
	key := func(name string, kind tuple.Kind) *tuple.Schema {
		return tuple.NewSchema(name, tuple.Column{Name: "id", Type: kind, Key: true})
	}
	term, link, entry := key("Term", tuple.KindString), key("Interpro2GO", tuple.KindInt), key("Entry", tuple.KindString)
	res := &service.Result{
		ID: "UQ17", Keywords: []string{"plasma membrane", "protein"},
		CandidateNetworks: 4, ExecutedNetworks: 4, BatchSize: 1,
		EngineLatency: time.Millisecond, WallLatency: 2 * time.Millisecond,
	}
	for i := 0; i < n; i++ {
		res.Answers = append(res.Answers, service.Answer{
			Rank: i + 1, Score: 1 / float64(i+2), Query: "UQ17.CQ2",
			Tuples: []*tuple.Tuple{
				tuple.New(term, tuple.String(fmt.Sprintf("GO:%07d", i))),
				tuple.New(link, tuple.Int(int64(1000+i))),
				tuple.New(entry, tuple.String(fmt.Sprintf("IPR%06d", i))),
			},
		})
	}
	return res
}

func bioWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	w, err := workload.Bio()
	if err != nil {
		t.Fatal(err)
	}
	return w
}
