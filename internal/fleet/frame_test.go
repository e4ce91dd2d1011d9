package fleet_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// The seed corpora under testdata/fuzz are the request and response frames
// of one real bio search ("metabolism protein") and one real GUS search (the
// suite's first query), expanded and answered at seed 3, k = 10. The
// request files "bio" and "gus" are frames of the retired version 0x01,
// which carried the expanded plan: inputs the decoder must refuse.

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

// FuzzSearchResponseFrame: any byte string either fails to decode or decodes
// to a view that re-encodes to the same bytes and digests without panicking.
func FuzzSearchResponseFrame(f *testing.F) {
	f.Add(fleet.AppendSearchResponse(nil, specialResponse()))
	f.Add(fleet.AppendSearchResponse(nil, &fleet.ResultView{}))
	f.Fuzz(func(t *testing.T, b []byte) {
		v, err := fleet.DecodeSearchResponse(b)
		if err != nil {
			return
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

// BenchmarkSearchFrame is one hop's codec work: encode and decode the
// request of a two-keyword search and a 50-answer response, the response
// into a reused buffer as the shard does.
func BenchmarkSearchFrame(b *testing.B) {
	req := &fleet.SearchRequest{
		ID: "UQ17", Keywords: []string{"plasma membrane", "protein"}, K: 50,
		DrawState: 0x9e3779b97f4a7c15, Digest: 0xc2b2ae3d27d4eb4f,
	}
	resp := &fleet.ResultView{ID: "UQ17", Keywords: req.Keywords, CandidateNetworks: 4, ExecutedNetworks: 4, BatchSize: 1, EngineLatencyNS: 1e6, WallLatencyNS: 2e6}
	for i := 0; i < 50; i++ {
		resp.Answers = append(resp.Answers, fleet.AnswerView{
			Rank: i + 1, Score: 1 / float64(i+2), Query: "UQ17.CQ2",
			IDs: []string{fmt.Sprintf("Term:GO:%07d", i), fmt.Sprintf("Interpro2GO:%d", 1000+i), fmt.Sprintf("Entry:IPR%06d", i)},
		})
	}
	var buf []byte
	b.ReportAllocs()
	for b.Loop() {
		if _, err := fleet.DecodeRequest(fleet.AppendRequest(nil, req)); err != nil {
			b.Fatal(err)
		}
		buf = fleet.AppendSearchResponse(buf[:0], resp)
		if _, err := fleet.DecodeSearchResponse(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func bioWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	w, err := workload.Bio()
	if err != nil {
		t.Fatal(err)
	}
	return w
}
