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
)

// The seed corpora under testdata/fuzz are the request and response frames
// of one real bio search ("metabolism protein") and one real GUS search (the
// suite's first query), expanded and answered at seed 3, k = 10.

// FuzzSearchRequestFrame: any byte string either fails to decode or decodes
// to a query that re-encodes to the same bytes, and an accepted query still
// passes through DecodeUQ's validation, which may refuse it but never panic.
func FuzzSearchRequestFrame(f *testing.F) {
	f.Add(fleet.AppendSearchRequest(nil, specialRequest()))
	f.Add(fleet.AppendSearchRequest(nil, &fleet.WireUQ{}))
	f.Fuzz(func(t *testing.T, b []byte) {
		w, err := fleet.DecodeSearchRequest(b)
		if err != nil {
			return
		}
		if got := fleet.AppendSearchRequest(nil, w); !bytes.Equal(got, b) {
			t.Fatalf("accepted frame re-encodes differently:\n in %x\nout %x", b, got)
		}
		uq, err := fleet.DecodeUQ(w)
		if err != nil {
			return
		}
		for _, q := range uq.CQs {
			if err := q.Validate(); err != nil {
				t.Fatalf("DecodeUQ accepted an invalid query: %v", err)
			}
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

func specialRequest() *fleet.WireUQ {
	w := &fleet.WireUQ{ID: "UQ1", Keywords: []string{"protein"}, K: 10}
	for i, x := range specials {
		w.CQs = append(w.CQs, fleet.WireCQ{
			ID:   fmt.Sprintf("UQ1.CQ%d", i),
			UQID: "UQ1",
			Atoms: []fleet.WireAtom{{Rel: "T", DB: "go", Args: []fleet.WireTerm{
				{Var: 0}, {Var: -1, Const: &fleet.WireValue{Kind: "float", Float: x}},
			}}},
			Model:    fleet.WireModel{Agg: 1, Static: x, Weights: []float64{x}, Label: "sum"},
			HeadVars: []int{0},
		})
	}
	return w
}

func specialResponse() *fleet.ResultView {
	v := &fleet.ResultView{ID: "UQ1", Keywords: []string{"protein"}, Shard: -1}
	for i, x := range specials {
		v.Answers = append(v.Answers, fleet.AnswerView{Rank: i + 1, Score: x, Query: "UQ1.CQ1", IDs: []string{"T:1"}})
	}
	return v
}

// TestSearchFrameCarriesFloatBits pins what JSON could not: weights,
// constants and scores of -0, ±Inf, NaN and a subnormal arrive bit for bit.
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
	w, err := fleet.DecodeSearchRequest(fleet.AppendSearchRequest(nil, specialRequest()))
	if err != nil {
		t.Fatal(err)
	}
	uq, err := fleet.DecodeUQ(w)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range specials {
		q := uq.CQs[i]
		same("static", q.Model.Static, x)
		same("weight", q.Model.Weights[0], x)
		same("constant", q.Atoms[0].Args[1].Const.AsFloat(), x)
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
// bytes, a foreign version, a varint in a longer form than needed and an
// unknown value kind are refused, never decoded.
func TestSearchFrameRejectsDamage(t *testing.T) {
	req := fleet.AppendSearchRequest(nil, specialRequest())
	resp := fleet.AppendSearchResponse(nil, specialResponse())
	for i := range req {
		if _, err := fleet.DecodeSearchRequest(req[:i]); err == nil {
			t.Fatalf("request truncated to %d of %d bytes decoded", i, len(req))
		}
	}
	for i := range resp {
		if _, err := fleet.DecodeSearchResponse(resp[:i]); err == nil {
			t.Fatalf("response truncated to %d of %d bytes decoded", i, len(resp))
		}
	}
	if _, err := fleet.DecodeSearchRequest(resp); err == nil {
		t.Fatal("a response frame decoded as a request")
	}
	if _, err := fleet.DecodeSearchResponse(req); err == nil {
		t.Fatal("a request frame decoded as a response")
	}
	if _, err := fleet.DecodeSearchRequest([]byte(`{"id":"UQ1","keywords":["protein"],"k":10}`)); err == nil {
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
		"unknown value kind":  bytes.Replace(req, []byte{0x00, 0x01, 0x03}, []byte{0x00, 0x01, 0x09}, 1),
		"varint overflow":     edit(req, idLen, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f),
		"length past payload": edit(req, idLen, 1, 0xff, 0x7f),
	}
	for name, b := range cases {
		if bytes.Equal(b, req) {
			t.Fatalf("%s: the edit changed nothing", name)
		}
		if _, err := fleet.DecodeSearchRequest(b); err == nil {
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
		frame(0x01, huge),                                       // id length
		frame(0x01, str, huge),                                  // keyword count
		frame(0x01, str, none, none, huge),                      // CQ count
		frame(0x01, str, none, none, []byte{1}, str, str, huge), // atom count
		frame(0x01, str, none, none, []byte{1}, str, str, []byte{1}, str, str, huge), // term count
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
			_, err = fleet.DecodeSearchRequest(b)
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

// BenchmarkSearchFrame is one hop's codec work: encode and decode a 4-CQ
// request and a 50-answer response.
func BenchmarkSearchFrame(b *testing.B) {
	req := &fleet.WireUQ{ID: "UQ17", Keywords: []string{"plasma membrane", "protein"}, K: 50}
	for i := 0; i < 4; i++ {
		q := fleet.WireCQ{ID: fmt.Sprintf("UQ17.CQ%d", i+1), UQID: "UQ17", HeadVars: []int{0, 4}}
		for j := 0; j < 3; j++ {
			q.Atoms = append(q.Atoms, fleet.WireAtom{Rel: "Interpro2GO", DB: "interpro", Args: []fleet.WireTerm{
				{Var: 2 * j}, {Var: 2*j + 1}, {Var: -1, Const: &fleet.WireValue{Kind: "string", Str: "plasma membrane"}},
			}})
			q.Model.Weights = append(q.Model.Weights, 0.25+float64(j)/7)
		}
		q.Model.Static, q.Model.Label = 0.5, "sum"
		req.CQs = append(req.CQs, q)
	}
	resp := &fleet.ResultView{ID: "UQ17", Keywords: req.Keywords, CandidateNetworks: 4, ExecutedNetworks: 4, BatchSize: 1, EngineLatencyNS: 1e6, WallLatencyNS: 2e6}
	for i := 0; i < 50; i++ {
		resp.Answers = append(resp.Answers, fleet.AnswerView{
			Rank: i + 1, Score: 1 / float64(i+2), Query: "UQ17.CQ2",
			IDs: []string{fmt.Sprintf("Term:GO:%07d", i), fmt.Sprintf("Interpro2GO:%d", 1000+i), fmt.Sprintf("Entry:IPR%06d", i)},
		})
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := fleet.DecodeSearchRequest(fleet.AppendSearchRequest(nil, req)); err != nil {
			b.Fatal(err)
		}
		if _, err := fleet.DecodeSearchResponse(fleet.AppendSearchResponse(nil, resp)); err != nil {
			b.Fatal(err)
		}
	}
}
