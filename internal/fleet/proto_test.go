package fleet_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/workload"
)

func TestWireUQRoundTrip(t *testing.T) {
	w, err := workload.Bio()
	if err != nil {
		t.Fatal(err)
	}
	exp := service.NewExpander(w, service.Config{Seed: 3, K: 10})
	uq, err := exp.Expand("alice", []string{"metabolism", "protein"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(uq.CQs) == 0 {
		t.Fatal("expansion produced no candidate networks")
	}

	// Encode → frame → decode must reproduce the query exactly: same ids,
	// atoms, constants and scoring coefficients.
	wire, err := fleet.DecodeSearchRequest(fleet.AppendSearchRequest(nil, fleet.EncodeUQ(uq)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := fleet.DecodeUQ(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != uq.ID || got.K != uq.K || !reflect.DeepEqual(got.Keywords, uq.Keywords) {
		t.Fatalf("header mismatch: got %v/%d/%v want %v/%d/%v",
			got.ID, got.K, got.Keywords, uq.ID, uq.K, uq.Keywords)
	}
	if len(got.CQs) != len(uq.CQs) {
		t.Fatalf("CQ count %d != %d", len(got.CQs), len(uq.CQs))
	}
	for i, q := range uq.CQs {
		g := got.CQs[i]
		if g.ID != q.ID || g.UQID != q.UQID {
			t.Fatalf("CQ %d id mismatch", i)
		}
		qe, _ := q.SubExpr(allAtomIdx(len(q.Atoms)))
		ge, _ := g.SubExpr(allAtomIdx(len(g.Atoms)))
		if qe.Key() != ge.Key() {
			t.Fatalf("CQ %d canonical key changed across the wire:\n  %s\n  %s",
				i, qe.Key(), ge.Key())
		}
		for j, a := range q.Atoms {
			for k, arg := range a.Args {
				if ga := g.Atoms[j].Args[k]; ga.Var != arg.Var || ga.Const != arg.Const {
					t.Fatalf("CQ %d atom %d term %d changed across the wire: %+v != %+v", i, j, k, ga, arg)
				}
			}
		}
		if g.Model.AggKind != q.Model.AggKind || g.Model.Static != q.Model.Static ||
			!reflect.DeepEqual(g.Model.Weights, q.Model.Weights) {
			t.Fatalf("CQ %d scoring model changed across the wire", i)
		}
	}
}

func allAtomIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func TestDecodeRejectsBrokenQuery(t *testing.T) {
	w, err := workload.Bio()
	if err != nil {
		t.Fatal(err)
	}
	exp := service.NewExpander(w, service.Config{Seed: 3, K: 10})
	uq, err := exp.Expand("alice", []string{"metabolism", "protein"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	wire := fleet.EncodeUQ(uq)
	// Break the model arity: the frame carries it, and decode must reject it
	// rather than admit a malformed query.
	wire.CQs[0].Model.Weights = wire.CQs[0].Model.Weights[:len(wire.CQs[0].Model.Weights)-1]
	back, err := fleet.DecodeSearchRequest(fleet.AppendSearchRequest(nil, wire))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.DecodeUQ(back); err == nil {
		t.Fatal("decode accepted a CQ with broken model arity")
	}
}

// TestDigestViewMatchesResultBytes pins the parity-critical invariant: the
// digest of a wire view equals the digest of the in-process result it came
// from, byte for byte, in the format DigestView documents.
func TestDigestViewMatchesResultBytes(t *testing.T) {
	w, err := workload.Bio()
	if err != nil {
		t.Fatal(err)
	}
	cfg := service.Config{Seed: 3, K: 10}
	svc := service.New(w, cfg)
	defer svc.Close() //nolint:errcheck
	uq, err := service.NewExpander(w, cfg).Expand("alice", []string{"metabolism", "protein"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.SearchUQ(context.Background(), uq)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers to digest")
	}

	// Reference bytes straight from the result, not through a view.
	var want bytes.Buffer
	fmt.Fprintf(&want, "%s|%v|%d\n", res.ID, res.Keywords, len(res.Answers))
	for _, a := range res.Answers {
		fmt.Fprintf(&want, "%d|%.9g|%s|", a.Rank, a.Score, a.Query)
		for _, tp := range a.Tuples {
			io.WriteString(&want, tp.Schema().Name())
			io.WriteString(&want, ":")
			io.WriteString(&want, tp.Identity())
			io.WriteString(&want, "&")
		}
		io.WriteString(&want, "\n")
	}
	wantSum := sha256.Sum256(want.Bytes())

	// The view must digest identically — including after a frame round trip,
	// which is how the bytes actually arrive at a front-end.
	decoded, err := fleet.DecodeSearchResponse(fleet.AppendSearchResponse(nil, fleet.ViewOf(res)))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fleet.DigestView(h, decoded)
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != fmt.Sprintf("%x", wantSum) {
		t.Fatalf("view digest %s != result digest %s", got, fmt.Sprintf("%x", wantSum))
	}
}
