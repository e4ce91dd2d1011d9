package cq

import (
	"math"
	"testing"

	"repro/internal/scoring"
	"repro/internal/tuple"
)

// TestDigestCoversEveryField: changing any field the digest covers — one
// bit of a weight included — changes it, equal queries digest equal, and
// digesting allocates nothing.
func TestDigestCoversEveryField(t *testing.T) {
	build := func() *UQ {
		q := &CQ{
			ID: "UQ1.CQ1", UQID: "UQ1",
			Atoms: []*Atom{
				{Rel: "Term", DB: "go", Args: []Term{V(0), C(tuple.String("plasma membrane")), C(tuple.Int(7))}},
				{Rel: "Score", DB: "go", Args: []Term{V(0), C(tuple.Float(0.5)), C(tuple.Null())}},
			},
			Model:    &scoring.Model{AggKind: scoring.Sum, Static: 0.25, Weights: []float64{0.5, 0.75}, Label: "discover"},
			HeadVars: []int{0},
		}
		return &UQ{ID: "UQ1", Keywords: []string{"membrane"}, K: 10, CQs: []*CQ{q}}
	}
	base := build().Digest()
	if got := build().Digest(); got != base {
		t.Fatalf("equal queries digest %#x and %#x", base, got)
	}
	edits := map[string]func(u *UQ){
		"cq id":          func(u *UQ) { u.CQs[0].ID = "UQ1.CQ2" },
		"uq id":          func(u *UQ) { u.CQs[0].UQID = "UQ2" },
		"relation":       func(u *UQ) { u.CQs[0].Atoms[0].Rel = "Terms" },
		"database":       func(u *UQ) { u.CQs[0].Atoms[0].DB = "go2" },
		"variable":       func(u *UQ) { u.CQs[0].Atoms[1].Args[0] = V(1) },
		"string const":   func(u *UQ) { u.CQs[0].Atoms[0].Args[1] = C(tuple.String("plasma membranes")) },
		"int const":      func(u *UQ) { u.CQs[0].Atoms[0].Args[2] = C(tuple.Int(8)) },
		"const kind":     func(u *UQ) { u.CQs[0].Atoms[0].Args[2] = C(tuple.Float(7)) },
		"float const":    func(u *UQ) { u.CQs[0].Atoms[1].Args[1] = C(tuple.Float(math.Nextafter(0.5, 1))) },
		"null to var":    func(u *UQ) { u.CQs[0].Atoms[1].Args[2] = V(2) },
		"aggregation":    func(u *UQ) { u.CQs[0].Model.AggKind = scoring.Product },
		"static":         func(u *UQ) { u.CQs[0].Model.Static = 0.2500000001 },
		"weight bit":     func(u *UQ) { u.CQs[0].Model.Weights[1] = math.Nextafter(0.75, 1) },
		"weight sign":    func(u *UQ) { u.CQs[0].Model.Weights[0] = -0.5 },
		"label":          func(u *UQ) { u.CQs[0].Model.Label = "qsystem" },
		"head vars":      func(u *UQ) { u.CQs[0].HeadVars = []int{0, 0} },
		"atom order":     func(u *UQ) { a := u.CQs[0].Atoms; a[0], a[1] = a[1], a[0] },
		"one more query": func(u *UQ) { u.CQs = append(u.CQs, u.CQs[0]) },
	}
	for name, edit := range edits {
		u := build()
		edit(u)
		if u.Digest() == base {
			t.Errorf("%s: the digest did not change", name)
		}
	}
	u := build()
	if n := testing.AllocsPerRun(100, func() { u.Digest() }); n != 0 {
		t.Fatalf("Digest allocated %v times", n)
	}
}
