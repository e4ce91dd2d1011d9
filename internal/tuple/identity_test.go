package tuple_test

import (
	"slices"
	"testing"

	"repro/internal/tuple"
	"repro/internal/workload"
)

// TestIdentityHashMatchesString pins IdentityHash, which hashes the sorted
// part identities without joining them, to its definition — the FNV-1a hash
// of Identity() — on rows over the relations of every bundled suite's
// conjunctive queries: keyed and keyless (bag) relations, arities 1 and up.
// The same parts in reverse order must share the identity, and SameIdentity
// must agree with the strings.
func TestIdentityHashMatchesString(t *testing.T) {
	for _, name := range []string{"bio", "gus", "pfam"} {
		w, err := workload.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		var prev *tuple.Row
		for _, uq := range w.UQs() {
			for _, q := range uq.CQs {
				rels := make([][]*tuple.Tuple, len(q.Atoms))
				for i, a := range q.Atoms {
					db, err := w.Fleet.DB(a.DB)
					if err != nil {
						t.Fatal(err)
					}
					rel, err := db.Store().Relation(a.Rel)
					if err != nil {
						t.Fatal(err)
					}
					rels[i] = rel.Rows()
				}
				for j := 0; j < 4; j++ {
					parts := make([]*tuple.Tuple, 0, len(rels))
					for i, rs := range rels {
						if len(rs) > 0 {
							parts = append(parts, rs[(j*7919+i*31)%len(rs)])
						}
					}
					r := tuple.NewRow(parts...)
					reversed := slices.Clone(parts)
					slices.Reverse(reversed)
					rev := tuple.NewRow(reversed...)
					h := r.IdentityHash() // before Identity builds the string
					if want := tuple.FNV1a(r.Identity()); h != want {
						t.Fatalf("%s %s: IdentityHash %x, fnv1a(%q) %x", name, q.ID, h, r.Identity(), want)
					}
					if rev.IdentityHash() != h || !rev.SameIdentity(r) || rev.Identity() != r.Identity() {
						t.Fatalf("%s %s: reversed parts change the identity of %q", name, q.ID, r.Identity())
					}
					if prev != nil && r.SameIdentity(prev) != (r.Identity() == prev.Identity()) {
						t.Fatalf("%s %s: SameIdentity(%q, %q) disagrees with the strings", name, q.ID, r.Identity(), prev.Identity())
					}
					prev = r
					checked++
				}
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no rows checked", name)
		}
	}
}
