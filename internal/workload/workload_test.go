package workload

import (
	"sync"
	"testing"
	"time"

	"repro/internal/relationdb"
)

func TestBioWorkloadShape(t *testing.T) {
	w, err := Bio()
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Submissions) != 3 {
		t.Fatalf("bio has %d submissions", len(w.Submissions))
	}
	// Figure 1's relations must all exist across four databases.
	for _, rel := range []string{"UP", "RL", "TP", "E", "E2M", "I2G", "T", "TS", "G2G", "GI"} {
		if w.Schema.Node(rel) == nil {
			t.Errorf("missing relation %s", rel)
		}
		if _, err := w.Catalog.Relation(rel); err != nil {
			t.Errorf("missing stats for %s", rel)
		}
	}
	for _, db := range []string{"uniprot", "interpro", "go", "entrez"} {
		if _, err := w.Fleet.DB(db); err != nil {
			t.Errorf("missing database %s", db)
		}
	}
	// KQ3 arrives after KQ1/KQ2 (refinement over time, §2.3).
	if !(w.Submissions[0].At < w.Submissions[2].At) {
		t.Error("KQ3 must arrive later")
	}
	// The scenario's CQ5/CQ6 relationship (Table 3): UQ3's CQs must be
	// subexpressions of UQ1's atom sets.
	uq1rels := map[string]bool{}
	for _, q := range w.Submissions[0].UQ.CQs {
		for _, a := range q.Atoms {
			uq1rels[a.Rel] = true
		}
	}
	for _, q := range w.Submissions[2].UQ.CQs {
		for _, a := range q.Atoms {
			if !uq1rels[a.Rel] {
				t.Logf("note: UQ3 uses %s outside UQ1's relation set", a.Rel)
			}
		}
	}
}

func TestGUSWorkloadShape(t *testing.T) {
	w, err := GUS(1, GUSScaleDefault())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Schema.Nodes()) != 358 {
		t.Errorf("GUS declares %d relations, want 358", len(w.Schema.Nodes()))
	}
	if len(w.Submissions) != 15 {
		t.Fatalf("GUS has %d user queries, want 15", len(w.Submissions))
	}
	for i, s := range w.Submissions {
		if len(s.UQ.Keywords) != 2 {
			t.Errorf("UQ%d keywords = %v", i+1, s.UQ.Keywords)
		}
		if len(s.UQ.CQs) < 2 || len(s.UQ.CQs) > 20 {
			t.Errorf("UQ%d has %d CQs (want 2..20)", i+1, len(s.UQ.CQs))
		}
		if s.UQ.K != 50 {
			t.Errorf("UQ%d k = %d", i+1, s.UQ.K)
		}
		for _, q := range s.UQ.CQs {
			if err := q.Validate(); err != nil {
				t.Errorf("UQ%d %s: %v", i+1, q.ID, err)
			}
		}
		if i > 0 {
			gap := s.At - w.Submissions[i-1].At
			if gap <= 0 || gap > 6*time.Second {
				t.Errorf("arrival gap %v out of (0, 6s]", gap)
			}
		}
	}
}

func TestGUSInstancesDiffer(t *testing.T) {
	w1, err := GUS(1, GUSScaleDefault())
	if err != nil {
		t.Fatal(err)
	}
	w2, err := GUS(2, GUSScaleDefault())
	if err != nil {
		t.Fatal(err)
	}
	// Same schema, different data: compare one touched relation's rows.
	rel := w1.Submissions[0].UQ.CQs[0].Atoms[0].Rel
	r1 := w1.Fleet.MustDB("gus").Store().MustRelation(rel)
	r2 := w2.Fleet.MustDB("gus").Store().MustRelation(rel)
	if r1.Cardinality() == r2.Cardinality() {
		same := true
		for i := 0; i < r1.Cardinality() && i < 20; i++ {
			if r1.Row(i).Identity() != r2.Row(i).Identity() {
				same = false
			}
		}
		if same {
			t.Error("instances 1 and 2 generated identical data")
		}
	}
}

func TestGUSDeterministic(t *testing.T) {
	a, err := GUS(1, GUSScaleDefault())
	if err != nil {
		t.Fatal(err)
	}
	b, err := GUS(1, GUSScaleDefault())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Submissions {
		if a.Submissions[i].UQ.CQs[0].String() != b.Submissions[i].UQ.CQs[0].String() {
			t.Fatal("GUS generation nondeterministic")
		}
		if a.Submissions[i].At != b.Submissions[i].At {
			t.Fatal("arrival times nondeterministic")
		}
	}
}

func TestPfamWorkloadShape(t *testing.T) {
	w, err := Pfam(PfamScaleDefault())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Submissions) != 15 {
		t.Fatalf("pfam has %d user queries", len(w.Submissions))
	}
	for i, s := range w.Submissions {
		if len(s.UQ.CQs) < 2 || len(s.UQ.CQs) > 4 {
			t.Errorf("UQ%d has %d CQs (want 2..4, paper: 4)", i+1, len(s.UQ.CQs))
		}
	}
	// Two databases with the mapping table in pfam.
	if _, err := w.Fleet.DB("pfam"); err != nil {
		t.Error("missing pfam db")
	}
	if _, err := w.Fleet.DB("interpro"); err != nil {
		t.Error("missing interpro db")
	}
	if !w.Fleet.MustDB("pfam").Store().Has("pfam2interpro") {
		t.Error("missing mapping table")
	}
	// The protein table is the probe-only (score-less) source.
	st, err := w.Catalog.Relation("protein")
	if err != nil || st.HasScore {
		t.Error("protein should be score-less")
	}
}

// TestPfamConcurrentFirstAccess: goroutines racing on the first access of a
// lazy Pfam relation must each see the rows a lone access materialises.
func TestPfamConcurrentFirstAccess(t *testing.T) {
	const rel = "pfam2interpro"
	ref, err := Pfam(PfamScaleDefault())
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Fleet.MustDB("pfam").Store().MustRelation(rel)
	w, err := Pfam(PfamScaleDefault())
	if err != nil {
		t.Fatal(err)
	}
	store := w.Fleet.MustDB("pfam").Store()
	got := make([]*relationdb.Relation, 4)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = store.MustRelation(rel)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, r := range got {
		if r.Cardinality() != want.Cardinality() {
			t.Fatalf("goroutine %d: %d rows, want %d", i, r.Cardinality(), want.Cardinality())
		}
		for j := 0; j < r.Cardinality(); j++ {
			if r.Row(j).Identity() != want.Row(j).Identity() {
				t.Fatalf("goroutine %d: row %d is %s, want %s", i, j, r.Row(j).Identity(), want.Row(j).Identity())
			}
		}
	}
}

func TestPrefix(t *testing.T) {
	w, err := GUS(1, GUSScaleDefault())
	if err != nil {
		t.Fatal(err)
	}
	p := w.Prefix(5)
	if len(p.Submissions) != 5 || len(w.Submissions) != 15 {
		t.Error("prefix wrong")
	}
	if p.Fleet != w.Fleet {
		t.Error("prefix must share the fleet")
	}
	if got := w.Prefix(99); len(got.Submissions) != 15 {
		t.Error("over-long prefix should clamp")
	}
}

func TestBioUQHelper(t *testing.T) {
	w, err := Bio()
	if err != nil {
		t.Fatal(err)
	}
	uq, err := BioUQ(w, "X1", []string{"metabolism", "gene"}, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if uq.ID != "X1" || uq.K != 7 || len(uq.CQs) == 0 {
		t.Errorf("BioUQ: %+v", uq)
	}
}
