package relationdb

import (
	"math"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/tuple"
)

func scoredSchema() *tuple.Schema {
	return tuple.NewSchema("R",
		tuple.Column{Name: "id", Type: tuple.KindInt, Key: true},
		tuple.Column{Name: "fk", Type: tuple.KindInt},
		tuple.Column{Name: "score", Type: tuple.KindFloat, Score: true},
	)
}

func buildRelation(n int, seed uint64) *Relation {
	s := scoredSchema()
	rng := dist.New(seed)
	rows := make([]*tuple.Tuple, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, tuple.New(s,
			tuple.Int(int64(i)),
			tuple.Int(int64(rng.Intn(10))),
			tuple.Float(rng.Float64()),
		))
	}
	return NewRelation(s, rows)
}

func TestRelationSortedByScore(t *testing.T) {
	r := buildRelation(500, 1)
	prev := 2.0
	for i := 0; i < r.Cardinality(); i++ {
		row := r.Row(i)
		if row.Score() > prev {
			t.Fatalf("rows not in nonincreasing score order at %d", i)
		}
		prev = row.Score()
		if row.Seq() != int64(i) {
			t.Fatalf("seq not assigned: row %d has seq %d", i, row.Seq())
		}
	}
	if r.MaxScore() != r.Row(0).Score() {
		t.Errorf("MaxScore = %v, want first row's %v", r.MaxScore(), r.Row(0).Score())
	}
}

func TestRelationTieBreakDeterministic(t *testing.T) {
	s := scoredSchema()
	rows := []*tuple.Tuple{
		tuple.New(s, tuple.Int(3), tuple.Int(0), tuple.Float(0.5)),
		tuple.New(s, tuple.Int(1), tuple.Int(0), tuple.Float(0.5)),
		tuple.New(s, tuple.Int(2), tuple.Int(0), tuple.Float(0.5)),
	}
	r1 := NewRelation(s, rows)
	r2 := NewRelation(s, []*tuple.Tuple{rows[2], rows[0], rows[1]})
	for i := 0; i < 3; i++ {
		if !r1.Row(i).Key().Equal(r2.Row(i).Key()) {
			t.Fatal("tie order not deterministic across input orders")
		}
	}
}

func TestLookup(t *testing.T) {
	r := buildRelation(300, 2)
	// Count fk=5 by scan, compare with Lookup.
	want := 0
	for _, row := range r.Rows() {
		if row.Val(1).AsInt() == 5 {
			want++
		}
	}
	got := r.Lookup(1, tuple.Int(5))
	if len(got) != want {
		t.Errorf("Lookup(fk=5) = %d rows, want %d", len(got), want)
	}
	for _, row := range got {
		if row.Val(1).AsInt() != 5 {
			t.Error("Lookup returned non-matching row")
		}
	}
	if len(r.Lookup(1, tuple.Int(999))) != 0 {
		t.Error("Lookup of absent value should be empty")
	}
}

func TestDistinctCount(t *testing.T) {
	r := buildRelation(300, 3)
	if d := r.DistinctCount(0); d != 300 {
		t.Errorf("distinct keys = %d", d)
	}
	if d := r.DistinctCount(1); d < 1 || d > 10 {
		t.Errorf("distinct fks = %d", d)
	}
}

// TestLookupKeepsKindsApart pins the index's keys to a value's kind and
// payload: Int(1), Float(1), String("1") and null share a column but not a
// key, and -0.0 is not +0.0.
func TestLookupKeepsKindsApart(t *testing.T) {
	s := tuple.NewSchema("M",
		tuple.Column{Name: "id", Type: tuple.KindInt, Key: true},
		tuple.Column{Name: "v", Type: tuple.KindInt},
	)
	vals := []tuple.Value{
		tuple.Int(1), tuple.Float(1), tuple.String("1"), tuple.Null(),
		tuple.Int(0), tuple.Float(0), tuple.Float(math.Copysign(0, -1)), tuple.String(""),
	}
	var rows []*tuple.Tuple
	for i, v := range vals {
		for c := 0; c <= i; c++ { // value i in i+1 rows, so each count is its own
			rows = append(rows, tuple.New(s, tuple.Int(int64(len(rows))), v))
		}
	}
	r := NewRelation(s, rows)
	for i, v := range vals {
		got := r.Lookup(1, v)
		if len(got) != i+1 {
			t.Errorf("Lookup(%s %s) = %d rows, want %d", v.Kind(), v.Text(), len(got), i+1)
		}
		for _, row := range got {
			if row.Val(1).IndexKey() != v.IndexKey() {
				t.Errorf("Lookup(%s %s) returned %s %s", v.Kind(), v.Text(), row.Val(1).Kind(), row.Val(1).Text())
			}
		}
	}
	if d := r.DistinctCount(1); d != len(vals) {
		t.Errorf("distinct values = %d, want %d", d, len(vals))
	}
	if got := r.Lookup(1, tuple.Int(2)); len(got) != 0 {
		t.Errorf("Lookup of absent value = %d rows", len(got))
	}
}

// TestLookupConcurrent has several goroutines race to build and read one
// relation's indexes; run it with -race.
func TestLookupConcurrent(t *testing.T) {
	r := buildRelation(500, 4)
	want := len(r.Lookup(1, tuple.Int(3)))
	r = buildRelation(500, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := len(r.Lookup(1, tuple.Int(3))); got != want {
				t.Errorf("Lookup(fk=3) = %d rows, want %d", got, want)
			}
			if d := r.DistinctCount(0); d != 500 {
				t.Errorf("distinct keys = %d, want 500", d)
			}
		}()
	}
	wg.Wait()
}

// BenchmarkRelationLookup measures a warm hash lookup, the remote probe and
// pushed-down join path; it allocates nothing.
func BenchmarkRelationLookup(b *testing.B) {
	r := buildRelation(4096, 1)
	r.Lookup(1, tuple.Int(0)) // build the index
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if len(r.Lookup(1, tuple.Int(int64(i%10)))) == 0 {
			b.Fatal("empty lookup")
		}
	}
}

func TestScorelessRelation(t *testing.T) {
	s := tuple.NewSchema("P", tuple.Column{Name: "a", Type: tuple.KindInt, Key: true})
	r := NewRelation(s, []*tuple.Tuple{tuple.New(s, tuple.Int(1)), tuple.New(s, tuple.Int(2))})
	if r.MaxScore() != tuple.NeutralScore {
		t.Errorf("score-less MaxScore = %v", r.MaxScore())
	}
}

func TestEmptyRelation(t *testing.T) {
	r := NewRelation(scoredSchema(), nil)
	if r.Cardinality() != 0 || r.MaxScore() != tuple.NeutralScore {
		t.Error("empty relation basics")
	}
	if r.DistinctCount(0) != 0 {
		t.Error("empty distinct")
	}
}

func TestStoreLazyMaterialisation(t *testing.T) {
	st := NewStore("db1")
	calls := 0
	st.PutLazy("R", func() *Relation {
		calls++
		return buildRelation(10, 4)
	})
	if !st.Has("R") || st.Has("S") {
		t.Error("Has wrong")
	}
	r1, err := st.Relation("R")
	if err != nil {
		t.Fatal(err)
	}
	r2 := st.MustRelation("R")
	if r1 != r2 {
		t.Error("lazy relation should be cached")
	}
	if calls != 1 {
		t.Errorf("loader called %d times", calls)
	}
	if _, err := st.Relation("missing"); err == nil {
		t.Error("missing relation should error")
	}
}

func TestStoreNames(t *testing.T) {
	st := NewStore("db")
	st.Put(buildRelation(5, 5))
	st.PutLazy("Z", func() *Relation { return buildRelation(5, 6) })
	names := st.Names()
	if len(names) != 2 || names[0] != "R" || names[1] != "Z" {
		t.Errorf("names = %v", names)
	}
	if st.Name() != "db" {
		t.Error("store name")
	}
}
