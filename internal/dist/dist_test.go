package dist

import (
	"math"
	"testing"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	if New(1).Uint64() == New(2).Uint64() {
		t.Error("different seeds produced the same first draw")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	sum := 0.0
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / 10000; mean < 0.48 || mean > 0.52 {
		t.Errorf("uniform mean = %v", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("only %d of 10 values seen", len(seen))
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(11)
	z := NewZipf(r, 100, 1.0)
	counts := make([]int, 100)
	for i := 0; i < 20000; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[99] {
		t.Errorf("not Zipf-skewed: c0=%d c10=%d c99=%d", counts[0], counts[10], counts[99])
	}
}

func TestZipfScoreMonotone(t *testing.T) {
	if ZipfScore(0, 100) != 1.0 {
		t.Errorf("top rank score = %v, want 1", ZipfScore(0, 100))
	}
	prev := math.Inf(1)
	for i := 0; i < 100; i++ {
		s := ZipfScore(i, 100)
		if s <= 0 || s > 1 || s > prev {
			t.Fatalf("rank %d score %v not in (0,1] nonincreasing", i, s)
		}
		prev = s
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(5)
	for _, mean := range []float64{0.5, 5, 20, 100} {
		sum := 0
		const n = 20000
		for i := 0; i < n; i++ {
			sum += Poisson(r, mean)
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Errorf("Poisson(%v) sample mean = %v", mean, got)
		}
	}
	if Poisson(r, 0) != 0 || Poisson(r, -1) != 0 {
		t.Error("nonpositive mean should draw 0")
	}
}

func TestResumeContinuesTheSequence(t *testing.T) {
	r := New(9)
	r.Uint64()
	s := Resume(r.State())
	for i := 0; i < 100; i++ {
		if a, b := r.Uint64(), s.Uint64(); a != b {
			t.Fatalf("draw %d: resumed generator drew %#x, original %#x", i, b, a)
		}
	}
}
