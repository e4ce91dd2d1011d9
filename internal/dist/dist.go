// Package dist provides the deterministic random sources the reproduction
// relies on: a seedable PRNG, Zipfian rank samplers (§7: keyword popularity,
// per-user scoring coefficients and tuple scores are Zipfian), and Poisson
// draws (§7: injected network delays are Poisson with a 2 ms mean). Everything
// here is purely seed-driven — the same seed always yields the same sequence —
// which is what makes the experiment drivers bit-reproducible.
package dist

import "math"

// RNG is a small, fast, seedable generator (splitmix64). It is not safe for
// concurrent use; give each logical actor (user, workload, delay model) its
// own instance.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG { return &RNG{state: seed + 0x9e3779b97f4a7c15} }

// State returns the generator's state, the whole of its future sequence:
// Resume(r.State()) draws exactly what r would draw next.
func (r *RNG) State() uint64 { return r.state }

// Resume returns a generator at a state State reported.
func Resume(state uint64) *RNG { return &RNG{state: state} }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform draw in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("dist: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Zipf samples ranks in [0, n) with probability proportional to
// 1/(rank+1)^s — rank 0 is the most popular.
type Zipf struct {
	rng *RNG
	cdf []float64
}

// NewZipf builds a sampler over n ranks with exponent s, drawing from rng.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("dist: NewZipf with n <= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{rng: rng, cdf: cdf}
}

// Next draws the next rank.
func (z *Zipf) Next() int { return z.Draw(z.rng) }

// Draw draws the next rank from rng in place of the sampler's own generator,
// so one table (NewZipf with a nil generator) can serve many generators.
func (z *Zipf) Draw(rng *RNG) int {
	u := rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ZipfScore maps rank i of n items to a Zipfian-decaying score in (0, 1]:
// the most popular item scores 1, the tail decays as 1/sqrt(rank+1). Used to
// give generated base tuples the skewed score distributions of §7.
func ZipfScore(i, n int) float64 {
	_ = n
	return 1.0 / math.Sqrt(float64(i+1))
}

// Poisson draws a Poisson-distributed count with the given mean (Knuth's
// method, split into chunks so large means stay numerically stable).
func Poisson(rng *RNG, mean float64) int {
	if mean <= 0 {
		return 0
	}
	total := 0
	for mean > 30 {
		total += poissonKnuth(rng, 30)
		mean -= 30
	}
	return total + poissonKnuth(rng, mean)
}

func poissonKnuth(rng *RNG, mean float64) int {
	limit := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}
