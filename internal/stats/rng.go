// Package stats provides the deterministic pseudo-random number generator
// used across the simulator. Every stochastic
// component in the repository draws from a stats.RNG seeded explicitly, so
// that experiments are exactly reproducible run to run.
package stats

import "math"

// RNG is a splitmix64-based pseudo-random generator. It is deliberately not
// math/rand: we want a tiny, allocation-free generator whose sequence is
// stable across Go releases, so recorded experiment outputs stay comparable.
type RNG struct {
	state uint64
	// spare holds a cached second Gaussian sample from the Box-Muller
	// transform; spareOK reports whether it is valid.
	spare   float64
	spareOK bool
}

// NewRNG returns a generator seeded with seed. Two generators with the same
// seed produce identical sequences.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives an independent generator from r. The derived stream is
// decorrelated from r's by mixing a large odd constant into the state.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64()*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normal sample via the Box-Muller transform.
func (r *RNG) Norm() float64 {
	if r.spareOK {
		r.spareOK = false
		return r.spare
	}
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		mag := math.Sqrt(-2 * math.Log(u))
		r.spare = mag * math.Sin(2*math.Pi*v)
		r.spareOK = true
		return mag * math.Cos(2*math.Pi*v)
	}
}

// NormScaled returns a normal sample with the given mean and stddev.
func (r *RNG) NormScaled(mean, stddev float64) float64 {
	return mean + stddev*r.Norm()
}

// Perm returns a random permutation of [0, n) using Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n indices in place via the provided swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
