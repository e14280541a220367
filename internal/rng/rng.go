// Package rng provides deterministic, splittable pseudo-random number
// generation for the simulator.
//
// In the LOCAL model every vertex flips its own coins. To keep whole-run
// reproducibility while letting per-node computations run concurrently, the
// package exposes a splittable generator: a single seed deterministically
// derives an independent stream per (node, phase) pair. The core generator
// is SplitMix64 (Steele, Lea & Flood, OOPSLA'14), which is tiny, fast, and
// passes BigCrush when used as a stream seeder.
package rng

import "math"

const (
	gamma      = 0x9e3779b97f4a7c15 // golden-ratio increment
	mixMul1    = 0xbf58476d1ce4e5b9
	mixMul2    = 0x94d049bb133111eb
	doubleUnit = 1.0 / (1 << 53)
)

// mix64 is the SplitMix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * mixMul1
	z = (z ^ (z >> 27)) * mixMul2
	return z ^ (z >> 31)
}

// Source is a deterministic SplitMix64 stream. The zero value is a valid
// stream seeded with 0.
type Source struct {
	state uint64
}

// New returns a stream seeded with seed.
func New(seed uint64) *Source { return &Source{state: seed} }

// Split derives an independent child stream identified by id. Streams with
// distinct (parent seed, id) pairs are statistically independent.
func (s *Source) Split(id uint64) *Source {
	return &Source{state: mix64(s.state+gamma) ^ mix64(id*gamma+gamma)}
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	s.state += gamma
	return mix64(s.state)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation would be faster but
	// modulo with a 64-bit source has negligible bias for n << 2^64.
	return int(s.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) * doubleUnit
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Exp returns an exponential random variable with rate lambda (mean
// 1/lambda). It panics if lambda <= 0.
func (s *Source) Exp(lambda float64) float64 {
	if lambda <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -math.Log(u) / lambda
}

// Geometric returns the number of failures before the first success in
// Bernoulli(p) trials (support {0, 1, 2, ...}). It panics unless 0 < p <= 1.
func (s *Source) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric needs 0 < p <= 1")
	}
	if p == 1 {
		return 0
	}
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return int(math.Floor(math.Log(u) / math.Log(1-p)))
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns a uniformly random k-subset of [0, n) in increasing order.
// It panics if k > n or k < 0.
func (s *Source) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample with k out of range")
	}
	// Floyd's algorithm: O(k) expected time, O(k) space.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := s.Intn(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	// Insertion sort: k is small in all our uses.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
