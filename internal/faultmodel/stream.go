package faultmodel

import "math/rand"

// splitMix64 is the SplitMix64 generator (Steele, Lea & Flood, "Fast
// Splittable Pseudorandom Number Generators", OOPSLA 2014): a 64-bit
// finalizer over a Weyl sequence. It backs the per-experiment sampling
// streams because campaigns reseed once or twice per experiment — once for
// the experiment itself and once to predict its target for batching — and
// math/rand's default lagged-Fibonacci source pays an O(607) warm-up loop
// per Seed, which measures at a fifth of short-campaign wall clock. Seeding
// SplitMix64 is one store; its output quality is ample for picking fault
// sites and bits.
type splitMix64 struct{ state uint64 }

func (s *splitMix64) Seed(seed int64) { s.state = uint64(seed) }

func (s *splitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitMix64) Int63() int64 { return int64(s.Uint64() >> 1) }

// NewStreamSource returns a source producing the exact stream a Sampler
// seeded (or Reseeded) at seed draws from. Injection target prediction uses
// it to replay the first draw of an experiment's stream without touching the
// live sampler.
func NewStreamSource(seed int64) rand.Source64 {
	return &splitMix64{state: uint64(seed)}
}

// Weighted draws i with probability weights[i]/total from one Float64 of r:
// the layer execution an experiment strikes (∝ its work) and the FF group a
// validation injection strikes (∝ its census share). A draw that rounding
// carries past every weight falls to the last element.
func Weighted(r *rand.Rand, weights []float64, total float64) int {
	x := r.Float64() * total
	for i, w := range weights {
		if x -= w; x <= 0 {
			return i
		}
	}
	return len(weights) - 1
}
