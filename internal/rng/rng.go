// Package rng provides the deterministic randomness substrate shared by all
// protocols: a splittable pseudo-random generator, k-wise independent hash
// families over GF(2^61 - 1), sign hashes, and p-stable variate generation.
//
// Protocols in this repository run in the public-coin two-party model of
// the paper: Alice and Bob derive identical sketching matrices from a seed
// both hold, so the randomness itself costs no communication. Determinism
// matters twice over — both parties must derive the *same* hash functions,
// and tests/benchmarks must be reproducible — so every stream is a pure
// function of (seed, label path).
package rng

import (
	"hash/fnv"
	"math"

	"repro/internal/field"
)

// splitmix64 advances the seed-expansion state and returns the next value.
// It is the standard SplitMix64 finalizer, used to turn arbitrary seeds
// into well-distributed xoshiro state.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RNG is a deterministic pseudo-random generator (xoshiro256**). The zero
// value is not usable; construct with New or Derive.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	st := seed
	for i := range r.s {
		r.s[i] = splitmix64(&st)
	}
	// xoshiro must not start in the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Derive returns a new generator whose stream is a pure function of the
// parent seed and the label path. Both parties call Derive with identical
// labels to agree on shared sketching matrices without communication.
func (r *RNG) Derive(labels ...string) *RNG {
	h := fnv.New64a()
	for _, l := range labels {
		h.Write([]byte(l))
		h.Write([]byte{0})
	}
	// Mix the parent's (unconsumed) state so distinct parents give
	// distinct children. Reading s directly keeps Derive side-effect free.
	mix := r.s[0] ^ (r.s[1] << 1) ^ (r.s[2] >> 1) ^ r.s[3]
	return New(mix ^ h.Sum64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n).
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p >= 1 {
		return true
	}
	if p <= 0 {
		return false
	}
	return r.Float64() < p
}

// Sign returns +1 or -1 with equal probability.
func (r *RNG) Sign() int {
	if r.Uint64()&1 == 0 {
		return 1
	}
	return -1
}

// ExpFloat64 returns an Exp(1) variate.
func (r *RNG) ExpFloat64() float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u)
}

// Stable returns a standard symmetric p-stable variate for p in (0, 2],
// generated with the Chambers–Mallows–Stuck transform. Stable(1) is
// standard Cauchy; Stable(2) is Normal(0, sqrt(2)) up to the stable
// scaling convention — the sketch layer only ever uses medians of absolute
// values, which it calibrates empirically, so the convention washes out.
func (r *RNG) Stable(p float64) float64 {
	if p <= 0 || p > 2 {
		panic("rng: Stable index out of range (0,2]")
	}
	if p == 1 {
		return math.Tan(r.CauchyAngle())
	}
	theta := (r.Float64() - 0.5) * math.Pi // U(-π/2, π/2)
	w := r.ExpFloat64()
	t := math.Sin(p*theta) / math.Pow(math.Cos(theta), 1/p)
	s := math.Pow(math.Cos((1-p)*theta)/w, (1-p)/p)
	return t * s
}

// CauchyAngle returns the angle θ ∈ (−π/2, π/2) of one Stable(1) draw,
// which is math.Tan(θ), consuming exactly the words Stable(1) does. The
// transform's Exp(1) variate W is unused at p = 1, but its words are
// still drawn — Float64 until a non-zero one, as ExpFloat64 does, without
// the logarithm — so every later word of the stream stays where it was.
func (r *RNG) CauchyAngle() float64 {
	theta := (r.Float64() - 0.5) * math.Pi
	for r.Float64() == 0 {
	}
	return theta
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomly permutes n elements using the given swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// PolyHash is a k-wise independent hash family over GF(2^61 - 1),
// implemented as a degree-(k-1) polynomial with random coefficients.
// Evaluations at distinct points are k-wise independent and uniform over
// the field.
type PolyHash struct {
	coeffs []field.Elem
}

// NewPolyHash draws a fresh k-wise independent hash function. k must be at
// least 1; k = 2 gives the pairwise-independent family used by level
// sampling, k = 4 the four-wise family AMS requires.
func NewPolyHash(r *RNG, k int) *PolyHash {
	if k < 1 {
		panic("rng: PolyHash needs k >= 1")
	}
	coeffs := make([]field.Elem, k)
	for i := range coeffs {
		coeffs[i] = field.Reduce(r.Uint64())
	}
	// A zero leading coefficient only reduces the effective degree; that
	// is fine for independence (the family is over all polynomials of
	// degree < k).
	return &PolyHash{coeffs: coeffs}
}

// Eval returns the hash of x as a uniform field element.
func (h *PolyHash) Eval(x uint64) field.Elem {
	xe := field.Reduce(x)
	acc := field.Elem(0)
	// Horner evaluation.
	for i := len(h.coeffs) - 1; i >= 0; i-- {
		acc = field.Add(field.Mul(acc, xe), h.coeffs[i])
	}
	return acc
}

// Bytes reports the memory the hash retains: its coefficients.
func (h *PolyHash) Bytes() int64 { return 8 * int64(len(h.coeffs)) }

// Bucket maps x to a bucket in [0, m). The field is ~2^61 so the modulo
// bias is below 2^-40 for any m used here.
func (h *PolyHash) Bucket(x uint64, m int) int {
	return int(h.Eval(x) % uint64(m))
}

// Sign maps x to ±1 with four-wise independence when constructed with
// k >= 4 (AMS requires exactly that).
func (h *PolyHash) Sign(x uint64) int {
	if h.Eval(x)&1 == 0 {
		return 1
	}
	return -1
}

// Level maps x to a geometric level: level ℓ with probability 2^-(ℓ+1),
// capped at max. Both parties use it for coordinated subsampling in the
// ℓ0 sketch and ℓ0-sampler.
func (h *PolyHash) Level(x uint64, max int) int {
	v := h.Eval(x)
	// Count leading-zero structure of the low bits: level = number of
	// trailing zero bits, capped.
	l := 0
	for l < max && v&1 == 0 {
		v >>= 1
		l++
	}
	return l
}
