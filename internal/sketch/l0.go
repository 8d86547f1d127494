package sketch

import (
	"math"

	"repro/internal/field"
	"repro/internal/rng"
)

// L0 is a linear sketch for the number of distinct (non-zero) coordinates
// of an integer vector, the p = 0 case of Lemma 2.1.
//
// Construction: coordinates are subsampled into nested geometric levels
// (level ℓ keeps each coordinate with probability 2^-ℓ via a shared
// pairwise-independent hash); within a level, surviving coordinates are
// hashed into K buckets, and each bucket stores the field sum Σ c_j·x_j
// with per-coordinate random field coefficients c_j. A bucket is empty iff
// no surviving non-zero coordinate maps to it, up to a cancellation
// probability ≤ K·L/p ≈ 2^-50.
//
// Estimation inverts the balls-into-bins occupancy at the first
// unsaturated level: with t surviving balls, the expected fraction of
// empty buckets is (1-1/K)^t, so t̂ = ln(empty/K)/ln(1-1/K) and the
// overall estimate is t̂·2^ℓ. K = Θ(1/ε²) yields a (1±ε) estimate with
// constant probability.
//
// The sketch is linear over GF(2^61−1): sketches of x and y add entrywise
// to a sketch of x+y as long as inputs are integer vectors, which is how
// the protocols assemble sketches of rows of A·B.
type L0 struct {
	n       int
	levels  int
	buckets int
	level   *rng.PolyHash   // coordinate → geometric level
	bucket  []*rng.PolyHash // per level: coordinate → bucket
	coef    []*rng.PolyHash // per level: coordinate → field coefficient
}

// NewL0 constructs an ℓ0 sketch for dimension-n vectors with K buckets
// per level. K controls accuracy: relative error ≈ 1.3/√K.
func NewL0(r *rng.RNG, n, buckets int) *L0 {
	if buckets < 2 {
		panic("sketch: L0 needs at least 2 buckets")
	}
	levels := 1
	for 1<<(levels-1) < n {
		levels++
	}
	s := &L0{
		n:       n,
		levels:  levels,
		buckets: buckets,
		level:   rng.NewPolyHash(r, 2),
	}
	s.bucket = make([]*rng.PolyHash, levels)
	s.coef = make([]*rng.PolyHash, levels)
	for ℓ := range s.bucket {
		s.bucket[ℓ] = rng.NewPolyHash(r, 2)
		s.coef[ℓ] = rng.NewPolyHash(r, 2)
	}
	return s
}

// Dim returns the sketch length in field elements.
func (s *L0) Dim() int { return s.levels * s.buckets }

// Levels returns the number of subsampling levels.
func (s *L0) Levels() int { return s.levels }

// Apply sketches the integer vector x.
func (s *L0) Apply(x []int64) []field.Elem {
	if len(x) != s.n {
		panic("sketch: L0 dimension mismatch")
	}
	y := make([]field.Elem, s.Dim())
	for j, v := range x {
		if v == 0 {
			continue
		}
		s.AddCoord(y, j, v)
	}
	return y
}

// AddCoord adds value v at coordinate j into an existing sketch — the
// O(levels) incremental update that makes the sketch usable on dynamic
// (turnstile) inputs.
func (s *L0) AddCoord(y []field.Elem, j int, v int64) {
	lev := s.level.Level(uint64(j), s.levels-1)
	fv := field.ReduceInt(v)
	for ℓ := 0; ℓ <= lev; ℓ++ {
		c := s.coef[ℓ].Eval(uint64(j))
		if c == 0 {
			c = 1
		}
		w := s.word(ℓ, j)
		y[w] = field.Add(y[w], field.Mul(c, fv))
	}
}

// word is the sketch word coordinate j adds into at level ℓ.
func (s *L0) word(ℓ, j int) int {
	return ℓ*s.buckets + s.bucket[ℓ].Bucket(uint64(j), s.buckets)
}

// Support appends to dst the sketch words AddCoord writes for coordinate
// j, so the sketch of a sparse vector can be read off the words its
// coordinates reach instead of scanned for.
func (s *L0) Support(dst []int, j int) []int {
	lev := s.level.Level(uint64(j), s.levels-1)
	for ℓ := 0; ℓ <= lev; ℓ++ {
		dst = append(dst, s.word(ℓ, j))
	}
	return dst
}

// Estimate returns an estimate of ‖x‖0 from a sketch of x.
func (s *L0) Estimate(y []field.Elem) float64 {
	if len(y) != s.Dim() {
		panic("sketch: L0 sketch length mismatch")
	}
	K := float64(s.buckets)
	// Use the densest level whose occupancy is still invertible: the
	// balls-into-bins inversion has minimal relative error around load
	// factor ~1.6 (occupancy ≈ 0.8K), and denser levels also carry less
	// subsampling noise, so we take the first level at or below the 0.8K
	// saturation threshold.
	threshold := int(0.8 * K)
	for ℓ := 0; ℓ < s.levels; ℓ++ {
		occupied := 0
		for b := 0; b < s.buckets; b++ {
			if y[ℓ*s.buckets+b] != 0 {
				occupied++
			}
		}
		if occupied == 0 {
			// Nothing survived at this level. At level 0 that means the
			// vector is zero; at higher levels it means the support is
			// tiny and an earlier saturated level cannot exist under
			// nested subsampling, so keep scanning.
			if ℓ == 0 {
				return 0
			}
			continue
		}
		if occupied <= threshold || ℓ == s.levels-1 {
			if occupied >= s.buckets {
				occupied = s.buckets - 1 // saturated last level: clamp
			}
			empty := K - float64(occupied)
			t := math.Log(empty/K) / math.Log(1-1/K)
			return t * float64(uint64(1)<<uint(ℓ))
		}
	}
	return 0
}

// AxpyField accumulates y += a·x over the field, the combination
// primitive protocols use on transmitted field sketches; unrolled as
// AxpyFloat is.
//
//mp:hotpath
func AxpyField(y []field.Elem, a int64, x []field.Elem) {
	fa := field.ReduceInt(a)
	if fa == 0 {
		return
	}
	y = y[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y[i] = field.Add(y[i], field.Mul(fa, x[i]))
		y[i+1] = field.Add(y[i+1], field.Mul(fa, x[i+1]))
		y[i+2] = field.Add(y[i+2], field.Mul(fa, x[i+2]))
		y[i+3] = field.Add(y[i+3], field.Mul(fa, x[i+3]))
	}
	for ; i < len(x); i++ {
		y[i] = field.Add(y[i], field.Mul(fa, x[i]))
	}
}

// AxpyFieldSparse is AxpyField for an x given as its non-zero words:
// x[t] sits at index idx[t] < len(y). The receiver of many sparse
// sketches combines each over the few words it has.
//
//mp:hotpath
func AxpyFieldSparse(y []field.Elem, a int64, idx []int, x []field.Elem) {
	fa := field.ReduceInt(a)
	if fa == 0 {
		return
	}
	for t, i := range idx {
		y[i] = field.Add(y[i], field.Mul(fa, x[t]))
	}
}
