package sketch

import (
	"repro/internal/rng"
)

// AMS is the Alon–Matias–Szegedy ℓ2 sketch: reps independent groups of
// cols four-wise-independent sign measurements. EstimatePow returns the
// median over groups of the mean of squared measurements, an unbiased
// (1±ε) estimator of ‖x‖2² with cols = O(1/ε²) and reps = O(log 1/δ).
type AMS struct {
	n     int
	reps  int
	cols  int
	signs []*rng.PolyHash // one 4-wise hash per measurement row
}

// NewAMS constructs an AMS sketch for dimension-n vectors with the given
// accuracy shape: cols measurement rows per group, reps groups.
func NewAMS(r *rng.RNG, n, reps, cols int) *AMS {
	if reps < 1 || cols < 1 {
		panic("sketch: AMS needs reps, cols >= 1")
	}
	s := &AMS{n: n, reps: reps, cols: cols}
	s.signs = make([]*rng.PolyHash, reps*cols)
	for i := range s.signs {
		s.signs[i] = rng.NewPolyHash(r, 4)
	}
	return s
}

// Dim returns the sketch length.
func (s *AMS) Dim() int { return s.reps * s.cols }

// P returns 2.
func (s *AMS) P() float64 { return 2 }

// Apply sketches the integer vector x.
func (s *AMS) Apply(x []int64) []float64 {
	if len(x) != s.n {
		panic("sketch: AMS dimension mismatch")
	}
	y := make([]float64, s.Dim())
	for j, v := range x {
		if v != 0 {
			s.AddCoord(y, j, v)
		}
	}
	return y
}

// AddCoord adds value v at coordinate j into an existing sketch
// (turnstile update).
func (s *AMS) AddCoord(y []float64, j int, v int64) {
	fv := float64(v)
	for row := range s.signs {
		if s.signs[row].Sign(uint64(j)) > 0 {
			y[row] += fv
		} else {
			y[row] -= fv
		}
	}
}

// EstimatePow estimates ‖x‖2² from a sketch.
func (s *AMS) EstimatePow(y []float64) float64 {
	return s.estimatePow(make([]float64, s.reps), y)
}

// EstimatePowInPlace is EstimatePow with the group means kept in y's
// first reps slots: group g's mean lands in y[g] only after y[g] —
// a member of group g or an earlier one — has been read.
func (s *AMS) EstimatePowInPlace(y []float64) float64 { return s.estimatePow(y, y) }

// estimatePow writes each group's mean of squares to the first reps
// slots of groups and returns their median.
func (s *AMS) estimatePow(groups, y []float64) float64 {
	if len(y) != s.Dim() {
		panic("sketch: AMS sketch length mismatch")
	}
	groups = groups[:s.reps]
	for g := range groups {
		var sum float64
		for c := 0; c < s.cols; c++ {
			v := y[g*s.cols+c]
			sum += v * v
		}
		groups[g] = sum / float64(s.cols)
	}
	return medianInPlace(groups)
}
