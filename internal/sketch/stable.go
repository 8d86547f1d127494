package sketch

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/rng"
)

// Stable is Indyk's p-stable sketch for ℓp norms with 0 < p < 2. The
// sketching matrix S has i.i.d. standard symmetric p-stable entries
// (Chambers–Mallows–Stuck generator); each measurement (Sx)_i is then
// distributed as ‖x‖p · X for a standard p-stable X, so
// median(|Sx|) / median(|X|) estimates ‖x‖p.
//
// The normalizer median(|X|) has no closed form for general p; it is
// calibrated empirically once per p from a large fixed-seed sample and
// cached process-wide. The calibration error (< 0.3% at 400001 samples)
// is far below the sketch's own O(1/√rows) estimation error.
//
// S is held column-major — column j, the coefficients coordinate j adds
// into every word with, is mat[j*rows:][:rows] — so AddCoord, the whole
// of a row's sketching, reads one contiguous run per non-zero.
type Stable struct {
	n     int
	rows  int
	p     float64
	scale float64   // median of |standard p-stable|
	mat   []float64 // S, column-major: S[i][j] is mat[j*rows+i]
}

// stableMedians maps p to its calibration, run once (sync.OnceValue)
// and outside any lock shared between values of p.
var stableMedians sync.Map

// stableMedian returns the median of |X| for standard p-stable X,
// calibrated empirically with a fixed seed and cached.
func stableMedian(p float64) float64 {
	f, ok := stableMedians.Load(p)
	if !ok {
		f, _ = stableMedians.LoadOrStore(p, sync.OnceValue(func() float64 { return calibrateStableMedian(p) }))
	}
	return f.(func() float64)()
}

// calibrateStableMedian is the median of |X| over 400 001 draws of a
// fixed stream. At p = 1 a draw is tan θ, and math.Tan is odd, so |X| is
// tan |θ|; tan increases on [0, π/2), and the count is odd, so the median
// is a single draw's, tan of the median |θ| — one tangent, not 400 001
// (DESIGN.md, "The cold lp state", on why rounding cannot reorder the
// draws around it here; TestStableMedianPinned holds the bits).
func calibrateStableMedian(p float64) float64 {
	const samples = 400001
	r := rng.New(0x57ab1e0ca1) // fixed calibration stream, independent of sketches
	v := make([]float64, samples)
	if p == 1 {
		for i := range v {
			v[i] = math.Abs(r.CauchyAngle())
		}
		return math.Tan(medianInPlace(v))
	}
	for i := range v {
		v[i] = math.Abs(r.Stable(p))
	}
	return medianInPlace(v)
}

// NewStable constructs a p-stable sketch with the given number of
// measurement rows for dimension-n vectors. rows = O(1/ε²) yields a
// (1±ε) estimate with constant probability.
func NewStable(r *rng.RNG, n int, p float64, rows int) *Stable {
	if p <= 0 || p >= 2 {
		panic(fmt.Sprintf("sketch: Stable requires 0 < p < 2, got %v", p))
	}
	if rows < 1 {
		panic("sketch: Stable needs rows >= 1")
	}
	s := &Stable{n: n, rows: rows, p: p, scale: stableMedian(p)}
	s.mat = make([]float64, n*rows)
	// Drawn row by row, the order of the stream: S is a function of r
	// alone, whatever its layout.
	for i := 0; i < rows; i++ {
		for j := 0; j < n; j++ {
			s.mat[j*rows+i] = r.Stable(p)
		}
	}
	return s
}

// Bytes reports the memory the sketch retains: S's rows × n variates.
func (s *Stable) Bytes() int64 { return 8 * int64(len(s.mat)) }

// Dim returns the sketch length.
func (s *Stable) Dim() int { return s.rows }

// P returns the norm index.
func (s *Stable) P() float64 { return s.p }

// Apply sketches the integer vector x.
func (s *Stable) Apply(x []int64) []float64 {
	if len(x) != s.n {
		panic("sketch: Stable dimension mismatch")
	}
	y := make([]float64, s.rows)
	for j, v := range x {
		if v != 0 {
			s.AddCoord(y, j, v)
		}
	}
	return y
}

// AddCoord adds value v at coordinate j into an existing sketch
// (turnstile update): y += v·(column j of S), an axpy over one
// contiguous column. Every word is its own sum, so the 4-way unrolling
// (one bounds check, hoisted) changes no float.
//
//mp:hotpath
func (s *Stable) AddCoord(y []float64, j int, v int64) {
	fv := float64(v)
	col := s.mat[j*s.rows:][:s.rows]
	y = y[:len(col)]
	i := 0
	for ; i+4 <= len(col); i += 4 {
		y[i] += col[i] * fv
		y[i+1] += col[i+1] * fv
		y[i+2] += col[i+2] * fv
		y[i+3] += col[i+3] * fv
	}
	for ; i < len(col); i++ {
		y[i] += col[i] * fv
	}
}

// EstimatePow estimates ‖x‖p^p from a sketch of x.
func (s *Stable) EstimatePow(y []float64) float64 {
	return s.EstimatePowInPlace(append([]float64(nil), y...))
}

// EstimatePowInPlace is EstimatePow that takes |·| and the median in y
// itself — one estimate per row of A per repetition per query makes
// this the serving path's form.
func (s *Stable) EstimatePowInPlace(y []float64) float64 {
	if len(y) != s.rows {
		panic("sketch: Stable sketch length mismatch")
	}
	for i, v := range y {
		y[i] = math.Abs(v)
	}
	norm := medianInPlace(y) / s.scale
	if s.p == 1 {
		return norm // math.Pow(x, 1) is x exactly
	}
	return math.Pow(norm, s.p)
}
