package sketch

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/field"
	"repro/internal/intmat"
	"repro/internal/rng"
)

// The protocols rely on exactly one algebraic property of every sketch:
// linearity over integer coefficient combinations. These property tests
// drive each sketch with random vectors and coefficients via
// testing/quick.

// boundedVec reshapes arbitrary quick-generated data into a bounded
// integer vector of length n.
func boundedVec(raw []int64, n int, maxAbs int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		if i < len(raw) {
			out[i] = raw[i]%(maxAbs+1) - maxAbs/2
		}
	}
	return out
}

func TestQuickAMSLinearity(t *testing.T) {
	const n = 48
	s := NewAMS(rng.New(500), n, 3, 8)
	f := func(rawX, rawY []int64, a8, b8 int8) bool {
		x := boundedVec(rawX, n, 20)
		y := boundedVec(rawY, n, 20)
		a, b := int64(a8), int64(b8)
		z := make([]int64, n)
		for i := range z {
			z[i] = a*x[i] + b*y[i]
		}
		combined := make([]float64, s.Dim())
		axpy(combined, float64(a), s.Apply(x))
		axpy(combined, float64(b), s.Apply(y))
		direct := s.Apply(z)
		for i := range direct {
			if math.Abs(combined[i]-direct[i]) > 1e-6*(1+math.Abs(direct[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickL0SketchLinearity(t *testing.T) {
	const n = 48
	s := NewL0(rng.New(501), n, 8)
	f := func(rawX, rawY []int64, a8, b8 int8) bool {
		x := boundedVec(rawX, n, 20)
		y := boundedVec(rawY, n, 20)
		a, b := int64(a8), int64(b8)
		z := make([]int64, n)
		for i := range z {
			z[i] = a*x[i] + b*y[i]
		}
		combined := make([]field.Elem, s.Dim())
		AxpyField(combined, a, s.Apply(x))
		AxpyField(combined, b, s.Apply(y))
		direct := s.Apply(z)
		for i := range direct {
			if combined[i] != direct[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickSamplerLinearity(t *testing.T) {
	const n = 32
	s := NewL0Sampler(rng.New(502), n, 2)
	f := func(rawX, rawY []int64, a8, b8 int8) bool {
		x := boundedVec(rawX, n, 10)
		y := boundedVec(rawY, n, 10)
		a, b := int64(a8), int64(b8)
		z := make([]int64, n)
		for i := range z {
			z[i] = a*x[i] + b*y[i]
		}
		combined := make([]field.Elem, s.Dim())
		AxpyField(combined, a, s.Apply(x))
		AxpyField(combined, b, s.Apply(y))
		direct := s.Apply(z)
		for i := range direct {
			if combined[i] != direct[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickOneSparseDecodeInvariant(t *testing.T) {
	// Property: for any single (index, value) with value ≠ 0, decode
	// returns exactly that pair.
	os := NewOneSparse(rng.New(504), 1000)
	f := func(ix uint16, val int32) bool {
		j := int(ix) % 1000
		v := int64(val)
		if v == 0 {
			v = 1
		}
		var st OneSparseState
		os.Add(&st, j, v)
		kind, gj, gv := os.Decode(st)
		return kind == 1 && gj == j && gv == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickTensorCSDistributivity(t *testing.T) {
	// Property: the distributed assembly (compress B, complete with A)
	// equals the direct sketch of A·B for random small matrices.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 12 + int(seed%5)
		a := randIntMat(r, n, n, 0.3)
		b := randIntMat(r, n, n, 0.3)
		c := a.Mul(b)
		ts := NewTensorCS(rng.New(seed+1), n, n, n, 8, 3)
		direct := ts.SketchDirect(c)
		dist := ts.SketchFromCompressed(a, ts.ColCompress(b))
		for i := range direct {
			if direct[i] != dist[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// randIntMat builds a random integer matrix for the distributivity
// property.
func randIntMat(r *rng.RNG, rows, cols int, density float64) *intmat.Dense {
	m := intmat.NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Bernoulli(density) {
				m.Set(i, j, r.Int63n(9)-4)
			}
		}
	}
	return m
}
