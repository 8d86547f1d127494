package core

import (
	"math"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/intmat"
	"repro/internal/rng"
)

// randomBinary generates a random Boolean matrix with the given density.
func randomBinary(seed uint64, rows, cols int, density float64) *bitmat.Matrix {
	r := rng.New(seed)
	m := bitmat.New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Bernoulli(density) {
				m.Set(i, j, true)
			}
		}
	}
	return m
}

// randomInt generates a random integer matrix with entries in
// [-maxAbs, maxAbs] (or [1, maxAbs] when nonneg) at the given density.
func randomInt(seed uint64, rows, cols int, density float64, maxAbs int64, nonneg bool) *intmat.Dense {
	r := rng.New(seed)
	m := intmat.NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if !r.Bernoulli(density) {
				continue
			}
			if nonneg {
				m.Set(i, j, 1+r.Int63n(maxAbs))
			} else {
				v := r.Int63n(2*maxAbs+1) - maxAbs
				if v == 0 {
					v = 1
				}
				m.Set(i, j, v)
			}
		}
	}
	return m
}

func relErr(est, truth float64) float64 {
	if truth == 0 {
		return math.Abs(est)
	}
	return math.Abs(est-truth) / truth
}

func TestMedianHelper(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median = %v", got)
	}
	if got := median([]float64{4, 1}); got != 2.5 {
		t.Fatalf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Fatalf("empty median = %v", got)
	}
}

func TestRowLpPow(t *testing.T) {
	y := []int64{0, 3, -4, 0}
	if got := rowLpPow(y, 0); got != 2 {
		t.Fatalf("p=0: %v", got)
	}
	if got := rowLpPow(y, 1); got != 7 {
		t.Fatalf("p=1: %v", got)
	}
	if got := rowLpPow(y, 2); got != 25 {
		t.Fatalf("p=2: %v", got)
	}
}

func TestMulRowSparse(t *testing.T) {
	b := intmat.NewDense(3, 2)
	b.Set(0, 0, 2)
	b.Set(2, 1, -3)
	y := make([]int64, 2)
	if got := lpPow(intmat.FromDense(b), y, []int32{0, 2}, []int64{5, 1}, 1); got != 13 || y[0] != 10 || y[1] != -3 {
		t.Fatalf("(5,·,1)·B = %v with ℓ1 %v, want [10 -3] and 13", y, got)
	}
}

func TestExactStatsOf(t *testing.T) {
	c := intmat.NewDense(2, 2)
	c.Set(0, 1, -7)
	c.Set(1, 0, 3)
	st := exactStatsOf(c)
	if st.L0 != 2 || st.L1 != 10 || st.Linf != 7 || st.ArgMax != (Pair{I: 0, J: 1}) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNaiveBinaryMatchesDirect(t *testing.T) {
	a := randomBinary(1, 40, 50, 0.2)
	b := randomBinary(2, 50, 30, 0.2)
	st, cost, err := NaiveBinary(a, b)
	if err != nil {
		t.Fatal(err)
	}
	c := a.Mul(b)
	want := exactStatsOf(c)
	if st.L0 != want.L0 || st.L1 != want.L1 || st.Linf != want.Linf {
		t.Fatalf("naive stats %+v, want %+v", st, want)
	}
	if cost.Rounds != 1 {
		t.Fatalf("naive rounds = %d", cost.Rounds)
	}
	// Bitmap shipping: at least rows·cols bits.
	if cost.Bits < int64(40*50) {
		t.Fatalf("naive bits %d below matrix size", cost.Bits)
	}
}

func TestNaiveIntMatchesDirect(t *testing.T) {
	a := randomInt(3, 30, 40, 0.3, 5, false)
	b := randomInt(4, 40, 20, 0.3, 5, false)
	st, cost, err := NaiveInt(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := exactStatsOf(a.Mul(b))
	if st.L0 != want.L0 || st.L1 != want.L1 || st.Linf != want.Linf {
		t.Fatalf("naive stats %+v, want %+v", st, want)
	}
	if cost.Rounds != 1 {
		t.Fatalf("rounds = %d", cost.Rounds)
	}
}

func TestDimensionMismatchErrors(t *testing.T) {
	a := intmat.NewDense(3, 4)
	b := intmat.NewDense(5, 3)
	if _, _, err := EstimateLp(a, b, 1, LpOpts{Eps: 0.5}); err != ErrDimensionMismatch {
		t.Errorf("EstimateLp: %v", err)
	}
	if _, _, err := ExactL1(a, b); err != ErrDimensionMismatch {
		t.Errorf("ExactL1: %v", err)
	}
	if _, _, _, err := SampleL0(a, b, L0SampleOpts{Eps: 0.5}); err != ErrDimensionMismatch {
		t.Errorf("SampleL0: %v", err)
	}
	ab := bitmat.New(3, 4)
	bb := bitmat.New(5, 3)
	if _, _, _, err := EstimateLinfBinary(ab, bb, LinfOpts{Eps: 0.5}); err != ErrDimensionMismatch {
		t.Errorf("EstimateLinfBinary: %v", err)
	}
	if _, _, err := NaiveInt(a, b); err != ErrDimensionMismatch {
		t.Errorf("NaiveInt: %v", err)
	}
}

func TestParameterValidation(t *testing.T) {
	a := intmat.NewDense(4, 4)
	b := intmat.NewDense(4, 4)
	if _, _, err := EstimateLp(a, b, 3, LpOpts{Eps: 0.5}); err != ErrBadP {
		t.Errorf("p=3: %v", err)
	}
	if _, _, err := EstimateLp(a, b, 1, LpOpts{Eps: 0}); err != ErrBadEps {
		t.Errorf("eps=0: %v", err)
	}
	if _, _, err := EstimateLp(a, b, 1, LpOpts{Eps: 2}); err != ErrBadEps {
		t.Errorf("eps=2: %v", err)
	}
	ab := bitmat.New(4, 4)
	bb := bitmat.New(4, 4)
	if _, _, _, err := EstimateLinfKappa(ab, bb, LinfKappaOpts{Kappa: 0.5}); err != ErrBadKappa {
		t.Errorf("kappa: %v", err)
	}
	if _, _, err := HeavyHitters(a, b, HHOpts{Phi: 0.1, Eps: 0.5}); err != ErrBadPhi {
		t.Errorf("phi<eps: %v", err)
	}
}
