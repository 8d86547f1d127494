package sketch

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1}, 2},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// median must not mutate its input.
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("median mutated its input")
	}
}

func TestAxpyFloat(t *testing.T) {
	y := []float64{1, 2}
	AxpyFloat(y, 3, []float64{10, -1})
	if y[0] != 31 || y[1] != -1 {
		t.Fatalf("AxpyFloat = %v", y)
	}
}

func l2pow(x []int64) float64 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return s
}

func lppow(x []int64, p float64) float64 {
	var s float64
	for _, v := range x {
		if v != 0 {
			s += math.Pow(math.Abs(float64(v)), p)
		}
	}
	return s
}

func TestAMSAccuracy(t *testing.T) {
	r := rng.New(100)
	n := 500
	x := make([]int64, n)
	for i := range x {
		x[i] = r.Int63n(21) - 10
	}
	truth := l2pow(x)
	s := NewAMS(r.Derive("ams"), n, 9, 64)
	est := s.EstimatePow(s.Apply(x))
	if rel := math.Abs(est-truth) / truth; rel > 0.25 {
		t.Fatalf("AMS estimate %v vs truth %v (rel err %.3f)", est, truth, rel)
	}
}

func TestAMSLinearity(t *testing.T) {
	r := rng.New(101)
	n := 100
	s := NewAMS(r, n, 3, 8)
	x := make([]int64, n)
	y := make([]int64, n)
	z := make([]int64, n)
	rr := rng.New(55)
	for i := range x {
		x[i] = rr.Int63n(9) - 4
		y[i] = rr.Int63n(9) - 4
		z[i] = x[i] + 3*y[i]
	}
	sx, sy, sz := s.Apply(x), s.Apply(y), s.Apply(z)
	combined := make([]float64, len(sx))
	copy(combined, sx)
	AxpyFloat(combined, 3, sy)
	for i := range sz {
		if math.Abs(combined[i]-sz[i]) > 1e-9 {
			t.Fatalf("AMS not linear at %d: %v vs %v", i, combined[i], sz[i])
		}
	}
}

func TestAMSZeroVector(t *testing.T) {
	r := rng.New(102)
	s := NewAMS(r, 10, 3, 4)
	if est := s.EstimatePow(s.Apply(make([]int64, 10))); est != 0 {
		t.Fatalf("AMS estimate of zero vector = %v", est)
	}
}

func TestAMSSharedSeedAgreement(t *testing.T) {
	// Alice and Bob build the sketch from the same derived stream and
	// must agree exactly.
	x := []int64{1, -2, 3, 0, 5}
	a := NewAMS(rng.New(7).Derive("s"), 5, 2, 4)
	b := NewAMS(rng.New(7).Derive("s"), 5, 2, 4)
	sa, sb := a.Apply(x), b.Apply(x)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatal("shared-seed AMS sketches differ")
		}
	}
}

func TestStableAccuracy(t *testing.T) {
	r := rng.New(103)
	n := 400
	x := make([]int64, n)
	for i := range x {
		x[i] = r.Int63n(15) - 7
	}
	for _, p := range []float64{0.5, 1, 1.5} {
		truth := lppow(x, p)
		s := NewStable(r.Derive("stable", "p"), n, p, 401)
		est := s.EstimatePow(s.Apply(x))
		if rel := math.Abs(est-truth) / truth; rel > 0.35 {
			t.Errorf("p=%v: estimate %v vs truth %v (rel err %.3f)", p, est, truth, rel)
		}
	}
}

// TestEstimatePowInPlaceMatches: the scratch-consuming estimator the
// serving path uses returns, bit for bit, what the allocating one did —
// for Stable the formula spelled out, math.Pow(median|y| / scale, p),
// which pins the p = 1 shortcut past math.Pow; for AMS EstimatePow, which
// keeps its group means out of y.
func TestEstimatePowInPlaceMatches(t *testing.T) {
	r := rng.New(105)
	const n = 60
	sketches := []FloatSketch{
		NewStable(r.Derive("s1"), n, 1, 33),
		NewStable(r.Derive("s05"), n, 0.5, 33),
		NewStable(r.Derive("even"), n, 1.5, 8),
		NewAMS(r.Derive("ams"), n, 5, 7),
	}
	for trial := 0; trial < 20; trial++ {
		x := make([]int64, n)
		for i := range x {
			if trial > 0 && r.Bernoulli(0.5) { // trial 0: the zero vector
				x[i] = r.Int63n(21) - 10
			}
		}
		for _, s := range sketches {
			y := s.Apply(x)
			want := s.EstimatePow(y)
			if st, ok := s.(*Stable); ok {
				abs := make([]float64, len(y))
				for i, v := range y {
					abs[i] = math.Abs(v)
				}
				want = math.Pow(median(abs)/st.scale, st.p)
				if got := st.EstimatePow(y); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("p=%v trial %d: EstimatePow %v, formula %v", s.P(), trial, got, want)
				}
			}
			if got := s.EstimatePowInPlace(y); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("p=%v trial %d: in-place %v, want %v", s.P(), trial, got, want)
			}
		}
	}
}

func TestStableLinearity(t *testing.T) {
	r := rng.New(104)
	n := 50
	s := NewStable(r, n, 1, 21)
	x := make([]int64, n)
	y := make([]int64, n)
	rr := rng.New(56)
	for i := range x {
		x[i] = rr.Int63n(9) - 4
		y[i] = rr.Int63n(9) - 4
	}
	z := make([]int64, n)
	for i := range z {
		z[i] = 2*x[i] - y[i]
	}
	sx, sy, sz := s.Apply(x), s.Apply(y), s.Apply(z)
	combined := make([]float64, len(sx))
	AxpyFloat(combined, 2, sx)
	AxpyFloat(combined, -1, sy)
	for i := range sz {
		if math.Abs(combined[i]-sz[i]) > 1e-6 {
			t.Fatalf("Stable not linear at %d", i)
		}
	}
}

func TestStableRejectsBadP(t *testing.T) {
	for _, p := range []float64{0, 2, -1, 2.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewStable(p=%v) did not panic", p)
				}
			}()
			NewStable(rng.New(1), 10, p, 5)
		}()
	}
}

func TestStableMedianCalibrationCauchy(t *testing.T) {
	// The Cauchy |X| median is exactly 1.
	if m := stableMedian(1); math.Abs(m-1) > 0.01 {
		t.Fatalf("calibrated Cauchy median %v, want ~1", m)
	}
	// Cache must return the identical value.
	if m1, m2 := stableMedian(1.5), stableMedian(1.5); m1 != m2 {
		t.Fatal("stableMedian cache not stable")
	}
}
