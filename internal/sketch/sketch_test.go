package sketch

import (
	"math"
	"sync"
	"testing"

	"repro/internal/rng"
)

// median returns the median of v (averaging the middle pair for even
// lengths). It copies the input.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	return medianInPlace(s)
}

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

// axpy accumulates y += a·x: the linearity tests' combination of float
// sketches.
func axpy(y []float64, a float64, x []float64) {
	for i := range x {
		y[i] += a * x[i]
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
	axpy(combined, 3, sy)
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
	axpy(combined, 2, sx)
	axpy(combined, -1, sy)
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

// stableMedianPins are the calibrated medians as the general path — all
// 400 001 draws evaluated, then the median selected — computes them at
// every p. They scale every Stable estimate, so no change to the
// calibration may move a bit.
var stableMedianPins = map[float64]uint64{
	0.5: 0x3ff493c8606045e7, // 1.2860797657671073
	1:   0x3ff005e5b549a352, // 1.0014397698925745
	1.5: 0x3fef025436d8f657, // 0.9690342971077354
}

// TestStableMedianPinned: the calibration — one tangent of the median
// angle at p = 1, the general transform elsewhere — returns the pinned
// bit patterns, on a fresh calibration and from the cache.
func TestStableMedianPinned(t *testing.T) {
	for p, want := range stableMedianPins {
		if got := calibrateStableMedian(p); math.Float64bits(got) != want {
			t.Errorf("p %g: calibrated %v (%#016x), pinned %v", p, got, math.Float64bits(got), math.Float64frombits(want))
		}
		if got := stableMedian(p); math.Float64bits(got) != want {
			t.Errorf("p %g: cached %v, pinned %v", p, got, math.Float64frombits(want))
		}
	}
}

// TestStableMedianConcurrent: first calls at several p at once each get
// their p's calibration (run under -race, this is the data-race check
// on the cache).
func TestStableMedianConcurrent(t *testing.T) {
	stableMedians.Clear()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		for p, want := range stableMedianPins {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := stableMedian(p); math.Float64bits(got) != want {
					t.Errorf("p %g: %v, pinned %v", p, got, math.Float64frombits(want))
				}
			}()
		}
	}
	wg.Wait()
}

// rowMajorApply is a Stable sketch the way S was first held, a row of n
// variates per word drawn in stream order: word i is Σ_j S[i][j]·x_j over
// the non-zeros in ascending j.
func rowMajorApply(r *rng.RNG, p float64, rows int, x []int64) []float64 {
	s := make([][]float64, rows)
	for i := range s {
		s[i] = make([]float64, len(x))
		for j := range s[i] {
			s[i][j] = r.Stable(p)
		}
	}
	y := make([]float64, rows)
	for j, v := range x {
		if v != 0 {
			for i := range y {
				y[i] += s[i][j] * float64(v)
			}
		}
	}
	return y
}

// TestStableMatchesRowMajor: the column-major family sketches every
// vector bit-equal to a row-major S drawn from the same stream, through
// Apply and through AddCoord over the non-zeros, at a width the 4-way
// unrolling covers whole and at two it leaves a word over (33 is lp's
// width at ε = 0.25).
func TestStableMatchesRowMajor(t *testing.T) {
	const n = 70
	r := rng.New(106)
	for _, p := range []float64{0.5, 1, 1.5} {
		for _, rows := range []int{8, 33, 101} {
			s := NewStable(rng.New(uint64(107+rows)), n, p, rows)
			for trial := 0; trial < 5; trial++ {
				x := make([]int64, n)
				for j := range x {
					if r.Bernoulli(0.4) {
						x[j] = r.Int63n(2001) - 1000
					}
				}
				want := rowMajorApply(rng.New(uint64(107+rows)), p, rows, x)
				byCoord := make([]float64, rows)
				for j, v := range x {
					if v != 0 {
						s.AddCoord(byCoord, j, v)
					}
				}
				for name, got := range map[string][]float64{"Apply": s.Apply(x), "AddCoord": byCoord} {
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("p %g rows %d trial %d: %s word %d = %v, row-major %v", p, rows, trial, name, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}
