package bitmat

import (
	"testing"
	"testing/quick"

	"repro/internal/intmat"
	"repro/internal/rng"
)

func random(t *testing.T, r *rng.RNG, rows, cols int, density float64) *Matrix {
	t.Helper()
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Bernoulli(density) {
				m.Set(i, j, true)
			}
		}
	}
	return m
}

func TestSetGet(t *testing.T) {
	m := New(5, 130) // spans three words per row
	m.Set(0, 0, true)
	m.Set(4, 129, true)
	m.Set(2, 64, true)
	if !m.Get(0, 0) || !m.Get(4, 129) || !m.Get(2, 64) {
		t.Fatal("set bits not readable")
	}
	if m.Get(0, 1) || m.Get(3, 129) {
		t.Fatal("unset bits read as set")
	}
	m.Set(2, 64, false)
	if m.Get(2, 64) {
		t.Fatal("clear did not clear")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(3, 3)
	for _, fn := range []func(){
		func() { m.Get(3, 0) },
		func() { m.Get(0, 3) },
		func() { m.Set(-1, 0, true) },
		func() { m.Row(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on out-of-range access")
				}
			}()
			fn()
		}()
	}
}

func TestWeights(t *testing.T) {
	m := New(4, 70)
	m.Set(0, 0, true)
	m.Set(0, 69, true)
	m.Set(1, 69, true)
	m.Set(3, 5, true)
	if got := m.Weight(); got != 4 {
		t.Errorf("Weight = %d, want 4", got)
	}
	if got := m.RowWeight(0); got != 2 {
		t.Errorf("RowWeight(0) = %d, want 2", got)
	}
	if got := m.ColWeight(69); got != 2 {
		t.Errorf("ColWeight(69) = %d, want 2", got)
	}
	if got := m.ColWeight(1); got != 0 {
		t.Errorf("ColWeight(1) = %d, want 0", got)
	}
}

func TestSupports(t *testing.T) {
	m := New(3, 100)
	m.Set(1, 3, true)
	m.Set(1, 64, true)
	m.Set(1, 99, true)
	m.Set(0, 64, true)
	sup := m.RowSupport(1)
	want := []int{3, 64, 99}
	if len(sup) != len(want) {
		t.Fatalf("RowSupport = %v, want %v", sup, want)
	}
	for i := range want {
		if sup[i] != want[i] {
			t.Fatalf("RowSupport = %v, want %v", sup, want)
		}
	}
	col := m.ColSupport(64)
	if len(col) != 2 || col[0] != 0 || col[1] != 1 {
		t.Fatalf("ColSupport(64) = %v, want [0 1]", col)
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := rng.New(10)
	m := random(t, r, 33, 70, 0.3)
	tt := m.Transpose().Transpose()
	if !m.Equal(tt) {
		t.Fatal("transpose twice != identity")
	}
	tr := m.Transpose()
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if m.Get(i, j) != tr.Get(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulMatchesNaive(t *testing.T) {
	r := rng.New(11)
	a := random(t, r, 17, 40, 0.25)
	b := random(t, r, 40, 23, 0.25)
	c := a.Mul(b)
	for i := 0; i < 17; i++ {
		for j := 0; j < 23; j++ {
			want := int64(0)
			for k := 0; k < 40; k++ {
				if a.Get(i, k) && b.Get(k, j) {
					want++
				}
			}
			if got := c.Get(i, j); got != want {
				t.Fatalf("C[%d][%d] = %d, want %d", i, j, got, want)
			}
		}
	}
}

func TestMulDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(3, 4).Mul(New(5, 3))
}

func TestMulVecInt(t *testing.T) {
	m := New(3, 5)
	m.Set(0, 1, true)
	m.Set(0, 3, true)
	m.Set(2, 0, true)
	x := []int64{10, 20, 30, 40, 50}
	y := m.MulVecInt(x)
	if y[0] != 60 || y[1] != 0 || y[2] != 10 {
		t.Fatalf("MulVecInt = %v, want [60 0 10]", y)
	}
}

func TestToIntRoundTrip(t *testing.T) {
	r := rng.New(12)
	m := random(t, r, 9, 9, 0.5)
	d := m.ToInt()
	for i := 0; i < 9; i++ {
		for j := 0; j < 9; j++ {
			want := int64(0)
			if m.Get(i, j) {
				want = 1
			}
			if d.Get(i, j) != want {
				t.Fatalf("ToInt mismatch at (%d,%d)", i, j)
			}
		}
	}
}

// TestFromSparse: the bit rows set from a 0/1 matrix's non-zero lists are
// the matrix, across a word boundary and with empty rows.
func TestFromSparse(t *testing.T) {
	r := rng.New(13)
	for _, shape := range [][2]int{{9, 9}, {5, 130}, {3, 64}} {
		m := random(t, r, shape[0], shape[1], 0.3)
		for j := 0; j < shape[1]; j++ {
			m.Set(1, j, false)
		}
		if got := FromSparse(intmat.FromDense(m.ToInt())); !got.Equal(m) {
			t.Fatalf("%dx%d: FromSparse differs from the matrix listed", shape[0], shape[1])
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 0, true)
	c := m.Clone()
	c.Set(1, 1, true)
	if m.Get(1, 1) {
		t.Fatal("clone shares storage with original")
	}
	if !c.Get(0, 0) {
		t.Fatal("clone lost original bits")
	}
}

func TestWeightDecomposition(t *testing.T) {
	// Property: total weight equals the sum of row weights and the sum of
	// column weights.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m := New(12, 37)
		for i := 0; i < 12; i++ {
			for j := 0; j < 37; j++ {
				if r.Bernoulli(0.4) {
					m.Set(i, j, true)
				}
			}
		}
		rowSum, colSum := 0, 0
		for i := 0; i < 12; i++ {
			rowSum += m.RowWeight(i)
		}
		for j := 0; j < 37; j++ {
			colSum += m.ColWeight(j)
		}
		return rowSum == m.Weight() && colSum == m.Weight()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestL1ProductIdentity(t *testing.T) {
	// Remark 2's identity: ‖AB‖1 = Σ_k ColWeight_A(k) · RowWeight_B(k)
	// for Boolean matrices.
	r := rng.New(13)
	a := random(t, r, 20, 30, 0.2)
	b := random(t, r, 30, 25, 0.2)
	c := a.Mul(b)
	var viaCounts int64
	for k := 0; k < 30; k++ {
		viaCounts += int64(a.ColWeight(k)) * int64(b.RowWeight(k))
	}
	if got := c.L1(); got != viaCounts {
		t.Fatalf("‖AB‖1 = %d, column/row identity gives %d", got, viaCounts)
	}
}

func BenchmarkMul256(b *testing.B) {
	r := rng.New(1)
	m1 := New(256, 256)
	m2 := New(256, 256)
	for i := 0; i < 256; i++ {
		for j := 0; j < 256; j++ {
			if r.Bernoulli(0.1) {
				m1.Set(i, j, true)
			}
			if r.Bernoulli(0.1) {
				m2.Set(i, j, true)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m1.Mul(m2)
	}
}
