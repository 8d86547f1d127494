package bitmat

import (
	"math/bits"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func quickMatrix(seed uint64, rows, cols int) *Matrix {
	r := rng.New(seed)
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Bernoulli(0.35) {
				m.Set(i, j, true)
			}
		}
	}
	return m
}

func TestQuickTransposeProduct(t *testing.T) {
	// (A·B)ᵀ entries equal Bᵀ·Aᵀ entries.
	f := func(s1, s2 uint64) bool {
		a := quickMatrix(s1, 7, 9)
		b := quickMatrix(s2, 9, 6)
		c := a.Mul(b)
		ct := b.Transpose().Mul(a.Transpose())
		for i := 0; i < c.Rows(); i++ {
			for j := 0; j < c.Cols(); j++ {
				if c.Get(i, j) != ct.Get(j, i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestQuickProductEntryIsIntersection(t *testing.T) {
	// (A·B)[i][j] = |RowSupport_A(i) ∩ ColSupport-as-row_B(j)| — the
	// join interpretation underlying the whole paper.
	f := func(s1, s2 uint64) bool {
		a := quickMatrix(s1, 6, 10)
		b := quickMatrix(s2, 10, 6)
		c := a.Mul(b)
		bt := b.Transpose()
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				common := 0
				for w, x := range a.Row(i) {
					common += bits.OnesCount64(x & bt.Row(j)[w])
				}
				if int(c.Get(i, j)) != common {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestQuickSupportsConsistent(t *testing.T) {
	// RowSupport/ColSupport agree with Get, and weights with support
	// sizes.
	f := func(seed uint64) bool {
		m := quickMatrix(seed, 8, 70)
		for i := 0; i < 8; i++ {
			sup := m.RowSupport(i)
			if len(sup) != m.RowWeight(i) {
				return false
			}
			for _, j := range sup {
				if !m.Get(i, j) {
					return false
				}
			}
		}
		for j := 0; j < 70; j += 7 {
			if len(m.ColSupport(j)) != m.ColWeight(j) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickToIntPreservesProduct(t *testing.T) {
	// Converting to integer matrices and multiplying there matches the
	// popcount product.
	f := func(s1, s2 uint64) bool {
		a := quickMatrix(s1, 5, 8)
		b := quickMatrix(s2, 8, 5)
		return a.ToInt().Mul(b.ToInt()).Equal(a.Mul(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
