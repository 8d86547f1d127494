// Package bitmat implements dense bit-packed Boolean matrices.
//
// In the paper's database interpretation, row i of Alice's matrix A is the
// indicator vector of a set Ai ⊆ [n] and column j of Bob's matrix B is the
// indicator vector of a set Bj; the integer product (A·B)[i][j] = |Ai ∩ Bj|
// is then the intersection size. The bit-packed layout makes these
// intersection counts a handful of POPCNT instructions per word, which is
// what lets the benchmark harness sweep matrix sizes while computing exact
// ground truth.
//
// Matrices are rows × cols; each row is stored as ⌈cols/64⌉ uint64 words.
package bitmat

import (
	"fmt"
	"math/bits"

	"repro/internal/intmat"
)

// Matrix is a dense bit-packed Boolean matrix.
type Matrix struct {
	rows, cols int
	wordsPer   int
	words      []uint64
}

// New returns an all-zero rows × cols Boolean matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("bitmat: negative dimension")
	}
	wp := (cols + 63) / 64
	return &Matrix{rows: rows, cols: cols, wordsPer: wp, words: make([]uint64, rows*wp)}
}

// FromSparse sets the bit rows of a 0/1 matrix from its non-zero lists:
// bit (i, j) is set for every entry s stores, whatever its value.
func FromSparse(s *intmat.Sparse) *Matrix {
	m := New(s.Rows(), s.Cols())
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		cols, _ := s.Row(i)
		for _, j := range cols {
			row[j/64] |= 1 << uint(j%64)
		}
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Set sets entry (i, j) to v.
func (m *Matrix) Set(i, j int, v bool) {
	m.check(i, j)
	w := &m.words[i*m.wordsPer+j/64]
	mask := uint64(1) << uint(j%64)
	if v {
		*w |= mask
	} else {
		*w &^= mask
	}
}

// Get returns entry (i, j).
func (m *Matrix) Get(i, j int) bool {
	m.check(i, j)
	return m.words[i*m.wordsPer+j/64]&(1<<uint(j%64)) != 0
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("bitmat: index (%d,%d) out of %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns the packed words of row i. The returned slice aliases the
// matrix; callers must not modify it.
func (m *Matrix) Row(i int) []uint64 {
	if i < 0 || i >= m.rows {
		panic("bitmat: row out of range")
	}
	return m.words[i*m.wordsPer : (i+1)*m.wordsPer]
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.words, m.words)
	return c
}

// RowWeight returns the popcount of row i (the set size |Ai|).
func (m *Matrix) RowWeight(i int) int {
	w := 0
	for _, word := range m.Row(i) {
		w += bits.OnesCount64(word)
	}
	return w
}

// ColWeight returns the popcount of column j.
func (m *Matrix) ColWeight(j int) int {
	w := 0
	mask := uint64(1) << uint(j%64)
	off := j / 64
	for i := 0; i < m.rows; i++ {
		if m.words[i*m.wordsPer+off]&mask != 0 {
			w++
		}
	}
	return w
}

// Weight returns the total number of 1-entries (‖A‖1 for a binary matrix).
func (m *Matrix) Weight() int {
	w := 0
	for _, word := range m.words {
		w += bits.OnesCount64(word)
	}
	return w
}

// RowSupport returns the column indices of the 1-entries in row i.
func (m *Matrix) RowSupport(i int) []int {
	var out []int
	row := m.Row(i)
	for wi, word := range row {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			out = append(out, wi*64+b)
			word &= word - 1
		}
	}
	return out
}

// ColSupport returns the row indices i with entry (i, j) set.
func (m *Matrix) ColSupport(j int) []int {
	var out []int
	mask := uint64(1) << uint(j%64)
	off := j / 64
	for i := 0; i < m.rows; i++ {
		if m.words[i*m.wordsPer+off]&mask != 0 {
			out = append(out, i)
		}
	}
	return out
}

// Transpose returns the transpose matrix.
func (m *Matrix) Transpose() *Matrix {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for wi, word := range row {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				t.Set(wi*64+b, i, true)
				word &= word - 1
			}
		}
	}
	return t
}

// Mul computes the integer matrix product A·B over Z, where A is the
// receiver (rows×k) and B is k×cols. It is the exact ground truth the
// protocols are measured against. The implementation walks B's transpose
// so each product entry is a word-parallel popcount.
func (m *Matrix) Mul(b *Matrix) *intmat.Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("bitmat: Mul dimension mismatch %dx%d · %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	bt := b.Transpose()
	out := intmat.NewDense(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		ri := m.Row(i)
		for j := 0; j < b.cols; j++ {
			rj := bt.Row(j)
			c := 0
			for w := range ri {
				c += bits.OnesCount64(ri[w] & rj[w])
			}
			if c != 0 {
				out.Set(i, j, int64(c))
			}
		}
	}
	return out
}

// MulVecInt multiplies the matrix by an integer vector: y = A·x, with x of
// length Cols(). Used by sketch-side computations of the form S·Bᵀ·Aᵀ.
func (m *Matrix) MulVecInt(x []int64) []int64 {
	if len(x) != m.cols {
		panic("bitmat: MulVecInt length mismatch")
	}
	y := make([]int64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		var s int64
		for wi, word := range row {
			base := wi * 64
			for word != 0 {
				b := bits.TrailingZeros64(word)
				s += x[base+b]
				word &= word - 1
			}
		}
		y[i] = s
	}
	return y
}

// ToInt converts to a dense integer matrix with 0/1 entries.
func (m *Matrix) ToInt() *intmat.Dense {
	d := intmat.NewDense(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for _, j := range m.RowSupport(i) {
			d.Set(i, j, 1)
		}
	}
	return d
}

// Equal reports whether two matrices have identical dimensions and entries.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i, w := range m.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	if m.rows*m.cols > 64*64 {
		return fmt.Sprintf("bitmat.Matrix(%dx%d, weight=%d)", m.rows, m.cols, m.Weight())
	}
	out := make([]byte, 0, m.rows*(m.cols+1))
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if m.Get(i, j) {
				out = append(out, '1')
			} else {
				out = append(out, '0')
			}
		}
		out = append(out, '\n')
	}
	return string(out)
}
