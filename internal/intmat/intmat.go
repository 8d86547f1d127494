// Package intmat implements integer matrices, both dense and sparse (CSR),
// together with the ℓp statistics the paper estimates.
//
// The paper's protocols target C = A·B with polynomially-bounded integer
// entries; int64 comfortably covers every workload in the benchmark
// harness (entries of A·B for n ≤ 4096 binary inputs are at most 4096, and
// general-matrix workloads keep |entry| ≤ 2^20).
package intmat

import (
	"fmt"
	"math"
	"sort"
)

// Dense is a dense row-major integer matrix.
type Dense struct {
	rows, cols int
	data       []int64
}

// NewDense returns an all-zero rows × cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic("intmat: negative dimension")
	}
	return &Dense{rows: rows, cols: cols, data: make([]int64, rows*cols)}
}

// Rows returns the number of rows.
func (d *Dense) Rows() int { return d.rows }

// Cols returns the number of columns.
func (d *Dense) Cols() int { return d.cols }

// Set assigns entry (i, j).
func (d *Dense) Set(i, j int, v int64) {
	d.check(i, j)
	d.data[i*d.cols+j] = v
}

// Add accumulates into entry (i, j).
func (d *Dense) Add(i, j int, v int64) {
	d.check(i, j)
	d.data[i*d.cols+j] += v
}

// Get returns entry (i, j).
func (d *Dense) Get(i, j int) int64 {
	d.check(i, j)
	return d.data[i*d.cols+j]
}

func (d *Dense) check(i, j int) {
	if i < 0 || i >= d.rows || j < 0 || j >= d.cols {
		panic(fmt.Sprintf("intmat: index (%d,%d) out of %dx%d", i, j, d.rows, d.cols))
	}
}

// Row returns row i; the slice aliases the matrix.
func (d *Dense) Row(i int) []int64 {
	if i < 0 || i >= d.rows {
		panic("intmat: row out of range")
	}
	return d.data[i*d.cols : (i+1)*d.cols]
}

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	return &Dense{rows: d.rows, cols: d.cols, data: append([]int64(nil), d.data...)}
}

// AddMatrix accumulates o into d entrywise (d += o).
func (d *Dense) AddMatrix(o *Dense) {
	if d.rows != o.rows || d.cols != o.cols {
		panic("intmat: AddMatrix dimension mismatch")
	}
	for i := range d.data {
		d.data[i] += o.data[i]
	}
}

// Equal reports whether both matrices have the same shape and entries.
func (d *Dense) Equal(o *Dense) bool {
	if d.rows != o.rows || d.cols != o.cols {
		return false
	}
	for i := range d.data {
		if d.data[i] != o.data[i] {
			return false
		}
	}
	return true
}

// Mul returns the integer product d·o.
func (d *Dense) Mul(o *Dense) *Dense {
	if d.cols != o.rows {
		panic("intmat: Mul dimension mismatch")
	}
	out := NewDense(d.rows, o.cols)
	for i := 0; i < d.rows; i++ {
		ri := d.Row(i)
		oi := out.Row(i)
		for k, a := range ri {
			if a == 0 {
				continue
			}
			rk := o.Row(k)
			for j, b := range rk {
				if b != 0 {
					oi[j] += a * b
				}
			}
		}
	}
	return out
}

// L0 returns the number of non-zero entries.
func (d *Dense) L0() int {
	c := 0
	for _, v := range d.data {
		if v != 0 {
			c++
		}
	}
	return c
}

// L1 returns the entrywise 1-norm Σ|Cij|.
func (d *Dense) L1() int64 {
	var s int64
	for _, v := range d.data {
		if v < 0 {
			s -= v
		} else {
			s += v
		}
	}
	return s
}

// Linf returns max |Cij| together with one entry position achieving it.
func (d *Dense) Linf() (max int64, argI, argJ int) {
	for i := 0; i < d.rows; i++ {
		for j := 0; j < d.cols; j++ {
			v := d.data[i*d.cols+j]
			if v < 0 {
				v = -v
			}
			if v > max {
				max, argI, argJ = v, i, j
			}
		}
	}
	return max, argI, argJ
}

// Lp returns the p-th power of the entrywise ℓp norm, Σ|Cij|^p, with the
// paper's convention that p = 0 counts non-zero entries (0^0 = 0).
func (d *Dense) Lp(p float64) float64 {
	if p == 0 {
		return float64(d.L0())
	}
	var s float64
	for _, v := range d.data {
		if v == 0 {
			continue
		}
		s += math.Pow(math.Abs(float64(v)), p)
	}
	return s
}

// RowLp returns Σ_j |Cij|^p for row i (p = 0 counts non-zeros).
func (d *Dense) RowLp(i int, p float64) float64 {
	row := d.Row(i)
	if p == 0 {
		c := 0.0
		for _, v := range row {
			if v != 0 {
				c++
			}
		}
		return c
	}
	var s float64
	for _, v := range row {
		if v != 0 {
			s += math.Pow(math.Abs(float64(v)), p)
		}
	}
	return s
}

// ColLp returns Σ_i |Cij|^p for column j.
func (d *Dense) ColLp(j int, p float64) float64 {
	if p == 0 {
		c := 0.0
		for i := 0; i < d.rows; i++ {
			if d.Get(i, j) != 0 {
				c++
			}
		}
		return c
	}
	var s float64
	for i := 0; i < d.rows; i++ {
		if v := d.Get(i, j); v != 0 {
			s += math.Pow(math.Abs(float64(v)), p)
		}
	}
	return s
}

// Entry is one non-zero matrix entry.
type Entry struct {
	I, J int
	V    int64
}

// NonZeros returns all non-zero entries in row-major order.
func (d *Dense) NonZeros() []Entry {
	var out []Entry
	for i := 0; i < d.rows; i++ {
		base := i * d.cols
		for j := 0; j < d.cols; j++ {
			if v := d.data[base+j]; v != 0 {
				out = append(out, Entry{I: i, J: j, V: v})
			}
		}
	}
	return out
}

// Sparse is a CSR-format sparse integer matrix. It is the interchange
// format for protocol messages that carry sampled or partial matrices.
type Sparse struct {
	rows, cols int
	rowPtr     []int32
	colIdx     []int32
	vals       []int64
}

// NewSparse builds a CSR matrix from entries. Duplicate (i, j) pairs are
// summed. Entries that sum to zero are dropped.
func NewSparse(rows, cols int, entries []Entry) *Sparse {
	for _, e := range entries {
		if e.I < 0 || e.I >= rows || e.J < 0 || e.J >= cols {
			panic(fmt.Sprintf("intmat: sparse entry (%d,%d) out of %dx%d", e.I, e.J, rows, cols))
		}
	}
	sorted := append([]Entry(nil), entries...)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].I != sorted[b].I {
			return sorted[a].I < sorted[b].I
		}
		return sorted[a].J < sorted[b].J
	})
	s := &Sparse{rows: rows, cols: cols, rowPtr: make([]int32, rows+1)}
	for k := 0; k < len(sorted); {
		i, j := sorted[k].I, sorted[k].J
		var v int64
		for k < len(sorted) && sorted[k].I == i && sorted[k].J == j {
			v += sorted[k].V
			k++
		}
		if v != 0 {
			s.colIdx = append(s.colIdx, int32(j))
			s.vals = append(s.vals, v)
			s.rowPtr[i+1] = int32(len(s.vals))
		}
	}
	// Fill gaps: rowPtr must be non-decreasing.
	for i := 1; i <= rows; i++ {
		if s.rowPtr[i] < s.rowPtr[i-1] {
			s.rowPtr[i] = s.rowPtr[i-1]
		}
	}
	return s
}

// Rows returns the number of rows.
func (s *Sparse) Rows() int { return s.rows }

// Cols returns the number of columns.
func (s *Sparse) Cols() int { return s.cols }

// NNZ returns the number of stored non-zero entries.
func (s *Sparse) NNZ() int { return len(s.vals) }

// Row returns the column indices and values of row i's stored entries,
// columns ascending; the slices alias the matrix.
func (s *Sparse) Row(i int) (cols []int32, vals []int64) {
	lo, hi := s.rowPtr[i], s.rowPtr[i+1]
	return s.colIdx[lo:hi], s.vals[lo:hi]
}

// RowEntries calls fn for every stored entry of row i.
func (s *Sparse) RowEntries(i int, fn func(j int, v int64)) {
	for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
		fn(int(s.colIdx[k]), s.vals[k])
	}
}

// Entries returns all stored entries in row-major order.
func (s *Sparse) Entries() []Entry {
	out := make([]Entry, 0, s.NNZ())
	for i := 0; i < s.rows; i++ {
		s.RowEntries(i, func(j int, v int64) {
			out = append(out, Entry{I: i, J: j, V: v})
		})
	}
	return out
}

// ToDense converts to a dense matrix.
func (s *Sparse) ToDense() *Dense {
	d := NewDense(s.rows, s.cols)
	for i := 0; i < s.rows; i++ {
		s.RowEntries(i, func(j int, v int64) {
			d.Set(i, j, v)
		})
	}
	return d
}

// FromDense converts a dense matrix to CSR.
func FromDense(d *Dense) *Sparse { return FromDenseFunc(d, nil) }

// FromDenseFunc converts to CSR the non-zero entries of d that keep
// accepts; keep sees each of them once, in row-major order. A nil keep
// accepts every entry.
func FromDenseFunc(d *Dense, keep func(i, j int, v int64) bool) *Sparse {
	s := &Sparse{rows: d.rows, cols: d.cols, rowPtr: make([]int32, d.rows+1)}
	for i := 0; i < d.rows; i++ {
		for j, v := range d.Row(i) {
			if v != 0 && (keep == nil || keep(i, j, v)) {
				s.colIdx = append(s.colIdx, int32(j))
				s.vals = append(s.vals, v)
			}
		}
		s.rowPtr[i+1] = int32(len(s.vals))
	}
	return s
}

// Transpose returns sᵀ: its row j lists column j of s, rows ascending.
func (s *Sparse) Transpose() *Sparse {
	t := &Sparse{
		rows: s.cols, cols: s.rows,
		rowPtr: make([]int32, s.cols+1),
		colIdx: make([]int32, len(s.colIdx)),
		vals:   make([]int64, len(s.vals)),
	}
	for _, j := range s.colIdx {
		t.rowPtr[j+1]++
	}
	for j := 0; j < s.cols; j++ {
		t.rowPtr[j+1] += t.rowPtr[j]
	}
	next := append([]int32(nil), t.rowPtr[:s.cols]...)
	for i := 0; i < s.rows; i++ {
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			at := next[s.colIdx[k]]
			next[s.colIdx[k]]++
			t.colIdx[at], t.vals[at] = int32(i), s.vals[k]
		}
	}
	return t
}

// Mul returns the integer product s·o as a dense matrix.
func (s *Sparse) Mul(o *Sparse) *Dense {
	if s.cols != o.rows {
		panic("intmat: sparse Mul dimension mismatch")
	}
	out := NewDense(s.rows, o.cols)
	for i := 0; i < s.rows; i++ {
		oi := out.Row(i)
		s.RowEntries(i, func(k int, a int64) {
			o.RowEntries(k, func(j int, b int64) {
				oi[j] += a * b
			})
		})
	}
	return out
}

// MulDense returns s·d for a dense right factor.
func (s *Sparse) MulDense(d *Dense) *Dense {
	if s.cols != d.Rows() {
		panic("intmat: MulDense dimension mismatch")
	}
	out := NewDense(s.rows, d.Cols())
	for i := 0; i < s.rows; i++ {
		oi := out.Row(i)
		s.RowEntries(i, func(k int, a int64) {
			rk := d.Row(k)
			for j, b := range rk {
				if b != 0 {
					oi[j] += a * b
				}
			}
		})
	}
	return out
}

// L1 returns Σ|entries|.
func (s *Sparse) L1() int64 {
	var sum int64
	for _, v := range s.vals {
		if v < 0 {
			sum -= v
		} else {
			sum += v
		}
	}
	return sum
}
