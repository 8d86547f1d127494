// Package intmat implements integer matrices, both dense and sparse (one
// non-zero list per row), together with the ℓp statistics the paper
// estimates.
//
// The paper's protocols target C = A·B with polynomially-bounded integer
// entries; int64 comfortably covers every workload in the benchmark
// harness (entries of A·B for n ≤ 4096 binary inputs are at most 4096, and
// general-matrix workloads keep |entry| ≤ 2^20).
package intmat

import (
	"fmt"
	"math"
	"slices"
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

// Matrix is a matrix that can list its non-zeros: what every Bob-side
// constructor and Alice driver of internal/core takes. A *Sparse answers
// with itself and its own slices, so a caller that holds the lists — the
// serving tiers — lends them; a *Dense is listed on the spot (FromDense,
// one pass over every cell), which is what the in-process reference
// functions and the benchmark harness pay for holding cells.
type Matrix interface {
	Rows() int
	Cols() int
	// List returns the non-zero lists of the whole matrix.
	List() *Sparse
	// ListRow returns the non-zeros of row k, columns ascending.
	ListRow(k int) (cols []int32, vals []int64)
}

// List lists the non-zeros of every row (FromDense).
func (d *Dense) List() *Sparse { return FromDense(d) }

// ListRow lists the non-zeros of row k.
func (d *Dense) ListRow(k int) (cols []int32, vals []int64) {
	return appendNonZeros(nil, nil, d.Row(k))
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

// Sparse is a sparse integer matrix held as one non-zero list per row:
// ascending column indices with their values, 12 bytes per non-zero (a
// dense row too wide for int32 would be 16 GiB on its own). It is the
// one non-zero form in the repository — what the serve kernels multiply
// against, what a Bob state retains of B, what a request's A is validated
// into (FromCells) and every Alice driver reads, and the interchange
// format for protocol messages that carry sampled or partial matrices.
//
// The lists of one build are cut from two shared backing arrays sized to
// the non-zeros (FromCells: to the cells it was given, explicit zeros
// included), so a matrix retains three allocations however many rows it
// has. A Sparse is immutable once built — the registry, every cached Bob
// state and the gateway's retained copy share one across goroutines on
// that contract; Patch derives the successor of a row update and shares
// every untouched row's list with it.
type Sparse struct {
	cols int
	nnz  int
	list []rowList // one per row
}

// rowList is the non-zero list of one row.
type rowList struct {
	cols []int32
	vals []int64
}

// rowListBytes is the fixed cost of one rowList (two slice headers).
const rowListBytes = 48

// cutRows builds the matrix whose row i is entries [ends[i-1], ends[i])
// of (cols, vals), each list capped so that no append through it can
// reach the next row's entries.
func cutRows(ncols int, ends []int32, cols []int32, vals []int64) *Sparse {
	s := &Sparse{cols: ncols, nnz: len(cols), list: make([]rowList, len(ends))}
	lo := int32(0)
	for i, hi := range ends {
		s.list[i] = rowList{cols: cols[lo:hi:hi], vals: vals[lo:hi:hi]}
		lo = hi
	}
	return s
}

// appendNonZeros appends the non-zeros of one dense row.
func appendNonZeros(cols []int32, vals []int64, row []int64) ([]int32, []int64) {
	for j, v := range row {
		if v != 0 {
			cols = append(cols, int32(j))
			vals = append(vals, v)
		}
	}
	return cols, vals
}

// NewSparse builds a sparse matrix from entries. Duplicate (i, j) pairs
// are summed. Entries that sum to zero are dropped.
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
	ends := make([]int32, rows)
	cs, vs := make([]int32, 0, len(sorted)), make([]int64, 0, len(sorted))
	k := 0
	for i := range ends {
		for k < len(sorted) && sorted[k].I == i {
			j := sorted[k].J
			var v int64
			for ; k < len(sorted) && sorted[k].I == i && sorted[k].J == j; k++ {
				v += sorted[k].V
			}
			if v != 0 {
				cs, vs = append(cs, int32(j)), append(vs, v)
			}
		}
		ends[i] = int32(len(cs))
	}
	return cutRows(cols, ends, cs, vs)
}

// FromDense lists the non-zeros of every row of d. The cells are read
// once — for a query matrix, fifty cells to a non-zero, that pass is
// the whole cost, and counting first would double it — into arrays that
// start at one entry per 32 cells and grow; the lists are then cut from
// copies of exactly the non-zeros' size.
func FromDense(d *Dense) *Sparse {
	ends := make([]int32, d.rows)
	cols, vals := make([]int32, 0, len(d.data)/32), make([]int64, 0, len(d.data)/32)
	for i := range ends {
		cols, vals = appendNonZeros(cols, vals, d.Row(i))
		ends[i] = int32(len(cols))
	}
	return cutRows(d.cols, ends, append(make([]int32, 0, len(cols)), cols...), append(make([]int64, 0, len(vals)), vals...))
}

// CellError is the cell FromCells refused.
type CellError struct {
	I, J int64
	// Duplicate is set when the cell is listed twice; otherwise it lies
	// outside the matrix.
	Duplicate bool
}

func (e *CellError) Error() string {
	if e.Duplicate {
		return fmt.Sprintf("intmat: duplicate cell (%d, %d)", e.I, e.J)
	}
	return fmt.Sprintf("intmat: cell (%d, %d) outside the matrix", e.I, e.J)
}

// FromCells lists a rows × cols matrix given as (row, col, value) cells
// in any order — the wire form of a matrix — and reports whether every
// value is 0 or 1 and whether none is negative. It needs no dense
// scratch and no per-cell mark, so its cost follows rows + len(cells):
// the cells are counted per row, scattered into their rows in the order
// given, and only a row whose columns did not arrive ascending is
// sorted. A cell outside the matrix, or one listed twice, is a
// *CellError: any cell outside is reported before any duplicate, and the
// duplicate reported is the lowest (row, col). An explicit zero occupies
// its cell for that test and is then dropped.
func FromCells(rows, cols int, cells [][3]int64) (s *Sparse, binary, nonNeg bool, err error) {
	ends := make([]int32, rows) // per-row counts, then starts, then ends
	binary, nonNeg = true, true
	zeros := 0
	for _, c := range cells {
		i, j, v := c[0], c[1], c[2]
		if i < 0 || i >= int64(rows) || j < 0 || j >= int64(cols) {
			return nil, false, false, &CellError{I: i, J: j}
		}
		ends[i]++
		switch {
		case v == 0:
			zeros++
		case v < 0:
			binary, nonNeg = false, false
		case v != 1:
			binary = false
		}
	}
	at := int32(0)
	for i, c := range ends {
		ends[i] = at
		at += c
	}
	cs, vs := make([]int32, len(cells)), make([]int64, len(cells))
	for _, c := range cells {
		x := ends[c[0]]
		cs[x], vs[x] = int32(c[1]), c[2]
		ends[c[0]] = x + 1 // the fill leaves ends[i] at row i's end
	}
	var unsorted byCol
	lo := int32(0)
	for i, hi := range ends {
		if rc := cs[lo:hi]; !ascending(rc) {
			unsorted = byCol{cols: rc, vals: vs[lo:hi]}
			sort.Sort(&unsorted)
			for x := 1; x < len(rc); x++ {
				if rc[x] == rc[x-1] {
					return nil, false, false, &CellError{I: int64(i), J: int64(rc[x]), Duplicate: true}
				}
			}
		}
		lo = hi
	}
	if zeros > 0 {
		w, lo := int32(0), int32(0)
		for i, hi := range ends {
			for x := lo; x < hi; x++ {
				if vs[x] != 0 {
					cs[w], vs[w] = cs[x], vs[x]
					w++
				}
			}
			lo, ends[i] = hi, w
		}
		cs, vs = cs[:w], vs[:w]
	}
	return cutRows(cols, ends, cs, vs), binary, nonNeg, nil
}

// ascending reports whether cols strictly ascend — a row that needs no
// sort and holds no duplicate.
//
//mp:hotpath
func ascending(cols []int32) bool {
	for x := 1; x < len(cols); x++ {
		if cols[x] <= cols[x-1] {
			return false
		}
	}
	return true
}

// byCol sorts one row's cells by column.
type byCol struct {
	cols []int32
	vals []int64
}

func (r *byCol) Len() int           { return len(r.cols) }
func (r *byCol) Less(a, b int) bool { return r.cols[a] < r.cols[b] }
func (r *byCol) Swap(a, b int) {
	r.cols[a], r.cols[b] = r.cols[b], r.cols[a]
	r.vals[a], r.vals[b] = r.vals[b], r.vals[a]
}

// RowPatch is one row's part of a row update: (column, value) cells in
// any order, the columns distinct and inside the matrix.
type RowPatch struct {
	Row   int
	Cells [][2]int64
}

// Patch returns the successor of s under one patch per row — the one
// way a listed matrix changes. In replace mode a patched row becomes
// exactly the non-zero cells of its patch; in delta mode each cell is
// added to the row and a sum of zero is dropped. Only the patched rows
// are re-listed, from the patch's own cells (and, for a delta, a merge
// with the old list); every other row shares its list with the receiver
// — O(rows + touched cells), never O(NNZ).
func (s *Sparse) Patch(patches []RowPatch, delta bool) *Sparse {
	ns := &Sparse{cols: s.cols, nnz: s.nnz, list: slices.Clone(s.list)}
	for _, p := range patches {
		old := ns.list[p.Row]
		l := rowList{cols: make([]int32, len(p.Cells)), vals: make([]int64, len(p.Cells))}
		for x, c := range p.Cells {
			l.cols[x], l.vals[x] = int32(c[0]), c[1]
		}
		if !ascending(l.cols) {
			sort.Sort(&byCol{cols: l.cols, vals: l.vals})
		}
		base := old
		if !delta {
			base = rowList{} // replace: the patch added to an empty row
		}
		l = mergeRows(base, l)
		ns.nnz += len(l.cols) - len(old.cols)
		ns.list[p.Row] = l
	}
	return ns
}

// mergeRows returns a + b for two rows listed by ascending column,
// without the entries that sum to zero.
func mergeRows(a, b rowList) rowList {
	out := rowList{cols: make([]int32, 0, len(a.cols)+len(b.cols)), vals: make([]int64, 0, len(a.cols)+len(b.cols))}
	x, y := 0, 0
	for x < len(a.cols) || y < len(b.cols) {
		var c int32
		var v int64
		switch {
		case y == len(b.cols) || (x < len(a.cols) && a.cols[x] < b.cols[y]):
			c, v = a.cols[x], a.vals[x]
			x++
		case x == len(a.cols) || b.cols[y] < a.cols[x]:
			c, v = b.cols[y], b.vals[y]
			y++
		default:
			c, v = a.cols[x], a.vals[x]+b.vals[y]
			x, y = x+1, y+1
		}
		if v != 0 {
			out.cols, out.vals = append(out.cols, c), append(out.vals, v)
		}
	}
	return out
}

// List returns s: a listed matrix lends its own lists.
func (s *Sparse) List() *Sparse { return s }

// ListRow is Row.
func (s *Sparse) ListRow(k int) (cols []int32, vals []int64) { return s.Row(k) }

// Rows returns the number of rows.
func (s *Sparse) Rows() int { return len(s.list) }

// Cols returns the number of columns.
func (s *Sparse) Cols() int { return s.cols }

// NNZ returns the number of stored non-zero entries.
func (s *Sparse) NNZ() int { return s.nnz }

// Bytes reports the memory the lists retain: two slice headers per row
// and 12 bytes per non-zero.
func (s *Sparse) Bytes() int64 { return int64(len(s.list))*rowListBytes + 12*int64(s.nnz) }

// Row returns the column indices and values of row i's stored entries,
// columns ascending; the slices alias the matrix.
func (s *Sparse) Row(i int) (cols []int32, vals []int64) {
	l := &s.list[i]
	return l.cols, l.vals
}

// Equal reports whether both matrices have the same shape and the same
// lists; an empty row is empty whichever constructor made it.
func (s *Sparse) Equal(o *Sparse) bool {
	if len(s.list) != len(o.list) || s.cols != o.cols || s.nnz != o.nnz {
		return false
	}
	for i, l := range s.list {
		if !slices.Equal(l.cols, o.list[i].cols) || !slices.Equal(l.vals, o.list[i].vals) {
			return false
		}
	}
	return true
}

// RowEntries calls fn for every stored entry of row i.
func (s *Sparse) RowEntries(i int, fn func(j int, v int64)) {
	cols, vals := s.Row(i)
	for x, j := range cols {
		fn(int(j), vals[x])
	}
}

// Entries returns all stored entries in row-major order.
func (s *Sparse) Entries() []Entry {
	out := make([]Entry, 0, s.nnz)
	for i := range s.list {
		s.RowEntries(i, func(j int, v int64) {
			out = append(out, Entry{I: i, J: j, V: v})
		})
	}
	return out
}

// Filter returns the matrix of the stored entries keep accepts. keep is
// called once per entry, in row-major order; the kept entries are
// copied once, into lists cut from two arrays that grow with them.
func (s *Sparse) Filter(keep func(i, j int, v int64) bool) *Sparse {
	ends := make([]int32, len(s.list))
	var cols []int32
	var vals []int64
	for i, l := range s.list {
		for x, j := range l.cols {
			if keep(i, int(j), l.vals[x]) {
				cols, vals = append(cols, j), append(vals, l.vals[x])
			}
		}
		ends[i] = int32(len(cols))
	}
	return cutRows(s.cols, ends, cols, vals)
}

// ToDense converts to a dense matrix.
func (s *Sparse) ToDense() *Dense {
	d := NewDense(len(s.list), s.cols)
	for i := range s.list {
		row := d.Row(i)
		s.RowEntries(i, func(j int, v int64) { row[j] = v })
	}
	return d
}

// Transpose returns sᵀ: its row j lists column j of s, rows ascending.
func (s *Sparse) Transpose() *Sparse {
	// next[j] is where column j's next entry goes: first the counts, then
	// their running sum — each column's start — then advanced by the fill.
	next := make([]int32, s.cols)
	for _, l := range s.list {
		for _, j := range l.cols {
			next[j]++
		}
	}
	at := int32(0)
	for j, c := range next {
		next[j] = at
		at += c
	}
	rows, vals := make([]int32, s.nnz), make([]int64, s.nnz)
	for i, l := range s.list {
		for x, j := range l.cols {
			rows[next[j]], vals[next[j]] = int32(i), l.vals[x]
			next[j]++
		}
	}
	return cutRows(len(s.list), next, rows, vals) // the fill left next[j] at column j's end
}

// Mul returns the integer product s·o as a dense matrix.
func (s *Sparse) Mul(o *Sparse) *Dense {
	if s.cols != o.Rows() {
		panic("intmat: sparse Mul dimension mismatch")
	}
	out := NewDense(s.Rows(), o.cols)
	for i := range s.list {
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
	out := NewDense(s.Rows(), d.Cols())
	for i := range s.list {
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
	for _, l := range s.list {
		for _, v := range l.vals {
			if v < 0 {
				sum -= v
			} else {
				sum += v
			}
		}
	}
	return sum
}
