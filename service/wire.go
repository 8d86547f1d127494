package service

import (
	"errors"
	"fmt"

	"repro/internal/bitmat"
	"repro/internal/intmat"
)

// Matrix is the wire representation of an integer matrix: dimensions
// plus sparse (row, col, value) triples. It is what clients upload as
// Bob's served matrix and ship as Alice's query matrix.
type Matrix struct {
	// Rows is the matrix row count.
	Rows int `json:"rows"`
	// Cols is the matrix column count.
	Cols int `json:"cols"`
	// Entries are sparse (row, col, value) triples; unlisted cells are
	// zero. Duplicate (row, col) pairs are rejected on upload.
	Entries [][3]int64 `json:"entries"`
}

// MatrixFromDense builds the wire form of a dense integer matrix — a
// client-side helper: no serving path holds one.
func MatrixFromDense(d *intmat.Dense) Matrix {
	m := Matrix{Rows: d.Rows(), Cols: d.Cols()}
	for _, e := range d.NonZeros() {
		m.Entries = append(m.Entries, [3]int64{int64(e.I), int64(e.J), e.V})
	}
	return m
}

// MatrixFromList renders non-zero lists as a wire matrix, entries in
// row-major order — MatrixFromDense's of the same matrix. It is how a
// served matrix leaves the process: a snapshot payload, a gateway's seed
// of a replica. A matrix without non-zeros has nil Entries, as there.
func MatrixFromList(s *intmat.Sparse) Matrix {
	m := Matrix{Rows: s.Rows(), Cols: s.Cols()}
	if s.NNZ() > 0 {
		m.Entries = make([][3]int64, 0, s.NNZ())
	}
	for i := 0; i < s.Rows(); i++ {
		cols, vals := s.Row(i)
		for x, j := range cols {
			m.Entries = append(m.Entries, [3]int64{int64(i), int64(j), vals[x]})
		}
	}
	return m
}

// MatrixFromBool builds the wire form of a Boolean matrix.
func MatrixFromBool(b *bitmat.Matrix) Matrix {
	m := Matrix{Rows: b.Rows(), Cols: b.Cols()}
	for i := 0; i < b.Rows(); i++ {
		for _, j := range b.RowSupport(i) {
			m.Entries = append(m.Entries, [3]int64{int64(i), int64(j), 1})
		}
	}
	return m
}

// maxMatrixElems bounds rows×cols of an uploaded matrix — what the
// forms that are still one unit a cell cost (the 0/1 kinds' bit rows and
// a staged upload's CellSet, 2 MiB each at 1<<24 cells; the ℓ∞ index
// exchange's dense product) and the most non-zeros a list can hold — so
// a tiny hostile request cannot demand an enormous allocation.
const maxMatrixElems = 1 << 24

// dimsInRange validates matrix dimensions against maxMatrixElems. Each
// side is bounded before the product is formed, so hostile dimensions
// around 2^32 cannot wrap the int64 multiplication past the check and
// panic the dense allocation.
func dimsInRange(rows, cols int) bool {
	if rows <= 0 || cols <= 0 || rows > maxMatrixElems || cols > maxMatrixElems {
		return false
	}
	return int64(rows)*int64(cols) <= maxMatrixElems
}

// CheckDims is the dimension rule every install path applies — a
// single-body put, a chunked begin, and the gateway's staged begin.
func CheckDims(rows, cols int) error {
	if !dimsInRange(rows, cols) {
		return fmt.Errorf("%w: matrix dimensions %dx%d out of range", ErrBadRequest, rows, cols)
	}
	return nil
}

// CellSet marks the occupied cells of a rows×cols matrix: the
// duplicate-entry detector of the two places a matrix arrives a chunk at
// a time — the engine's and the gateway's upload staging — where a
// repeat must be refused against cells staged by earlier chunks. A
// matrix that arrives whole (a put, a query, a snapshot) is validated by
// Matrix.List instead, which needs no per-cell mark. It is one bit a
// cell, 2 MiB at the maxMatrixElems cap, where a map keyed by cell costs
// gigabytes on a dense upload. The zero value is empty; Reset sizes it.
// Cells passed in must lie inside the matrix.
type CellSet struct {
	cols int64
	bits []uint64
}

// Reset empties the set and sizes it for a rows×cols matrix (dimensions
// that passed CheckDims).
func (s *CellSet) Reset(rows, cols int) {
	s.cols = int64(cols)
	s.bits = make([]uint64, (int64(rows)*int64(cols)+63)/64)
}

// Add marks cell (i, j) and reports whether it was marked already — a
// repeated entry.
func (s *CellSet) Add(i, j int64) (repeat bool) {
	cell := i*s.cols + j
	word, bit := &s.bits[cell>>6], uint64(1)<<(uint(cell)&63)
	repeat = *word&bit != 0
	*word |= bit
	return repeat
}

// AddAll marks the cell of every entry of a chunk, or of none: at the
// first repeat — of an earlier entry or of a cell marked before the
// call — it unmarks what it marked and reports the repeat, so a refused
// chunk stages nothing and can be corrected and resent.
func (s *CellSet) AddAll(entries [][3]int64) error {
	for k, ent := range entries {
		if s.Add(ent[0], ent[1]) {
			for _, undo := range entries[:k] {
				cell := undo[0]*s.cols + undo[1]
				s.bits[cell>>6] &^= 1 << (uint(cell) & 63)
			}
			return errDuplicateEntry(ent[0], ent[1])
		}
	}
	return nil
}

func errDuplicateEntry(i, j int64) error {
	return fmt.Errorf("%w: duplicate entry (%d, %d)", ErrBadRequest, i, j)
}

// List validates the wire matrix into its non-zero lists — the one
// validator of a matrix that arrives whole, on either tier, and the one
// form a served matrix is held in — reporting whether every entry is
// 0/1 (binary, eligible for the ℓ∞ protocols) and whether all entries
// are non-negative (eligible for Remark 2/3). An entry outside the
// matrix is refused before any duplicate (row, col), and the duplicate
// reported is the lowest; letting the last one win would also miscount
// the catalog NNZ. Explicit zeros are legal and not listed. The cost
// follows rows + entries, never rows × cols.
func (m Matrix) List() (s *intmat.Sparse, binary, nonNeg bool, err error) {
	if err := CheckDims(m.Rows, m.Cols); err != nil {
		return nil, false, false, err
	}
	s, binary, nonNeg, err = intmat.FromCells(m.Rows, m.Cols, m.Entries)
	var bad *intmat.CellError
	if errors.As(err, &bad) {
		if bad.Duplicate {
			err = errDuplicateEntry(bad.I, bad.J)
		} else {
			err = fmt.Errorf("%w: entry (%d, %d) outside %dx%d matrix", ErrBadRequest, bad.I, bad.J, m.Rows, m.Cols)
		}
	}
	return s, binary, nonNeg, err
}

// Entry is one heavy-hitter output entry: a matrix position with the
// protocol's estimate of its value.
type Entry struct {
	// I is the entry's row in the product C = A·B.
	I int `json:"i"`
	// J is the entry's column in the product.
	J int `json:"j"`
	// Value is the protocol's estimate of C[I][J].
	Value float64 `json:"value"`
}
