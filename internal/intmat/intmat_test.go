package intmat

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func randomDense(r *rng.RNG, rows, cols int, density float64, maxAbs int64) *Dense {
	d := NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Bernoulli(density) {
				d.Set(i, j, r.Int63n(2*maxAbs+1)-maxAbs)
			}
		}
	}
	return d
}

func TestDenseBasics(t *testing.T) {
	d := NewDense(3, 4)
	d.Set(1, 2, -7)
	d.Add(1, 2, 3)
	if got := d.Get(1, 2); got != -4 {
		t.Fatalf("Get = %d, want -4", got)
	}
	if d.Rows() != 3 || d.Cols() != 4 {
		t.Fatal("dims wrong")
	}
}

func TestDenseOutOfRangePanics(t *testing.T) {
	d := NewDense(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Get(2, 0)
}

func TestNorms(t *testing.T) {
	d := NewDense(2, 3)
	d.Set(0, 0, 3)
	d.Set(0, 2, -4)
	d.Set(1, 1, 5)
	if got := d.L0(); got != 3 {
		t.Errorf("L0 = %d, want 3", got)
	}
	if got := d.L1(); got != 12 {
		t.Errorf("L1 = %d, want 12", got)
	}
	max, i, j := d.Linf()
	if max != 5 || i != 1 || j != 1 {
		t.Errorf("Linf = %d at (%d,%d), want 5 at (1,1)", max, i, j)
	}
	if got := d.Lp(2); math.Abs(got-50) > 1e-9 {
		t.Errorf("Lp(2) = %v, want 50", got)
	}
	if got := d.Lp(0); got != 3 {
		t.Errorf("Lp(0) = %v, want 3", got)
	}
	if got := d.Lp(1); math.Abs(got-12) > 1e-9 {
		t.Errorf("Lp(1) = %v, want 12", got)
	}
}

func TestLpDecomposesOverRows(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		d := randomDense(r, 8, 11, 0.5, 9)
		for _, p := range []float64{0, 0.5, 1, 1.5, 2} {
			var rows float64
			for i := 0; i < 8; i++ {
				row := NewDense(1, 11)
				copy(row.Row(0), d.Row(i))
				rows += row.Lp(p)
			}
			if math.Abs(rows-d.Lp(p)) > 1e-6*(1+math.Abs(rows)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDenseMul(t *testing.T) {
	a := NewDense(2, 3)
	b := NewDense(3, 2)
	// a = [1 2 0; 0 -1 3], b = [1 0; 2 1; 0 -2]
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 1, -1)
	a.Set(1, 2, 3)
	b.Set(0, 0, 1)
	b.Set(1, 0, 2)
	b.Set(1, 1, 1)
	b.Set(2, 1, -2)
	c := a.Mul(b)
	want := [][]int64{{5, 2}, {-2, -7}}
	for i := range want {
		for j := range want[i] {
			if c.Get(i, j) != want[i][j] {
				t.Fatalf("C[%d][%d] = %d, want %d", i, j, c.Get(i, j), want[i][j])
			}
		}
	}
}

func TestSparseRoundTrip(t *testing.T) {
	r := rng.New(20)
	d := randomDense(r, 13, 17, 0.3, 50)
	s := FromDense(d)
	if !s.ToDense().Equal(d) {
		t.Fatal("sparse round trip lost entries")
	}
	if s.NNZ() != d.L0() {
		t.Fatalf("NNZ = %d, want %d", s.NNZ(), d.L0())
	}
}

func TestSparseDuplicatesSummed(t *testing.T) {
	s := NewSparse(2, 2, []Entry{{0, 0, 3}, {0, 0, 4}, {1, 1, 5}, {1, 1, -5}})
	if got := s.NNZ(); got != 1 {
		t.Fatalf("NNZ = %d, want 1 (dups summed, zeros dropped)", got)
	}
	d := s.ToDense()
	if d.Get(0, 0) != 7 {
		t.Fatalf("summed entry = %d, want 7", d.Get(0, 0))
	}
}

func TestSparseMulMatchesDense(t *testing.T) {
	r := rng.New(21)
	da := randomDense(r, 10, 12, 0.3, 9)
	db := randomDense(r, 12, 8, 0.3, 9)
	want := da.Mul(db)
	got := FromDense(da).Mul(FromDense(db))
	if !got.Equal(want) {
		t.Fatal("sparse Mul differs from dense Mul")
	}
	got2 := FromDense(da).MulDense(db)
	if !got2.Equal(want) {
		t.Fatal("MulDense differs from dense Mul")
	}
}

func TestSparseEntryOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSparse(2, 2, []Entry{{2, 0, 1}})
}

func TestAddMatrix(t *testing.T) {
	a := NewDense(2, 2)
	b := NewDense(2, 2)
	a.Set(0, 0, 1)
	b.Set(0, 0, 2)
	b.Set(1, 1, 3)
	a.AddMatrix(b)
	if a.Get(0, 0) != 3 || a.Get(1, 1) != 3 {
		t.Fatal("AddMatrix wrong")
	}
}

func TestNonZerosOrder(t *testing.T) {
	d := NewDense(2, 3)
	d.Set(1, 0, 4)
	d.Set(0, 2, 9)
	nz := d.NonZeros()
	if len(nz) != 2 || nz[0] != (Entry{0, 2, 9}) || nz[1] != (Entry{1, 0, 4}) {
		t.Fatalf("NonZeros = %v", nz)
	}
}

func TestSparseL1(t *testing.T) {
	s := NewSparse(2, 2, []Entry{{0, 0, -3}, {1, 1, 4}})
	if got := s.L1(); got != 7 {
		t.Fatalf("L1 = %d, want 7", got)
	}
}

// withRows is Patch for a test that holds the successor dense: the
// listed rows (repeats allowed) are replaced by nb's.
func withRows(s *Sparse, nb *Dense, rows []int) *Sparse {
	patches := make([]RowPatch, len(rows))
	for x, k := range rows {
		patches[x].Row = k
		for j, v := range nb.Row(k) {
			if v != 0 {
				patches[x].Cells = append(patches[x].Cells, [2]int64{int64(j), v})
			}
		}
	}
	return s.Patch(patches, false)
}

// TestWithRowsMatchesRelisting: over random histories of row
// replacements — rows emptied and refilled, rows listed twice — the
// successor Patch derives is the matrix FromDense lists from scratch,
// row by row and in NNZ and Bytes; every row it did not touch aliases
// the receiver's list (structural sharing is the contract), and the
// receiver still lists the matrix it was built from.
func TestWithRowsMatchesRelisting(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		const rows, cols = 9, 13
		cur := randomDense(r, rows, cols, 0.3, 9)
		s := FromDense(cur)
		for step := 0; step < 8; step++ {
			next := cur.Clone()
			touched := make([]bool, rows)
			var list []int
			for n := 1 + int(r.Int63n(3)); n > 0; n-- {
				k := int(r.Int63n(rows))
				for j := 0; j < cols; j++ {
					next.Set(k, j, 0)
					if step%3 != 0 && r.Bernoulli(0.4) { // every third step only empties
						next.Set(k, j, r.Int63n(19)-9)
					}
				}
				touched[k] = true
				list = append(list, k)
				if r.Bernoulli(0.5) {
					list = append(list, k) // a row listed twice
				}
			}
			ns, fresh := withRows(s, next, list), FromDense(next)
			if !ns.Equal(fresh) || ns.NNZ() != fresh.NNZ() || ns.Bytes() != fresh.Bytes() || !ns.ToDense().Equal(next) {
				return false
			}
			if !s.Equal(FromDense(cur)) {
				return false // the receiver changed
			}
			for k := 0; k < rows; k++ {
				oc, ov := s.Row(k)
				nc, nv := ns.Row(k)
				if !touched[k] && len(oc) > 0 && (&oc[0] != &nc[0] || &ov[0] != &nv[0]) {
					return false // an untouched row was copied
				}
			}
			cur, s = next, ns
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPatchMatchesDensePatch: over random histories of replace and delta
// patches — cells in any column order, explicit zeros, deltas that cancel
// a cell, rows emptied — the successor Patch derives is FromDense of the
// same patch applied cell by cell to the dense matrix; untouched rows
// alias the receiver's lists and the receiver is left as it was.
func TestPatchMatchesDensePatch(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		const rows, cols = 8, 11
		cur := randomDense(r, rows, cols, 0.3, 5)
		s := FromDense(cur)
		for step := 0; step < 10; step++ {
			delta := step%2 == 1
			next := cur.Clone()
			touched := make([]bool, rows)
			var patches []RowPatch
			for n := 1 + int(r.Int63n(3)); n > 0; n-- {
				k := int(r.Int63n(rows))
				if touched[k] {
					continue
				}
				touched[k] = true
				p := RowPatch{Row: k}
				if !delta {
					clear(next.Row(k))
				}
				for j := cols - 1; j >= 0; j-- { // columns descending: Patch sorts
					if !r.Bernoulli(0.4) {
						continue
					}
					v := r.Int63n(7) - 3 // zero included
					if delta && r.Bernoulli(0.5) {
						v = -cur.Get(k, j) // the cell cancelled
					}
					p.Cells = append(p.Cells, [2]int64{int64(j), v})
					if delta {
						next.Add(k, j, v)
					} else {
						next.Set(k, j, v)
					}
				}
				patches = append(patches, p)
			}
			ns, fresh := s.Patch(patches, delta), FromDense(next)
			if !ns.Equal(fresh) || ns.NNZ() != fresh.NNZ() || !s.Equal(FromDense(cur)) {
				return false
			}
			for k := 0; k < rows; k++ {
				oc, _ := s.Row(k)
				nc, _ := ns.Row(k)
				if !touched[k] && len(oc) > 0 && &oc[0] != &nc[0] {
					return false // an untouched row was copied
				}
			}
			cur, s = next, ns
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestTransposeTwiceIsIdentity: the transpose lists every column with
// its rows ascending, and transposing again gives back the same lists.
func TestTransposeTwiceIsIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		d := randomDense(r, 7, 12, 0.25, 9)
		for j := 0; j < 7; j++ {
			d.Set(j, 4, 0) // a column without non-zeros
		}
		s := FromDense(d)
		tr := s.Transpose()
		if tr.Rows() != 12 || tr.Cols() != 7 || tr.NNZ() != s.NNZ() {
			return false
		}
		for j := 0; j < 12; j++ {
			rows, vals := tr.Row(j)
			for x, i := range rows {
				if d.Get(int(i), j) != vals[x] || (x > 0 && rows[x-1] >= i) {
					return false
				}
			}
		}
		return tr.Transpose().Equal(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFilterMatchesEntrySubset: Filter asks once per stored entry, in
// row-major order, and returns what NewSparse builds from the entries it
// kept — every one, none, or a coin's choice.
func TestFilterMatchesEntrySubset(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		s := FromDense(randomDense(r, 9, 11, 0.3, 5))
		for _, rate := range []float64{0, 0.4, 1} {
			var kept []Entry
			at := 0
			entries := s.Entries()
			got := s.Filter(func(i, j int, v int64) bool {
				if (Entry{I: i, J: j, V: v}) != entries[at] {
					return false
				}
				at++
				keep := r.Bernoulli(rate)
				if keep {
					kept = append(kept, Entry{I: i, J: j, V: v})
				}
				return keep
			})
			if at != len(entries) || !got.Equal(NewSparse(9, 11, kept)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestEmptyRowsEqualAcrossConstructors: a row without non-zeros is the
// same row whether FromDense, NewSparse, Patch or Transpose made it,
// and Equal still tells different matrices apart.
func TestEmptyRowsEqualAcrossConstructors(t *testing.T) {
	d := NewDense(3, 4)
	d.Set(1, 2, 5)
	fromDense := FromDense(d)
	full := d.Clone()
	full.Set(0, 0, 1)
	full.Set(2, 3, -1)
	for name, s := range map[string]*Sparse{
		"NewSparse": NewSparse(3, 4, []Entry{{1, 2, 5}, {0, 1, 2}, {0, 1, -2}}),
		"Patch":     withRows(FromDense(full), d, []int{0, 2}),
		"Transpose": fromDense.Transpose().Transpose(),
	} {
		if !s.Equal(fromDense) || !fromDense.Equal(s) || s.Bytes() != fromDense.Bytes() {
			t.Errorf("%s's matrix differs from FromDense's", name)
		}
	}
	if fromDense.Equal(FromDense(full)) || fromDense.Equal(FromDense(NewDense(3, 5))) {
		t.Error("Equal accepted a different matrix")
	}
}

// shuffledCells is d's non-zeros, plus zeros explicit zero cells on
// cells d leaves empty, in a seeded random order.
func shuffledCells(r *rng.RNG, d *Dense, zeros int) [][3]int64 {
	var cells [][3]int64
	for _, e := range d.NonZeros() {
		cells = append(cells, [3]int64{int64(e.I), int64(e.J), e.V})
	}
	for i := 0; i < d.Rows() && zeros > 0; i++ {
		for j := 0; j < d.Cols() && zeros > 0; j++ {
			if d.Get(i, j) == 0 && r.Bernoulli(0.3) {
				cells = append(cells, [3]int64{int64(i), int64(j), 0})
				zeros--
			}
		}
	}
	for x := len(cells) - 1; x > 0; x-- {
		y := int(r.Int63n(int64(x + 1)))
		cells[x], cells[y] = cells[y], cells[x]
	}
	return cells
}

// TestFromCellsEqualsFromDense: whatever order the cells arrive in, and
// with explicit zeros among them, the listing is FromDense's of the
// matrix they spell, with the two flags a scan of it gives.
func TestFromCellsEqualsFromDense(t *testing.T) {
	r := rng.New(77)
	for _, c := range []struct {
		rows, cols int
		density    float64
		maxAbs     int64
		zeros      int
	}{
		{9, 13, 0.4, 4, 0},
		{9, 13, 0.4, 4, 7},
		{1, 40, 0.9, 1, 3}, // values -1, 0, 1
		{40, 1, 0.5, 3, 2},
		{6, 6, 0, 1, 5}, // nothing but explicit zeros
		{5, 7, 0, 1, 0}, // no cells at all
	} {
		d := randomDense(r, c.rows, c.cols, c.density, c.maxAbs)
		cells := shuffledCells(r, d, c.zeros)
		s, binary, nonNeg, err := FromCells(c.rows, c.cols, cells)
		if err != nil {
			t.Fatalf("%dx%d: %v", c.rows, c.cols, err)
		}
		if !s.Equal(FromDense(d)) {
			t.Fatalf("%dx%d: the listing of %d shuffled cells differs from FromDense", c.rows, c.cols, len(cells))
		}
		wantBinary, wantNonNeg := true, true
		for _, e := range d.NonZeros() {
			wantBinary = wantBinary && e.V == 1
			wantNonNeg = wantNonNeg && e.V > 0
		}
		if binary != wantBinary || nonNeg != wantNonNeg {
			t.Fatalf("%dx%d: flags (%v, %v), a scan gives (%v, %v)", c.rows, c.cols, binary, nonNeg, wantBinary, wantNonNeg)
		}
	}
	// Row-major cells — what MatrixFromDense ships — take the no-sort path.
	d := randomDense(r, 12, 12, 0.3, 5)
	var cells [][3]int64
	for _, e := range d.NonZeros() {
		cells = append(cells, [3]int64{int64(e.I), int64(e.J), e.V})
	}
	if s, _, _, err := FromCells(12, 12, cells); err != nil || !s.Equal(FromDense(d)) {
		t.Fatalf("row-major cells: err %v", err)
	}
	for _, c := range []struct {
		cells          [][3]int64
		binary, nonNeg bool
	}{
		{[][3]int64{{0, 1, 1}, {1, 1, 0}, {0, 0, 1}}, true, true},
		{[][3]int64{{0, 1, 1}, {0, 0, 2}}, false, true},
		{[][3]int64{{0, 1, 1}, {1, 0, -1}}, false, false},
	} {
		if _, binary, nonNeg, err := FromCells(2, 2, c.cells); err != nil || binary != c.binary || nonNeg != c.nonNeg {
			t.Fatalf("%v: flags (%v, %v), err %v", c.cells, binary, nonNeg, err)
		}
	}
}

// TestFromCellsRefusals pins the precedence: a cell outside the matrix
// is reported wherever it sits among duplicates, the duplicate reported
// is the lowest (row, col) whatever the order, and an explicit zero
// occupies its cell.
func TestFromCellsRefusals(t *testing.T) {
	for _, c := range []struct {
		name  string
		cells [][3]int64
		want  CellError
	}{
		{"row above", [][3]int64{{0, 0, 1}, {3, 0, 1}}, CellError{I: 3, J: 0}},
		{"row below", [][3]int64{{-1, 2, 1}}, CellError{I: -1, J: 2}},
		{"column above", [][3]int64{{2, 4, 1}}, CellError{I: 2, J: 4}},
		{"column below", [][3]int64{{2, -7, 1}}, CellError{I: 2, J: -7}},
		{"far outside", [][3]int64{{1 << 40, 1 << 40, 1}}, CellError{I: 1 << 40, J: 1 << 40}},
		{"outside after duplicates", [][3]int64{{1, 1, 1}, {1, 1, 2}, {0, 9, 1}}, CellError{I: 0, J: 9}},
		{"adjacent duplicate", [][3]int64{{1, 1, 1}, {1, 1, 2}}, CellError{I: 1, J: 1, Duplicate: true}},
		{"duplicate apart", [][3]int64{{2, 3, 1}, {0, 0, 1}, {2, 1, 1}, {2, 3, 5}}, CellError{I: 2, J: 3, Duplicate: true}},
		{"lowest of two duplicates", [][3]int64{{2, 3, 1}, {2, 3, 1}, {0, 2, 1}, {2, 0, 1}, {2, 0, 1}, {0, 2, 4}}, CellError{I: 0, J: 2, Duplicate: true}},
		{"zero then value", [][3]int64{{1, 2, 0}, {1, 2, 5}}, CellError{I: 1, J: 2, Duplicate: true}},
		{"two zeros", [][3]int64{{1, 2, 0}, {0, 0, 1}, {1, 2, 0}}, CellError{I: 1, J: 2, Duplicate: true}},
	} {
		s, binary, nonNeg, err := FromCells(3, 4, c.cells)
		got, ok := err.(*CellError)
		if !ok || *got != c.want || s != nil || binary || nonNeg {
			t.Errorf("%s: got (%v, %v, %v, %v), want %+v", c.name, s, binary, nonNeg, err, c.want)
		}
	}
}
