package sketch

import (
	"slices"

	"repro/internal/intmat"
	"repro/internal/rng"
)

// TensorCS is a CountSketch over matrix entries whose hash factors across
// the row and column coordinate: entry (i, j) lands in grid cell
// (h(i), g(j)) with sign s(i)·t(j). The factored structure is what makes
// the sketch computable from a *product*: for C = A·B,
//
//	T = RowCompress(A) · ColCompress(B),
//
// where RowCompress(A) is br×n and ColCompress(B) is n×bc, so Bob can ship
// ColCompress(B) — n·bc words — and Alice completes the sketch locally.
// This realizes Lemma 2.5 (distributed matrix multiplication in
// Õ(n·√‖AB‖0) bits): with ‖C‖0 ≤ s and grid side Θ(√s), shipping costs
// n·Θ(√s) words, and median point queries over reps repetitions decode
// every non-zero entry of the integer matrix C exactly with high
// probability.
//
// The protocols run the exchange on the non-zeros: Bob compresses one
// row of B at a time from its non-zero list (RowCompressor), Alice keeps
// the non-zero words of what he sent (Factor) and Recover completes and
// decodes the sketch without materialising the factor or the grid.
// The dense definition of the same arithmetic — ColCompress,
// SketchFromCompressed, SketchDirect, PointQuery and Decode, which the
// doc comments below name — lives in tensorcs_ref_test.go: the tests
// hold the pipeline to it, word for word and entry for entry.
type TensorCS struct {
	rows, cols int // dimensions of the sketched matrix C
	inner      int // shared dimension of A (rows×inner) and B (inner×cols)
	reps       int
	br, bc     int
	rowHash    []*rng.PolyHash
	colHash    []*rng.PolyHash
	rowSign    []*rng.PolyHash
	colSign    []*rng.PolyHash
}

// NewTensorCS constructs a tensor CountSketch for products C = A·B with
// A ∈ Z^{rows×inner} and B ∈ Z^{inner×cols}, targeting sparsity s
// (buckets per axis ≈ 4√s) with reps independent repetitions.
func NewTensorCS(r *rng.RNG, rows, inner, cols, s, reps int) *TensorCS {
	if s < 1 {
		s = 1
	}
	if reps < 1 {
		panic("sketch: TensorCS needs reps >= 1")
	}
	// side ≈ 8√s keeps the per-repetition point-query collision
	// probability below s/side² = 1/64, so a median over ≥5 repetitions
	// answers all rows·cols queries correctly with high probability.
	side := 4
	for side*side < 64*s {
		side++
	}
	t := &TensorCS{rows: rows, cols: cols, inner: inner, reps: reps, br: side, bc: side}
	for i := 0; i < reps; i++ {
		t.rowHash = append(t.rowHash, rng.NewPolyHash(r, 2))
		t.colHash = append(t.colHash, rng.NewPolyHash(r, 2))
		t.rowSign = append(t.rowSign, rng.NewPolyHash(r, 4))
		t.colSign = append(t.colSign, rng.NewPolyHash(r, 4))
	}
	return t
}

// GridSide returns the per-axis bucket count.
func (t *TensorCS) GridSide() int { return t.br }

// Reps returns the number of repetitions.
func (t *TensorCS) Reps() int { return t.reps }

// CompressedSize returns the int64 word count of ColCompress output —
// the quantity a protocol transmits.
func (t *TensorCS) CompressedSize() int { return t.reps * t.inner * t.bc }

// axisTable is one axis's bucket and sign for every repetition and
// coordinate: n evaluations of each hash per repetition, where
// evaluating them cell by cell costs rows·cols.
type axisTable struct {
	n      int
	bucket []int32 // bucket[rep·n + x]
	sign   []int64 // ±1, indexed alike
}

func newAxisTable(hash, sign []*rng.PolyHash, n, buckets int) axisTable {
	t := axisTable{n: n, bucket: make([]int32, len(hash)*n), sign: make([]int64, len(hash)*n)}
	for rep := range hash {
		for x := 0; x < n; x++ {
			t.bucket[rep*n+x] = int32(hash[rep].Bucket(uint64(x), buckets))
			t.sign[rep*n+x] = int64(sign[rep].Sign(uint64(x)))
		}
	}
	return t
}

// group lists repetition rep's coordinates by bucket, ascending within
// each: bucket u holds list[start[u]:start[u+1]]. start has one entry
// more than there are buckets, list has n.
func (t axisTable) group(rep int, start, list []int32) {
	b := t.bucket[rep*t.n : (rep+1)*t.n]
	clear(start)
	for _, u := range b {
		start[u+1]++
	}
	for u := 1; u < len(start); u++ {
		start[u] += start[u-1]
	}
	// Filling each bucket from its end walks start[u+1] down to the
	// bucket's first slot, which leaves the offsets one entry late.
	for x := len(b) - 1; x >= 0; x-- {
		u := b[x]
		start[u+1]--
		list[start[u+1]] = int32(x)
	}
	copy(start, start[1:])
	start[len(start)-1] = int32(len(b))
}

// bucketAcc sums signed values into the buckets of one grid axis and
// remembers which buckets it touched, so a sparse row costs its
// non-zeros and not the axis. The caller drains touched[:n] and leaves
// sum and seen zero behind it.
type bucketAcc struct {
	sum     []int64
	seen    []bool
	touched []int32 // the first n entries: distinct buckets, in first-touch order
	n       int
}

func newBucketAcc(buckets int) *bucketAcc {
	return &bucketAcc{sum: make([]int64, buckets), seen: make([]bool, buckets), touched: make([]int32, buckets)}
}

//mp:hotpath
func (b *bucketAcc) add(v int32, x int64) {
	if !b.seen[v] {
		b.seen[v] = true
		b.touched[b.n] = v
		b.n++
	}
	b.sum[v] += x
}

// RowCompressor computes rows of ColCompress's output from the
// non-zero lists of B's rows. It owns scratch: one per goroutine.
type RowCompressor struct {
	col axisTable
	acc *bucketAcc
	val []int64
}

// NewRowCompressor evaluates the column hashes and returns a compressor
// for the rows of B.
func (t *TensorCS) NewRowCompressor() *RowCompressor {
	return &RowCompressor{
		col: newAxisTable(t.colHash, t.colSign, t.cols, t.bc),
		acc: newBucketAcc(t.bc),
		val: make([]int64, t.bc),
	}
}

// Row compresses one row of B, given as its non-zero list, under
// repetition rep: it returns the buckets the row reaches, ascending, and
// ColCompress's word for each (which is zero where the entries of a
// bucket cancel); every other word of the compressed row is zero. The
// slices are valid until the next call.
//
//mp:hotpath
func (c *RowCompressor) Row(rep int, cols []int32, vals []int64) (buckets []int32, words []int64) {
	base := rep * c.col.n
	for x, j := range cols {
		c.acc.add(c.col.bucket[base+int(j)], c.col.sign[base+int(j)]*vals[x])
	}
	buckets, words = c.acc.touched[:c.acc.n], c.val[:c.acc.n]
	c.acc.n = 0
	slices.Sort(buckets)
	for x, b := range buckets {
		words[x] = c.acc.sum[b]
		c.acc.sum[b], c.acc.seen[b] = 0, false
	}
	return buckets, words
}

// cellRows is the non-zero cells of a matrix whose columns are buckets,
// row by row: row r holds cells start[r]:start[r+1], each a column
// bucket and the cell's value.
type cellRows struct {
	start []int32
	bkt   []int32
	val   []int64
}

func (c *cellRows) row(r int) (buckets []int32, vals []int64) {
	lo, hi := c.start[r], c.start[r+1]
	return c.bkt[lo:hi], c.val[lo:hi]
}

// Factor is the non-zero words of a column-compressed factor
// (ColCompress's output) — what Alice keeps of Bob's message. Row
// rep·inner + k of its cells is row k of repetition rep.
type Factor struct {
	bc int
	cellRows
}

// NewFactor returns an all-zero factor of CompressedSize words.
func (t *TensorCS) NewFactor() *Factor {
	return &Factor{bc: t.bc, cellRows: cellRows{start: make([]int32, t.reps*t.inner+1)}}
}

// Add records that word idx of the factor, in ColCompress's flattened
// order, is v. Words must arrive by ascending idx.
func (f *Factor) Add(idx int, v int64) {
	if v == 0 {
		return
	}
	r := idx / f.bc
	f.bkt = append(f.bkt, int32(idx-r*f.bc))
	f.val = append(f.val, v)
	f.start[r+1] = int32(len(f.bkt))
}

// Recover completes the sketch on Alice's side and decodes it: it
// returns what Decode(SketchFromCompressed(a, compressed)) returns, in
// the same order, for the compressed factor whose non-zero words f
// holds.
func (t *TensorCS) Recover(a *intmat.Sparse, f *Factor) []intmat.Entry {
	if a.Rows() != t.rows || a.Cols() != t.inner {
		panic("sketch: TensorCS Recover shape mismatch")
	}
	if f.bc != t.bc || len(f.start) != t.reps*t.inner+1 {
		panic("sketch: TensorCS factor belongs to another sketch")
	}
	rowT := newAxisTable(t.rowHash, t.rowSign, t.rows, t.br)
	return t.decode(t.complete(a, f, rowT), rowT)
}

// complete is SketchFromCompressed over non-zeros: the rows of A that
// share a row bucket add their multiples of the factor's rows into one
// bucket row of the grid, whose non-zero cells are kept — bucket row u
// of repetition rep as row rep·br + u.
func (t *TensorCS) complete(a *intmat.Sparse, f *Factor, rowT axisTable) cellRows {
	// Add left start zero at every row without words.
	for r := 1; r < len(f.start); r++ {
		f.start[r] = max(f.start[r], f.start[r-1])
	}
	g := cellRows{start: make([]int32, t.reps*t.br+1)}
	acc := newBucketAcc(t.bc)
	start, rows := make([]int32, t.br+1), make([]int32, t.rows)
	for rep := 0; rep < t.reps; rep++ {
		rowT.group(rep, start, rows)
		for u := 0; u < t.br; u++ {
			for _, i := range rows[start[u]:start[u+1]] {
				cols, vals := a.Row(int(i))
				f.addRows(acc, rep*a.Cols(), cols, vals, rowT.sign[rep*t.rows+int(i)])
			}
			for _, v := range acc.touched[:acc.n] {
				if x := acc.sum[v]; x != 0 {
					g.bkt, g.val = append(g.bkt, v), append(g.val, x)
				}
				acc.sum[v], acc.seen[v] = 0, false
			}
			acc.n = 0
			g.start[rep*t.br+u+1] = int32(len(g.bkt))
		}
	}
	return g
}

// addRows adds sign·vals[x] times row base+cols[x] of the factor into
// acc, for every x: one row of A times the compressed B.
//
//mp:hotpath
func (f *Factor) addRows(acc *bucketAcc, base int, cols []int32, vals []int64, sign int64) {
	for x, k := range cols {
		w := sign * vals[x]
		buckets, words := f.row(base + int(k))
		for y, v := range buckets {
			acc.add(v, w*words[y])
		}
	}
}

// decode is Decode over the grid's non-zero cells. PointQuery's median
// is element reps/2 of reps sorted values, so it is zero whenever more
// than half of them are: entry (i, j) can decode non-zero only if at
// least ⌈reps/2⌉ repetitions put it on a non-zero cell. Row by row,
// each repetition's non-zero cells in the row's bucket row hand their
// values to the columns of their bucket; only the columns that
// collected enough are evaluated.
func (t *TensorCS) decode(g cellRows, rowT axisTable) []intmat.Entry {
	colT := newAxisTable(t.colHash, t.colSign, t.cols, t.bc)
	colStart, colList := make([]int32, t.reps*(t.bc+1)), make([]int32, t.reps*t.cols)
	for rep := 0; rep < t.reps; rep++ {
		colT.group(rep, colStart[rep*(t.bc+1):(rep+1)*(t.bc+1)], colList[rep*t.cols:(rep+1)*t.cols])
	}
	var (
		out   []intmat.Entry
		need  = int32(t.reps+1) / 2
		count = make([]int32, t.cols)        // non-zero repetitions of (i, j) so far
		vals  = make([]int64, t.cols*t.reps) // their signed values, reps slots per column
		hit   = make([]int32, 0, t.cols)     // the columns with count > 0
	)
	for i := 0; i < t.rows; i++ {
		hit = hit[:0]
		for rep := 0; rep < t.reps; rep++ {
			buckets, cells := g.row(rep*t.br + int(rowT.bucket[rep*t.rows+i]))
			starts, list, sign := colStart[rep*(t.bc+1):], colList[rep*t.cols:], colT.sign[rep*t.cols:]
			for c, v := range buckets {
				x := rowT.sign[rep*t.rows+i] * cells[c]
				for _, j := range list[starts[v]:starts[v+1]] {
					if count[j] == 0 {
						hit = append(hit, j)
					}
					vals[int(j)*t.reps+int(count[j])] = x * sign[j]
					count[j]++
				}
			}
		}
		slices.Sort(hit)
		for _, j := range hit {
			n := count[j]
			count[j] = 0
			if n < need {
				continue
			}
			if v := medianWithZeros(vals[int(j)*t.reps:][:n], t.reps); v != 0 {
				out = append(out, intmat.Entry{I: i, J: int(j), V: v})
			}
		}
	}
	return out
}

// medianWithZeros returns element total/2 of the ascending order of nz
// together with total−len(nz) zeros. nz holds no zero and is sorted in
// place.
//
//mp:hotpath
func medianWithZeros(nz []int64, total int) int64 {
	for a := 1; a < len(nz); a++ {
		for b := a; b > 0 && nz[b] < nz[b-1]; b-- {
			nz[b], nz[b-1] = nz[b-1], nz[b]
		}
	}
	neg := 0
	for neg < len(nz) && nz[neg] < 0 {
		neg++
	}
	m, zeros := total/2, total-len(nz)
	switch {
	case m < neg:
		return nz[m]
	case m < neg+zeros:
		return 0
	default:
		return nz[m-zeros]
	}
}
