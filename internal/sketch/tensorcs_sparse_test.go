package sketch

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/field"
	"repro/internal/intmat"
	"repro/internal/rng"
)

// The pipeline the protocols run — RowCompressor, Factor, Recover —
// against the dense definition it replaces on the serving path:
// ColCompress → SketchFromCompressed → Decode. Every word, every grid
// cell and every recovered entry (value and order, false positives
// included) must agree.

// randSigned fills a rows×cols matrix at the given density with values
// in [−maxAbs, maxAbs] \ {0}.
func randSigned(r *rng.RNG, rows, cols int, density float64, maxAbs int64) *intmat.Dense {
	m := intmat.NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Bernoulli(density) {
				v := 1 + r.Int63n(maxAbs)
				if r.Bernoulli(0.5) {
					v = -v
				}
				m.Set(i, j, v)
			}
		}
	}
	return m
}

// compressRows runs the RowCompressor over every (repetition, row) of b
// and returns the words laid out as ColCompress lays them out, with the
// number of words the compressor returned as zero (a bucket whose
// entries cancelled).
func compressRows(t *testing.T, ts *TensorCS, b *intmat.Dense) (words []int64, cancelled int) {
	t.Helper()
	bs := intmat.FromDense(b)
	rc := ts.NewRowCompressor()
	words = make([]int64, ts.CompressedSize())
	for rep := 0; rep < ts.Reps(); rep++ {
		for k := 0; k < b.Rows(); k++ {
			cols, vals := bs.Row(k)
			buckets, ws := rc.Row(rep, cols, vals)
			if !sort.SliceIsSorted(buckets, func(x, y int) bool { return buckets[x] < buckets[y] }) {
				t.Fatalf("row %d: RowCompressor returned buckets out of order: %v", k, buckets)
			}
			for x, v := range buckets {
				if x > 0 && buckets[x-1] == v {
					t.Fatalf("row %d: RowCompressor returned bucket %d twice", k, v)
				}
				words[(rep*b.Rows()+k)*ts.GridSide()+int(v)] = ws[x]
				if ws[x] == 0 {
					cancelled++
				}
			}
		}
	}
	return words, cancelled
}

// factorOf keeps the non-zero words of a dense compressed factor, as
// Alice's read of the message does.
func factorOf(ts *TensorCS, compressed []int64) *Factor {
	f := ts.NewFactor()
	for idx, v := range compressed {
		if v != 0 {
			f.Add(idx, v)
		}
	}
	return f
}

// checkPipeline holds the pipeline to the dense definition on one
// instance and reports what the instance exercised.
func checkPipeline(t *testing.T, ts *TensorCS, a, b *intmat.Dense) (cancelled, zeroCells, falsePositives int) {
	t.Helper()
	dense := ts.ColCompress(b)
	words, cancelled := compressRows(t, ts, b)
	if !reflect.DeepEqual(words, dense) {
		t.Fatal("RowCompressor's words differ from ColCompress")
	}

	wantGrid := ts.SketchFromCompressed(a, dense)
	as, f := intmat.FromDense(a), factorOf(ts, dense)
	rowT := newAxisTable(ts.rowHash, ts.rowSign, ts.rows, ts.br)
	g := ts.complete(as, f, rowT)
	gotGrid := make([]int64, len(wantGrid))
	for r := 0; r+1 < len(g.start); r++ {
		for c := g.start[r]; c < g.start[r+1]; c++ {
			if g.val[c] == 0 || gotGrid[r*ts.bc+int(g.bkt[c])] != 0 {
				t.Fatalf("grid row %d lists cell %d zero or twice", r, g.bkt[c])
			}
			gotGrid[r*ts.bc+int(g.bkt[c])] = g.val[c]
		}
	}
	if !reflect.DeepEqual(gotGrid, wantGrid) {
		t.Fatal("completed grid differs from SketchFromCompressed")
	}

	want := ts.Decode(wantGrid)
	got := ts.Recover(as, f)
	if len(got) != len(want) {
		t.Fatalf("Recover returned %d entries, Decode %d", len(got), len(want))
	}
	for x := range want {
		if got[x] != want[x] {
			t.Fatalf("entry %d: Recover %+v, Decode %+v", x, got[x], want[x])
		}
	}

	// What the instance exercised: grid cells several products met in
	// and left at zero, and decoded entries the product does not have.
	abs := func(m *intmat.Dense) *intmat.Dense {
		o := m.Clone()
		for i := 0; i < o.Rows(); i++ {
			for j, v := range o.Row(i) {
				if v < 0 {
					o.Set(i, j, -v)
				}
			}
		}
		return o
	}
	reached := ts.SketchFromCompressed(abs(a), absCompress(ts, b))
	for x := range reached {
		if reached[x] != 0 && wantGrid[x] == 0 {
			zeroCells++
		}
	}
	c := a.Mul(b)
	for _, e := range want {
		if c.Get(e.I, e.J) != e.V {
			falsePositives++
		}
	}
	return cancelled, zeroCells, falsePositives
}

// absCompress is ColCompress with every sign and entry made positive:
// its non-zero words are the buckets the rows of b reach.
func absCompress(ts *TensorCS, b *intmat.Dense) []int64 {
	out := make([]int64, ts.CompressedSize())
	for rep := 0; rep < ts.reps; rep++ {
		for k := 0; k < ts.inner; k++ {
			for j, v := range b.Row(k) {
				if v != 0 {
					out[(rep*ts.inner+k)*ts.bc+ts.colHash[rep].Bucket(uint64(j), ts.bc)]++
				}
			}
		}
	}
	return out
}

func TestSparsePipelineMatchesDenseReference(t *testing.T) {
	type instance struct {
		name             string
		rows, inner, col int
		densA, densB     float64
		maxAbs           int64
		s                int  // sparsity the sketch is sized for
		blank            bool // zero out some rows and columns of both factors
	}
	cases := []instance{
		{name: "signed", rows: 24, inner: 24, col: 24, densA: 0.15, densB: 0.15, maxAbs: 4, s: 120},
		{name: "unit-values-cancel", rows: 30, inner: 30, col: 30, densA: 0.3, densB: 0.3, maxAbs: 1, s: 4},
		{name: "multi-byte-values", rows: 16, inner: 20, col: 18, densA: 0.2, densB: 0.2, maxAbs: 5000, s: 80},
		{name: "empty-rows-and-columns", rows: 26, inner: 22, col: 28, densA: 0.2, densB: 0.2, maxAbs: 3, s: 60, blank: true},
		{name: "wide", rows: 7, inner: 40, col: 33, densA: 0.1, densB: 0.1, maxAbs: 3, s: 40},
		{name: "tall", rows: 20, inner: 30, col: 12, densA: 0.1, densB: 0.1, maxAbs: 3, s: 40},
		{name: "undersized", rows: 40, inner: 40, col: 40, densA: 0.1, densB: 0.1, maxAbs: 3, s: 1},
		{name: "dense", rows: 12, inner: 12, col: 12, densA: 1, densB: 1, maxAbs: 2, s: 144},
		{name: "zero", rows: 9, inner: 9, col: 9, s: 1},
	}
	exercised := map[string][3]int{}
	for ci, c := range cases {
		for _, reps := range []int{1, 4, 5, 11} {
			t.Run(fmt.Sprintf("%s/reps=%d", c.name, reps), func(t *testing.T) {
				r := rng.New(uint64(7000 + 10*ci + reps))
				a := randSigned(r, c.rows, c.inner, c.densA, max(c.maxAbs, 1))
				b := randSigned(r, c.inner, c.col, c.densB, max(c.maxAbs, 1))
				if c.blank {
					for x := 0; x < c.inner; x++ {
						a.Set(3, x, 0)
						a.Set(c.rows-1, x, 0)
						b.Set(x, 0, 0)
						b.Set(x, 5, 0)
					}
					for x := 0; x < c.rows; x++ {
						a.Set(x, 2, 0)
					}
					for x := 0; x < c.col; x++ {
						b.Set(2, x, 0) // row 2 of B meets the empty column 2 of A
						b.Set(7, x, 0)
					}
				}
				ts := NewTensorCS(rng.New(uint64(7500+ci)), c.rows, c.inner, c.col, c.s, reps)
				cancelled, zeroCells, falsePos := checkPipeline(t, ts, a, b)
				e := exercised[c.name]
				exercised[c.name] = [3]int{e[0] + cancelled, e[1] + zeroCells, e[2] + falsePos}
			})
		}
	}
	// The cases named for a collision must have had it, or they pin
	// nothing.
	if e := exercised["unit-values-cancel"]; e[0] == 0 || e[1] == 0 {
		t.Fatalf("unit-values-cancel: %d cancelled factor words, %d cancelled grid cells; want both", e[0], e[1])
	}
	if e := exercised["undersized"]; e[2] == 0 {
		t.Fatal("undersized: the sketch decoded no false positive")
	}
}

// TestRowCompressorCancellingBucket: two entries of one row that share
// a bucket and cancel there are reported as that bucket with a zero
// word — a zero byte on the wire, as ColCompress's zero word is.
func TestRowCompressorCancellingBucket(t *testing.T) {
	ts := NewTensorCS(rng.New(7900), 4, 4, 64, 1, 3) // 8 column buckets for 64 columns
	j1, j2 := -1, -1
	for j := 1; j < 64 && j1 < 0; j++ {
		for i := 0; i < j; i++ {
			if ts.colHash[1].Bucket(uint64(i), ts.bc) == ts.colHash[1].Bucket(uint64(j), ts.bc) {
				j1, j2 = i, j
				break
			}
		}
	}
	s1, s2 := int64(ts.colSign[1].Sign(uint64(j1))), int64(ts.colSign[1].Sign(uint64(j2)))
	rc := ts.NewRowCompressor()
	buckets, words := rc.Row(1, []int32{int32(j1), int32(j2)}, []int64{5 * s1, -5 * s2})
	if len(buckets) != 1 || int(buckets[0]) != ts.colHash[1].Bucket(uint64(j1), ts.bc) || words[0] != 0 {
		t.Fatalf("cancelling pair compressed to buckets %v words %v", buckets, words)
	}
	// The scratch is clean again: the next row sees none of it.
	buckets, words = rc.Row(1, []int32{int32(j1)}, []int64{7})
	if len(buckets) != 1 || words[0] != 7*s1 {
		t.Fatalf("row after a cancelling one compressed to buckets %v words %v", buckets, words)
	}
	if buckets, _ = rc.Row(0, nil, nil); len(buckets) != 0 {
		t.Fatalf("empty row reached buckets %v", buckets)
	}
}

// TestMedianWithZeros: against the sort PointQuery does, over every
// small multiset, even and odd totals.
func TestMedianWithZeros(t *testing.T) {
	vals := []int64{-7, -1, 1, 2, 9}
	for total := 1; total <= 6; total++ {
		var nz []int64
		var rec func(from int)
		rec = func(from int) {
			all := append(make([]int64, total-len(nz)), nz...)
			sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
			if got := medianWithZeros(append([]int64(nil), nz...), total); got != all[total/2] {
				t.Fatalf("medianWithZeros(%v, %d) = %d, the sorted multiset has %d", nz, total, got, all[total/2])
			}
			if len(nz) == total {
				return
			}
			for x := from; x < len(vals); x++ {
				nz = append(nz, vals[x])
				rec(x)
				nz = nz[:len(nz)-1]
			}
		}
		rec(0)
	}
}

// TestRecoverRejectsForeignInputs: shape and ownership mismatches are
// the caller's bug and panic, as the dense reference's do.
func TestRecoverRejectsForeignInputs(t *testing.T) {
	ts := NewTensorCS(rng.New(7950), 6, 5, 4, 3, 3)
	other := NewTensorCS(rng.New(7951), 6, 7, 4, 3, 3)
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected a panic", name)
			}
		}()
		f()
	}
	expectPanic("A of another shape", func() { ts.Recover(intmat.FromDense(intmat.NewDense(6, 7)), ts.NewFactor()) })
	expectPanic("another sketch's factor", func() { ts.Recover(intmat.FromDense(intmat.NewDense(6, 5)), other.NewFactor()) })
}

// TestAxpyFieldSparse: the combine over a vector's non-zero words is
// AxpyField over the dense vector — negative and zero multipliers
// included — and an index past the accumulator panics.
func TestAxpyFieldSparse(t *testing.T) {
	r := rng.New(7960)
	x := make([]field.Elem, 40)
	var idx []int
	var words []field.Elem
	for i := range x {
		if r.Bernoulli(0.3) || i == 7 || i == len(x)-1 {
			x[i] = 1 + field.Reduce(r.Uint64())%(field.P-1)
			idx, words = append(idx, i), append(words, x[i])
		}
	}
	for _, a := range []int64{3, -5, 0, 1 << 40} {
		want, got := make([]field.Elem, len(x)), make([]field.Elem, len(x))
		for i := range want {
			want[i] = field.Reduce(r.Uint64())
			got[i] = want[i]
		}
		AxpyField(want, a, x)
		AxpyFieldSparse(got, a, idx, words)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("a = %d: AxpyFieldSparse differs from AxpyField", a)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("an index past the accumulator must panic")
		}
	}()
	AxpyFieldSparse(make([]field.Elem, 39), 1, idx, words)
}

// TestSupportListsWhatAddCoordWrites: for both ℓ0 sketch families, the
// words Support names for a coordinate are exactly the words AddCoord
// changes in a zero sketch, so a sketch built by AddCoord is zero
// outside the Support of its coordinates.
func TestSupportListsWhatAddCoordWrites(t *testing.T) {
	const n = 200
	l0 := NewL0(rng.New(7970), n, 32)
	sampler := NewL0Sampler(rng.New(7971), n, 4)
	for name, sk := range map[string]struct {
		dim      int
		addCoord func([]field.Elem, int, int64)
		support  func([]int, int) []int
	}{
		"L0":        {l0.Dim(), l0.AddCoord, l0.Support},
		"L0Sampler": {sampler.Dim(), sampler.AddCoord, sampler.Support},
	} {
		for j := 0; j < n; j++ {
			y := make([]field.Elem, sk.dim)
			sk.addCoord(y, j, -3)
			var written []int
			for w, v := range y {
				if v != 0 {
					written = append(written, w)
				}
			}
			at := sk.support([]int{-1}, j)
			if at[0] != -1 {
				t.Fatalf("%s: Support overwrote dst", name)
			}
			got := append([]int(nil), at[1:]...)
			slices.Sort(got)
			if !slices.Equal(got, written) {
				t.Fatalf("%s: coordinate %d writes words %v, Support names %v", name, j, written, got)
			}
		}
	}
}
