package core

import "repro/internal/intmat"

// Serve kernels. Round 2 of Algorithm 1 evaluates every sampled row of
// C exactly: (sparse row of A) · B, then an ℓp fold. There is one
// kernel for it, and it walks B's non-zeros rather than B's columns:
// the paper's inputs are set-intersection joins, sparse by nature, and
// every matrix the benchmark serves is at most one-fifth full. Measured
// at 512 columns and 10-non-zero rows of A, p = 1 (µs per sampled row,
// best of three; the dense column-tiled kernel this one replaced → this
// one):
//
//	density of B   0.02          0.2          0.5          1.0
//	µs per row     3.8 → 0.50    3.7 → 1.3    3.8 → 3.0    4.1 → 5.2
//
// The lists lose only past two-thirds full, by a quarter at worst, and
// no workload sits there — so there is no dense twin and no density
// switch to keep in step with it (DESIGN.md, "The row-shard parallel
// serve path").
//
// Determinism contract: integer accumulation is reordered freely
// (int64 addition is exact and commutative, wraparound included), so
// the product row y is the dense product's row; the float ℓp fold then
// visits y in sequential column order with one running accumulator, so
// the result is bit-identical to rowLpPow over the row of the dense
// product (kernels_test.go pins it). The exact-ℓ1 serve path is one long
// int64 dot product (dotInt64).

// nzRow is the non-zero list of one row of B: ascending column indices
// with their values, 12 bytes per non-zero (a dense row too wide for
// int32 would be 16 GiB on its own).
type nzRow struct {
	cols []int32
	vals []int64
}

// nzRowBytes is the fixed cost of one nzRow (two slice headers).
const nzRowBytes = 48

// nzMatrix is B as per-row non-zero lists — what round 2 multiplies
// against. Immutable once built; withRows derives the successor of a
// row update and shares every untouched row's list with it.
type nzMatrix struct {
	rows  []nzRow
	width int   // B's column count: the length of a product row
	bytes int64 // memory retained by rows
}

// newNZMatrix lists the non-zeros of every row of b. The lists of one
// build share two backing arrays, so construction is three allocations
// however many rows b has.
func newNZMatrix(b *intmat.Dense) *nzMatrix {
	nnz := b.L0()
	m := &nzMatrix{rows: make([]nzRow, b.Rows()), width: b.Cols()}
	cols := make([]int32, 0, nnz)
	vals := make([]int64, 0, nnz)
	for k := range m.rows {
		lo := len(cols)
		cols, vals = appendNZ(cols, vals, b.Row(k))
		m.rows[k] = nzRow{cols: cols[lo:len(cols):len(cols)], vals: vals[lo:len(vals):len(vals)]}
	}
	m.bytes = int64(len(m.rows))*nzRowBytes + 12*int64(nnz)
	return m
}

// appendNZ appends the non-zeros of one dense row.
func appendNZ(cols []int32, vals []int64, row []int64) ([]int32, []int64) {
	for j, v := range row {
		if v != 0 {
			cols = append(cols, int32(j))
			vals = append(vals, v)
		}
	}
	return cols, vals
}

// withRows returns the non-zero lists of nb, which differs from the
// receiver's matrix only in the listed rows: those rows are re-listed,
// every other row shares its list with the receiver.
func (m *nzMatrix) withRows(nb *intmat.Dense, rows []int) *nzMatrix {
	nm := &nzMatrix{rows: append([]nzRow(nil), m.rows...), width: m.width, bytes: m.bytes}
	for _, k := range rows {
		cols, vals := appendNZ(nil, nil, nb.Row(k))
		nm.bytes += 12 * int64(len(cols)-len(nm.rows[k].cols))
		nm.rows[k] = nzRow{cols: cols, vals: vals}
	}
	return nm
}

// lpPow computes ‖row · B‖p^p for the sparse row (cols, vals) of A —
// every index in cols must be a row of B. The scratch y must be
// m.width long; its contents are overwritten.
//
//mp:hotpath
func (m *nzMatrix) lpPow(y []int64, cols []int, vals []int64, p float64) float64 {
	clear(y)
	for t, k := range cols {
		v := vals[t]
		if v == 0 {
			continue
		}
		r := &m.rows[k]
		rv := r.vals[:len(r.cols)]
		for i, c := range r.cols {
			y[c] += v * rv[i]
		}
	}
	return rowLpPow(y, p)
}

// dotInt64 is the int64 dot product, 4-way unrolled so the four
// independent accumulator chains pipeline (exact: int64 addition is
// associative and commutative, wraparound included).
//
//mp:hotpath
func dotInt64(a, b []int64) int64 {
	if len(b) < len(a) {
		a = a[:len(b)]
	}
	var s0, s1, s2, s3 int64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return s0 + s1 + s2 + s3
}

// dotInt64Sharded is dotInt64 over contiguous shard ranges — the
// exact-ℓ1 serve kernel. Partial sums are recombined in shard order;
// exactness makes the shard count invisible in the answer.
func dotInt64Sharded(a, b []int64, shards int) int64 {
	n := len(a)
	if n < minShardCheapElems || shards <= 1 {
		return dotInt64(a, b)
	}
	ranges := shardRanges(n, shards)
	if len(ranges) == 1 {
		return dotInt64(a, b)
	}
	partial := make([]int64, len(ranges))
	runShards(n, shards, func(s, lo, hi int) {
		partial[s] = dotInt64(a[lo:hi], b[lo:hi])
	})
	var total int64
	for _, p := range partial {
		total += p
	}
	return total
}
