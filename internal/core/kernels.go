package core

import (
	"repro/internal/comm"
	"repro/internal/intmat"
)

// Serve kernels. Round 2 of Algorithm 1 evaluates every sampled row of
// C exactly: (sparse row of A) · B, then an ℓp fold. There is one
// kernel for it, plus the exact p = 1 identity (l1RowSum, below), and
// it walks B's non-zeros — the per-row lists of an intmat.Sparse, the
// one non-zero form every kernel in this package reads — rather than B's
// columns: the paper's inputs are set-intersection joins, sparse by
// nature, and every matrix the benchmark serves is at most one-fifth
// full. Measured at 512 columns and 10-non-zero rows of A, p = 1 (µs per
// sampled row, best of three; the dense column-tiled kernel this one
// replaced → this one):
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
// product (kernels_test.go pins it). Every entry of y is bounded by the
// row's checked fold against B's row totals (rowTotals.foldRow), which
// round 2 takes first, so lpPow's int64 products never wrap.
//
// At p = 1 a sampled row over non-negative rows of B needs no product:
// there every entry of row · B is non-negative, so its ℓ1 norm is
// Σ_k a_k·‖B_k‖₁, that same fold (the identity BobExactL1State serves).
// The paper's headline p = 1 input — a natural join over non-negative
// relations — is always this case; lpPow stays the path for p ≠ 1,
// signed rows and totals past 2⁵³.

// lpPow computes ‖row · B‖p^p for the sparse row (cols, vals) of A and
// the non-zero lists nz of B — every index in cols must be a row of B.
// The scratch y must be nz.Cols() long; its contents are overwritten.
//
//mp:hotpath
func lpPow(nz *intmat.Sparse, y []int64, cols []int32, vals []int64, p float64) float64 {
	clear(y)
	for t, k := range cols {
		v := vals[t]
		if v == 0 {
			continue
		}
		bc, bv := nz.Row(int(k))
		bv = bv[:len(bc)]
		for i, c := range bc {
			y[c] += v * bv[i]
		}
	}
	return rowLpPow(y, p)
}

// axpyFloat24 accumulates y += a·x for float sketch words x as
// comm.Float24sInto lands them — the top 32 bits of each binary64
// pattern, rebuilt with a shift — the combination primitive Alice builds
// sketches of rows of C with, from Bob's sketches of rows of B and
// integer coefficients from A: a few hundred words a call, thousands of
// calls a query. Every word is its own sum, so the 4-way unrolling (one
// bounds check, hoisted) changes no float.
//
//mp:hotpath
func axpyFloat24(y []float64, a float64, x []uint32) {
	y = y[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y[i] += a * comm.Float24(x[i])
		y[i+1] += a * comm.Float24(x[i+1])
		y[i+2] += a * comm.Float24(x[i+2])
		y[i+3] += a * comm.Float24(x[i+3])
	}
	for ; i < len(x); i++ {
		y[i] += a * comm.Float24(x[i])
	}
}
