package core

import (
	"math/bits"

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
// product (kernels_test.go pins it). The exact-ℓ1 serve path is one long
// int64 dot product (dotInt64).
//
// At p = 1 a sampled row over non-negative rows of B needs no product:
// there every entry of row · B is non-negative, so its ℓ1 norm is
// Σ_k a_k·‖B_k‖₁, one multiply-add per non-zero of the row against B's
// precomputed row sums (the identity BobExactL1State serves). The paper's
// headline p = 1 input — a natural join over non-negative relations —
// is always this case; lpPow stays the path for p ≠ 1, signed rows and
// totals past 2⁵³.

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

// l1Limit bounds the totals l1RowSum answers: below 2⁵³ every integer
// is a float64, so each partial sum of lpPow's in-order p = 1 fold over
// a non-negative row is exact and the fold is the total, converted once.
const l1Limit = 1 << 53

// l1RowSums returns, for every row of B, the sum l1RowSum reads: the
// row's sum when its entries are non-negative and it stays below
// l1Limit, −1 otherwise (no total through such a row is answered).
func l1RowSums(nz *intmat.Sparse) []int64 {
	sums := make([]int64, nz.Rows())
	for k := range sums {
		sums[k] = l1RowSumOf(nz, k)
	}
	return sums
}

// l1RowSumOf is one row's entry of l1RowSums.
func l1RowSumOf(nz *intmat.Sparse, k int) int64 {
	var sum int64
	_, vals := nz.Row(k)
	for _, v := range vals {
		if v < 0 || v >= l1Limit-sum {
			return -1
		}
		sum += v
	}
	return sum
}

// l1RowSum computes ‖row · B‖₁ for the sparse row (cols, vals) of A as
// Σ_k a_k·rowSums[k], exactly: ok is false — and the caller runs lpPow —
// for a negative coefficient, a row of B marked −1, or a total that
// would reach l1Limit (checked before each add, on the full 128-bit
// product, so nothing overflows). When ok, norm is bit-identical to
// lpPow(nz, y, cols, vals, 1).
//
//mp:hotpath
func l1RowSum(rowSums []int64, cols []int32, vals []int64) (norm float64, ok bool) {
	var total uint64
	for t, k := range cols {
		v, s := vals[t], rowSums[k]
		if v < 0 || s < 0 {
			return 0, false
		}
		hi, prod := bits.Mul64(uint64(v), uint64(s))
		if hi != 0 || prod >= l1Limit-total {
			return 0, false
		}
		total += prod
	}
	return float64(total), true
}
