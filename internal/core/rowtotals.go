package core

import (
	"math/bits"
	"slices"

	"repro/internal/bitmat"
	"repro/internal/intmat"
)

// Remark 2 once. ‖AB‖₁ = Σ_k ‖A_{*,k}‖₁·‖B_{k,*}‖₁ for non-negative
// matrices, and the same fold of Alice's column totals against Bob's
// row totals is Remark 3's sampling weights, the ‖C^ℓ‖₁ level tests of
// Algorithms 2 and 3, Algorithm 4's ‖|A|·|B|‖₁ scale and, one sampled
// row of A at a time, lp's exact p = 1 rows. Every Bob state that reads
// B's row totals holds one rowTotals and folds against it here, with
// one checked multiply-add: a total that would reach its limit is
// refused, never wrapped.
//
// The folds run sequentially: each is O(n) multiply-adds over n ≤ a
// few thousand items, decoded from Alice's message one varint at a
// time just before, where a shard would cost more in pool
// synchronization than it saves. The O(nnz) build pass shards.

// The limits of the checked folds. An integer answer stays below 2⁶³.
// lp's p = 1 row total stays below 2⁵³, where every integer is a
// float64, so each partial sum of lpPow's in-order fold over a
// non-negative row is exact and float64(total) is that fold.
const (
	intLimit   = 1 << 63
	floatLimit = 1 << 53
)

// rowTotals holds, for each row k of B, ‖B_k‖₁ = Σ_j |b_kj| and whether
// the row holds a negative entry, with the count of such rows. A total
// that reaches intLimit is held at intLimit: no fold through it with a
// non-zero coefficient stays below a limit, so its exact value never
// matters. Immutable once built; patched derives a successor.
type rowTotals struct {
	abs     []uint64 // ‖B_k‖₁, held at intLimit
	signed  []uint64 // bit k%64 of word k/64: row k holds a negative entry
	nSigned int      // rows with a negative entry
}

// rowTotal returns row k's ‖B_k‖₁, held at intLimit, and whether the row
// holds a negative entry.
type rowTotal func(k int) (abs uint64, signed bool)

// listTotal totals the rows of an integer matrix from their non-zeros.
// A non-negative row whose entries, or-ed together, times its length
// stay below 2⁶³ cannot reach the limit and sums in one plain pass; a
// signed row, or one that might, takes the checked walk.
func listTotal(m intmat.Matrix) rowTotal {
	return func(k int) (uint64, bool) {
		_, vals := m.ListRow(k)
		var sum, or int64
		for _, v := range vals {
			sum += v
			or |= v
		}
		if or >= 0 && bits.Len64(uint64(or))+bits.Len(uint(len(vals))) < 64 {
			return uint64(sum), false
		}
		return checkedTotal(vals)
	}
}

// checkedTotal is Σ|v| over vals, held at intLimit, and whether one is
// negative.
func checkedTotal(vals []int64) (abs uint64, signed bool) {
	for _, v := range vals {
		u := uint64(v)
		if v < 0 {
			u, signed = -u, true
		}
		if u >= intLimit-abs {
			abs = intLimit
		} else {
			abs += u
		}
	}
	return abs, signed
}

// bitTotal totals the rows of a 0/1 matrix: a row's weight is its sum.
func bitTotal(b *bitmat.Matrix) rowTotal {
	return func(k int) (uint64, bool) { return uint64(b.RowWeight(k)), false }
}

// newRowTotals totals n rows in one pass sharded over contiguous ranges
// of whole sign words, so no two shards write one word.
func newRowTotals(n, shards int, total rowTotal) *rowTotals {
	t := &rowTotals{abs: make([]uint64, n), signed: make([]uint64, (n+63)/64)}
	runShards(len(t.signed), shards, func(_, lo, hi int) {
		for k := lo * 64; k < min(hi*64, n); k++ {
			t.put(k, total)
		}
	})
	for _, w := range t.signed {
		t.nSigned += bits.OnesCount64(w)
	}
	return t
}

// put writes row k's total and sign, and reports the sign.
func (t *rowTotals) put(k int, total rowTotal) bool {
	abs, signed := total(k)
	t.abs[k] = abs
	bit := uint64(1) << (k % 64)
	if signed {
		t.signed[k/64] |= bit
	} else {
		t.signed[k/64] &^= bit
	}
	return signed
}

// isSigned reports whether row k holds a negative entry.
func (t *rowTotals) isSigned(k int) bool { return t.signed[k/64]>>(k%64)&1 != 0 }

// patched returns the totals with the listed rows recomputed by total,
// the signed-row count moved by their change alone.
func (t *rowTotals) patched(total rowTotal, rows []int) *rowTotals {
	nt := &rowTotals{abs: slices.Clone(t.abs), signed: slices.Clone(t.signed), nSigned: t.nSigned}
	for _, k := range rows {
		if nt.isSigned(k) {
			nt.nSigned--
		}
		if nt.put(k, total) {
			nt.nSigned++
		}
	}
	return nt
}

// Bytes reports the memory the totals retain.
func (t *rowTotals) Bytes() int64 { return 8 * int64(len(t.abs)+len(t.signed)) }

// foldTotals returns Σ_k c[k]·‖B_k‖₁ — Remark 2's ‖AB‖₁ when c holds the
// column totals of A — or ok false once the sum would reach limit (at
// most intLimit). Each product is taken whole, 128 bits wide, before it
// is added, so nothing wraps. c is n long; an int read off the wire as
// an unsigned varint counts as that varint.
func foldTotals[T int | uint64](t *rowTotals, c []T, limit uint64) (total uint64, ok bool) {
	for k, tk := range t.abs {
		hi, prod := bits.Mul64(uint64(c[k]), tk)
		if hi != 0 || prod >= limit-total {
			return 0, false
		}
		total += prod
	}
	return total, true
}

// foldRow is foldTotals for one sparse row (cols, vals) of A, each
// coefficient counted by its absolute value: Σ_k |a_k|·‖B_k‖₁, which
// bounds ‖row · B‖₁ and every partial sum of every entry of row · B.
// nonNeg reports that every coefficient, and every row of B the row
// names, is non-negative: then the total is ‖row · B‖₁ itself.
//
//mp:hotpath
func (t *rowTotals) foldRow(cols []int32, vals []int64, limit uint64) (total uint64, nonNeg, ok bool) {
	vals = vals[:len(cols)]
	abs, anySigned := t.abs, t.nSigned > 0
	nonNeg = true
	for i, k := range cols {
		v := vals[i]
		u := uint64(v)
		if v < 0 {
			u, nonNeg = -u, false
		}
		if anySigned && t.isSigned(int(k)) {
			nonNeg = false
		}
		hi, prod := bits.Mul64(u, abs[k])
		if hi != 0 || prod >= limit-total {
			return 0, false, false
		}
		total += prod
	}
	return total, nonNeg, true
}
