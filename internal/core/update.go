package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/bitmat"
	"repro/internal/comm"
	"repro/internal/intmat"
)

// Incremental maintenance of Bob states under row updates.
//
// Every sketch and summary a Bob state precomputes is assembled from
// independent per-row contributions — fixed-size per-row ℓp sketch
// blocks and per-row non-zero lists (lp), per-column non-zero lists in
// row order (l0sample), per-row sums and weights (exact, l1sample,
// linf, linfkappa, hh).
// Replacing a row of B therefore replaces exactly that row's
// contribution, and because the shared sketch families are drawn from
// the seed before any row is touched, the incrementally updated state
// is *identical* to one rebuilt from scratch on the new matrix: same
// round-1 bytes, same Serve transcripts, same outputs, bit for bit.
// The update_test.go parity tests pin this for every state kind.
//
// Each UpdateRows method returns a NEW state and leaves the receiver
// untouched: states are immutable and may be serving concurrent
// queries while their successor is derived. Unchanged per-row data is
// shared between the generations where the representation allows it
// (the old state never mutates it).
//
// The caller contracts are uniform: nb is the post-update matrix,
// which must have the dimensions the state was built with and differ
// from the state's matrix only in the listed rows; rows need not be
// sorted or unique.

// ErrUpdateShape is returned when an incremental update's new matrix
// does not have the dimensions the state was built with (changing a
// served matrix's shape requires a full re-upload), or when an updated
// row index is out of range.
var ErrUpdateShape = errors.New("core: row update requires identical dimensions")

// normalizeRows sorts, dedupes, and bounds-checks an updated-row list.
func normalizeRows(rows []int, n int) ([]int, error) {
	out := make([]int, 0, len(rows))
	for _, k := range rows {
		if k < 0 || k >= n {
			return nil, fmt.Errorf("%w: row %d outside %d-row matrix", ErrUpdateShape, k, n)
		}
		out = append(out, k)
	}
	sort.Ints(out)
	uniq := out[:0]
	for i, k := range out {
		if i == 0 || k != out[i-1] {
			uniq = append(uniq, k)
		}
	}
	return uniq, nil
}

// rowNonNegative reports whether row k of m has no negative entry.
func rowNonNegative(m *intmat.Dense, k int) bool {
	for _, v := range m.Row(k) {
		if v < 0 {
			return false
		}
	}
	return true
}

// UpdateRows derives the BobLpState of nb from an existing state by
// re-sketching only the listed rows. The round-1 payload is a
// concatenation of fixed-size per-row sketch blocks (every row's
// sketch has the same word count within a repetition, and the same
// across repetitions), so the new rows' encodings are spliced into a
// copy of the retained bytes at their block offsets — the result is
// byte-identical to NewBobLpState(nb, p, opts). The sketch families are
// the receiver's (drawn from the seed alone, they do not depend on the
// matrix), and B's non-zero lists are rebuilt for the listed rows only;
// every other row's list is shared with the receiver.
func (s *BobLpState) UpdateRows(nb *intmat.Dense, rows []int) (*BobLpState, error) {
	n := s.b.Rows()
	if nb.Rows() != n || nb.Cols() != s.b.Cols() {
		return nil, ErrUpdateShape
	}
	rows, err := normalizeRows(rows, n)
	if err != nil {
		return nil, err
	}
	// Every row's block has one size, so row k of repetition rep sits at
	// block (rep·n + k); a re-sketched block of any other size means nb
	// is not a matrix this state's layout can hold.
	round1 := append([]byte(nil), s.round1...)
	for rep, rs := range s.sketchers {
		for _, k := range rows {
			msg := comm.NewMessage()
			rs.encodeRowRange(msg, nb, k, k+1)
			blk := msg.Bytes()
			if len(blk)*len(s.sketchers)*n != len(round1) {
				return nil, fmt.Errorf("%w: a %d-byte row sketch block does not tile the state's %d-byte round-1 layout", ErrUpdateShape, len(blk), len(round1))
			}
			copy(round1[(rep*n+k)*len(blk):], blk)
		}
	}
	ns := *s
	ns.b, ns.round1, ns.nz = nb, round1, s.nz.withRows(nb, rows)
	return &ns, nil
}

// UpdateRows derives the BobL0SampleState of nb by re-indexing only
// the listed rows: each column's non-zero list drops its entries for
// the updated rows and merges the new rows' non-zeros back in row
// order, which is exactly the order the from-scratch row scan emits.
// Columns the update does not touch share their lists with the old
// state.
func (s *BobL0SampleState) UpdateRows(nb *intmat.Dense, rows []int) (*BobL0SampleState, error) {
	if nb.Rows() != s.rows || nb.Cols() != s.cols {
		return nil, ErrUpdateShape
	}
	rows, err := normalizeRows(rows, s.rows)
	if err != nil {
		return nil, err
	}
	inRow := make(map[int]bool, len(rows))
	for _, k := range rows {
		inRow[k] = true
	}
	ns := &BobL0SampleState{rows: s.rows, cols: s.cols, colNZ: make([][]colEntry, s.cols), opts: s.opts}
	for j := 0; j < s.cols; j++ {
		old := s.colNZ[j]
		changed := false
		for _, e := range old {
			if inRow[e.k] {
				changed = true
				break
			}
		}
		if !changed {
			for _, k := range rows {
				if nb.Get(k, j) != 0 {
					changed = true
					break
				}
			}
		}
		if !changed {
			ns.colNZ[j] = old // shared: the old state never mutates it
			continue
		}
		// Merge the surviving old entries with the updated rows' new
		// non-zeros, both streams ascending in row index.
		var merged []colEntry
		ri := 0
		emitNew := func(limit int) {
			for ri < len(rows) && rows[ri] < limit {
				if v := nb.Get(rows[ri], j); v != 0 {
					merged = append(merged, colEntry{k: rows[ri], v: v})
				}
				ri++
			}
		}
		for _, e := range old {
			if inRow[e.k] {
				continue
			}
			emitNew(e.k)
			merged = append(merged, e)
		}
		emitNew(s.rows)
		ns.colNZ[j] = merged
	}
	return ns, nil
}

// UpdateRows derives the BobExactL1State of nb by recomputing only the
// listed rows' sums. The updated rows must be non-negative (the rest
// of nb is unchanged from a matrix the constructor already validated).
func (s *BobExactL1State) UpdateRows(nb *intmat.Dense, rows []int) (*BobExactL1State, error) {
	if nb.Rows() != len(s.rowSums) {
		return nil, ErrUpdateShape
	}
	rows, err := normalizeRows(rows, nb.Rows())
	if err != nil {
		return nil, err
	}
	rowSums := append([]int64(nil), s.rowSums...)
	for _, k := range rows {
		if !rowNonNegative(nb, k) {
			return nil, ErrNeedNonNegative
		}
		var rs int64
		for _, v := range nb.Row(k) {
			rs += v
		}
		rowSums[k] = rs
	}
	return &BobExactL1State{rowSums: rowSums, shards: s.shards}, nil
}

// UpdateRows derives the BobL1SampleState of nb by recomputing only
// the listed rows' sums; the updated rows must be non-negative.
func (s *BobL1SampleState) UpdateRows(nb *intmat.Dense, rows []int) (*BobL1SampleState, error) {
	if nb.Rows() != s.b.Rows() || nb.Cols() != s.b.Cols() {
		return nil, ErrUpdateShape
	}
	rows, err := normalizeRows(rows, nb.Rows())
	if err != nil {
		return nil, err
	}
	rowSums := append([]int64(nil), s.rowSums...)
	for _, k := range rows {
		if !rowNonNegative(nb, k) {
			return nil, ErrNeedNonNegative
		}
		var rs int64
		for _, v := range nb.Row(k) {
			rs += v
		}
		rowSums[k] = rs
	}
	return &BobL1SampleState{b: nb, rowSums: rowSums, shards: s.shards}, nil
}

// UpdateRows derives the BobLinfState of nb by recomputing only the
// listed rows' bit weights.
func (s *BobLinfState) UpdateRows(nb *bitmat.Matrix, rows []int) (*BobLinfState, error) {
	if nb.Rows() != s.b.Rows() || nb.Cols() != s.b.Cols() {
		return nil, ErrUpdateShape
	}
	rows, err := normalizeRows(rows, nb.Rows())
	if err != nil {
		return nil, err
	}
	vk := append([]int64(nil), s.vk...)
	for _, k := range rows {
		vk[k] = int64(nb.RowWeight(k))
	}
	return &BobLinfState{b: nb, vk: vk, opts: s.opts}, nil
}

// UpdateRows derives the BobLinfKappaState of nb by recomputing only
// the listed rows' bit weights.
func (s *BobLinfKappaState) UpdateRows(nb *bitmat.Matrix, rows []int) (*BobLinfKappaState, error) {
	if nb.Rows() != s.b.Rows() || nb.Cols() != s.b.Cols() {
		return nil, ErrUpdateShape
	}
	rows, err := normalizeRows(rows, nb.Rows())
	if err != nil {
		return nil, err
	}
	vk := append([]int64(nil), s.vk...)
	for _, k := range rows {
		vk[k] = int64(nb.RowWeight(k))
	}
	return &BobLinfKappaState{b: nb, vk: vk, opts: s.opts}, nil
}

// UpdateRows derives the BobHHState of nb by re-listing only the listed
// rows' non-zeros and recomputing their absolute sums, re-deriving the
// signedness flag (a full rescan is needed only when a previously
// signed matrix may have lost its last negative row), and incrementally
// updating the nested Algorithm 1 state when the old state had built
// it.
func (s *BobHHState) UpdateRows(nb *intmat.Dense, rows []int) (*BobHHState, error) {
	if nb.Rows() != s.b.Rows() || nb.Cols() != s.b.Cols() {
		return nil, ErrUpdateShape
	}
	rows, err := normalizeRows(rows, nb.Rows())
	if err != nil {
		return nil, err
	}
	ns := &BobHHState{b: nb, nz: s.nz.withRows(nb, rows), opts: s.opts}
	ns.absRowSums = append([]int64(nil), s.absRowSums...)
	patchNonNeg := true
	for _, k := range rows {
		ns.absRowSums[k], patchNonNeg = ns.nz.rows[k].absSum(patchNonNeg)
	}
	switch {
	case !patchNonNeg:
		ns.bNonNeg = false
	case s.bNonNeg:
		ns.bNonNeg = true
	default:
		// The old matrix was signed and every updated row is now
		// non-negative: the negative entry may have lived in a replaced
		// row, so re-derive the flag exactly as the constructor would.
		ns.bNonNeg = requireNonNegativeSharded(nb, s.opts.Shards) == nil
	}
	s.nestedMu.Lock()
	built, nested, nerr := s.nestedBuilt, s.nested, s.nestedErr
	s.nestedMu.Unlock()
	if built && nerr == nil && nested != nil {
		if nn, err := nested.UpdateRows(nb, rows); err == nil {
			ns.nested, ns.nestedBuilt = nn, true
		}
		// On failure the nested state is left unbuilt and re-derived
		// lazily, exactly as a fresh NewBobHHState would.
	}
	return ns, nil
}
