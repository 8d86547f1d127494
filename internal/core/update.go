package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/bitmat"
	"repro/internal/comm"
	"repro/internal/intmat"
)

// Incremental maintenance of Bob states under row updates.
//
// Every sketch and summary a Bob state precomputes is assembled from
// independent per-row contributions — fixed-size per-row ℓp sketch
// blocks (lp), per-row non-zero lists (lp, l1sample, hh), the same
// lists transposed (l0sample), and B's row totals (every state but
// l0sample's), whose signed-row count each patch moves by the patched
// rows alone. Every UpdateRows but l0sample's is therefore the same
// three steps: updatedRows, rowTotals.patched, then only the kind's own
// part — lp's splice of its round-1 blocks, hh's nested state.
// Replacing a row of B replaces exactly that row's contribution, and
// because the shared sketch families are drawn from the seed before
// any row is touched, the incrementally updated state is *identical*
// to one rebuilt from scratch on the new matrix: same round-1 bytes,
// same Serve transcripts, same outputs, bit for bit.
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

// shape is what a served matrix, integer or Boolean, tells of its size.
type shape interface {
	Rows() int
	Cols() int
}

// updatedRows is the opening of every UpdateRows: nb must be n × cols,
// the dimensions the state was built with, and the updated-row list
// comes back sorted, deduplicated and bounds-checked.
func updatedRows(nb shape, n, cols int, rows []int) ([]int, error) {
	if nb.Rows() != n || nb.Cols() != cols {
		return nil, ErrUpdateShape
	}
	for _, k := range rows {
		if k < 0 || k >= n {
			return nil, fmt.Errorf("%w: row %d outside %d-row matrix", ErrUpdateShape, k, n)
		}
	}
	out := slices.Clone(rows)
	slices.Sort(out)
	return slices.Compact(out), nil
}

// UpdateRows derives the BobLpState of nb from an existing state by
// re-sketching only the listed rows. The round-1 payload is a
// concatenation of fixed-size per-row sketch blocks (every row's
// sketch has the same word count within a repetition, and the same
// across repetitions: 3·width bytes of Float24 words at p > 0, a
// prefixed field row at p = 0), so the new rows' encodings are spliced
// into a copy of the retained bytes at their block offsets — the result
// is byte-identical to NewBobLpState(nb, p, opts), and the listed rows'
// totals are recomputed the same way. The sketch families are
// the receiver's (drawn from the seed alone, they do not depend on the
// matrix), and the successor keeps nb's lists as the constructor does:
// those of a *intmat.Sparse — the registry's patched successor, which
// shares every untouched row with the receiver's — are borrowed.
func (s *BobLpState) UpdateRows(nb intmat.Matrix, rows []int) (*BobLpState, error) {
	rows, err := updatedRows(nb, s.nz.Rows(), s.nz.Cols(), rows)
	if err != nil {
		return nil, err
	}
	nz := nb.List()
	return s.spliced(nz, s.tot.patched(listTotal(nz), rows), rows)
}

// spliced is the state of nz, whose listed rows differ from the
// receiver's matrix, given nz's row totals: the receiver's round 1 with
// those rows' blocks re-sketched.
func (s *BobLpState) spliced(nz *intmat.Sparse, tot *rowTotals, rows []int) (*BobLpState, error) {
	// Every row's block has one size, so row k of repetition rep sits at
	// block (rep·n + k); a re-sketched block of any other size means nb
	// is not a matrix this state's layout can hold.
	n := nz.Rows()
	round1 := append([]byte(nil), s.round1...)
	for rep, rs := range s.sketchers {
		for _, k := range rows {
			msg := comm.NewMessage()
			rs.encodeRowRange(msg, nz, k, k+1)
			blk := msg.Bytes()
			if len(blk)*len(s.sketchers)*n != len(round1) {
				return nil, fmt.Errorf("%w: a %d-byte row sketch block does not tile the state's %d-byte round-1 layout", ErrUpdateShape, len(blk), len(round1))
			}
			copy(round1[(rep*n+k)*len(blk):], blk)
		}
	}
	ns := *s
	ns.round1, ns.nz, ns.tot = round1, nz, tot
	// A fresh Alice: the parent's view is of the parent's round 1.
	ns.alice = &AliceLpState{p: s.p, opts: s.opts, sketchers: s.sketchers}
	return &ns, nil
}

// UpdateRows derives the BobL0SampleState of nb: one transpose of its
// lists, as the constructor does — O(nnz), as every column list has to
// be searched for the replaced rows' entries one way or another.
func (s *BobL0SampleState) UpdateRows(nb intmat.Matrix, rows []int) (*BobL0SampleState, error) {
	if _, err := updatedRows(nb, s.byCol.Cols(), s.byCol.Rows(), rows); err != nil {
		return nil, err
	}
	return &BobL0SampleState{byCol: nb.List().Transpose(), opts: s.opts}, nil
}

// UpdateRows derives the BobExactL1State of nb by recomputing only the
// listed rows' totals. The updated rows must be non-negative.
func (s *BobExactL1State) UpdateRows(nb intmat.Matrix, rows []int) (*BobExactL1State, error) {
	rows, err := updatedRows(nb, len(s.tot.abs), nb.Cols(), rows) // the state never kept B's width
	if err != nil {
		return nil, err
	}
	return exactL1State(s.tot.patched(listTotal(nb), rows))
}

// UpdateRows derives the BobL1SampleState of nb by recomputing only
// the listed rows' totals; the updated rows must be non-negative.
func (s *BobL1SampleState) UpdateRows(nb intmat.Matrix, rows []int) (*BobL1SampleState, error) {
	rows, err := updatedRows(nb, s.b.Rows(), s.b.Cols(), rows)
	if err != nil {
		return nil, err
	}
	nz := nb.List()
	return l1SampleState(nz, s.tot.patched(listTotal(nz), rows))
}

// UpdateRows derives the BobLinfState of nb by recomputing only the
// listed rows' weights.
func (s *BobLinfState) UpdateRows(nb *bitmat.Matrix, rows []int) (*BobLinfState, error) {
	rows, err := updatedRows(nb, s.b.Rows(), s.b.Cols(), rows)
	if err != nil {
		return nil, err
	}
	return &BobLinfState{b: nb, tot: s.tot.patched(bitTotal(nb), rows), opts: s.opts}, nil
}

// UpdateRows derives the BobLinfKappaState of nb by recomputing only
// the listed rows' weights.
func (s *BobLinfKappaState) UpdateRows(nb *bitmat.Matrix, rows []int) (*BobLinfKappaState, error) {
	rows, err := updatedRows(nb, s.b.Rows(), s.b.Cols(), rows)
	if err != nil {
		return nil, err
	}
	return &BobLinfKappaState{b: nb, tot: s.tot.patched(bitTotal(nb), rows), opts: s.opts}, nil
}

// UpdateRows derives the BobHHState of nb by keeping its lists as the
// constructor does, recomputing the listed rows' totals (which carry
// B's signedness), and incrementally updating the nested Algorithm 1
// state when the old state had built it — handing it the same lists
// and totals, so the two keep sharing them.
func (s *BobHHState) UpdateRows(nb intmat.Matrix, rows []int) (*BobHHState, error) {
	rows, err := updatedRows(nb, s.nz.Rows(), s.nz.Cols(), rows)
	if err != nil {
		return nil, err
	}
	nz := nb.List()
	ns := &BobHHState{nz: nz, tot: s.tot.patched(listTotal(nz), rows), opts: s.opts}
	s.nestedMu.Lock()
	built, nested, nerr := s.nestedBuilt, s.nested, s.nestedErr
	s.nestedMu.Unlock()
	if built && nerr == nil && nested != nil {
		if nn, err := nested.spliced(ns.nz, ns.tot, rows); err == nil {
			ns.nested, ns.nestedBuilt = nn, true
		}
		// On failure the nested state is left unbuilt and re-derived
		// lazily, exactly as a fresh NewBobHHState would.
	}
	return ns, nil
}
