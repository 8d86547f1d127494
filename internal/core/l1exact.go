package core

import (
	"repro/internal/comm"
	"repro/internal/intmat"
	"repro/internal/rng"
)

// ExactL1 is Remark 2: for non-negative matrices, ‖AB‖1 decomposes as
// Σ_k ‖A_{*,k}‖1·‖B_{k,*}‖1, so Alice ships her n column sums —
// O(n log n) bits, one round — and Bob computes the exact value.
//
// The identity needs non-negativity (for signed matrices cancellations
// make ‖AB‖1 genuinely hard, which is why the paper's Remark 2 is stated
// for the Boolean-matrix join setting); signed inputs return
// ErrNeedNonNegative, and a total that reaches 2⁶³ ErrOverflow.
func ExactL1(a, b *intmat.Dense) (int64, Cost, error) {
	if err := checkDims(a.Cols(), b.Rows()); err != nil {
		return 0, Cost{}, err
	}
	var total int64
	cost, err := runPair(
		func(t comm.Transport) error { return AliceExactL1(t, a) },
		func(t comm.Transport) (err error) { total, err = BobExactL1(t, b); return err },
	)
	if err != nil {
		return 0, cost, err
	}
	return total, cost, nil
}

// AliceExactL1 drives Alice's side of Remark 2 on the non-zero lists of
// her matrix: one message of column sums of A. The exact value is Bob's
// output.
func AliceExactL1(t comm.Transport, a intmat.Matrix) (err error) {
	defer recoverDecodeError(&err)
	colSums, nonNeg, err := absColumnSums(a.List())
	if err != nil {
		return err
	}
	if !nonNeg {
		return ErrNeedNonNegative
	}
	msg := comm.NewMessage()
	msg.Label = "column sums of A"
	for _, s := range colSums {
		msg.PutUvarint(uint64(s))
	}
	t.Send(comm.AliceToBob, msg)
	return nil
}

// BobExactL1 drives Bob's side of Remark 2 and returns the exact ‖AB‖1
// as Σ_k colSumA(k)·rowSumB(k).
func BobExactL1(t comm.Transport, b intmat.Matrix) (total int64, err error) {
	st, err := NewBobExactL1State(b, 1)
	if err != nil {
		return 0, err
	}
	return st.Serve(t)
}

// BobExactL1State is the matrix-dependent phase of Bob's side of
// Remark 2: the row totals of B, computed once so each served query
// only folds Alice's column sums against them. Immutable after
// construction; safe for concurrent Serve calls.
type BobExactL1State struct {
	tot *rowTotals
}

// NewBobExactL1State totals B's rows, the pass sharded over contiguous
// ranges, and refuses B if a row holds a negative entry. shards ≤ 1
// runs sequentially; the shard count never changes a transcript byte or
// an output bit.
func NewBobExactL1State(b intmat.Matrix, shards int) (*BobExactL1State, error) {
	return exactL1State(newRowTotals(b.Rows(), shards, listTotal(b.List())))
}

// exactL1State is the state over B's totals, refused while a row of B
// holds a negative entry.
func exactL1State(tot *rowTotals) (*BobExactL1State, error) {
	if tot.nSigned > 0 {
		return nil, ErrNeedNonNegative
	}
	return &BobExactL1State{tot: tot}, nil
}

// Bytes reports the memory retained by the precomputation.
func (s *BobExactL1State) Bytes() int64 { return s.tot.Bytes() }

// Serve runs the per-query phase of Bob's side of Remark 2 over t:
// Alice's column sums folded against B's row totals, or ErrOverflow
// when ‖AB‖1 reaches 2⁶³.
func (s *BobExactL1State) Serve(t comm.Transport) (total int64, err error) {
	defer recoverDecodeError(&err)
	recv := t.Recv(comm.AliceToBob)
	colSums := make([]uint64, len(s.tot.abs))
	for k := range colSums {
		colSums[k] = recv.Uvarint()
	}
	sum, ok := foldTotals(s.tot, colSums, intLimit)
	if !ok {
		return 0, ErrOverflow
	}
	return int64(sum), nil
}

// SampleL1 is Remark 3: one-round ℓ1-sampling of C = AB for non-negative
// matrices in O(n log n) bits. Alice ships, for every item k, the column
// sum ‖A_{*,k}‖1 and one row index sampled from column k proportionally
// to its entries; Bob picks k proportionally to ‖A_{*,k}‖1·‖B_{k,*}‖1,
// then a column j from row B_{k,*} proportionally to its entries. The
// returned entry (i, j) is distributed exactly ∝ C[i][j]; k is the
// sampled join witness.
func SampleL1(a, b *intmat.Dense, seed uint64) (i, j, witness int, cost Cost, err error) {
	if err := checkDims(a.Cols(), b.Rows()); err != nil {
		return 0, 0, 0, Cost{}, err
	}
	cost, err = runPair(
		func(t comm.Transport) error { return AliceSampleL1(t, a, seed) },
		func(t comm.Transport) (err error) { i, j, witness, err = BobSampleL1(t, b, seed); return err },
	)
	if err != nil {
		return 0, 0, 0, cost, err
	}
	return i, j, witness, cost, nil
}

// AliceSampleL1 drives Alice's side of Remark 3 on the non-zero lists of
// her matrix: per item k, the column sum of A and a value-weighted row
// sample from that column — one private coin per non-empty column,
// columns ascending, and a walk down the column's non-zeros, rows
// ascending. The sample is Bob's output.
func AliceSampleL1(t comm.Transport, am intmat.Matrix, seed uint64) (err error) {
	defer recoverDecodeError(&err)
	a := am.List()
	colSums, nonNeg, err := absColumnSums(a)
	if err != nil {
		return err
	}
	if !nonNeg {
		return ErrNeedNonNegative
	}
	alicePriv := rng.New(seed).Derive("alice-private", "l1sample")
	msg := comm.NewMessage()
	msg.Label = "column sums and row samples of A"
	byCol := a.Transpose()
	for k, sum := range colSums {
		msg.PutUvarint(uint64(sum))
		pick := -1
		if sum > 0 {
			target := alicePriv.Int63n(sum)
			rows, vals := byCol.Row(k)
			var acc int64
			for x, i := range rows {
				acc += vals[x]
				if acc > target {
					pick = int(i)
					break
				}
			}
		}
		msg.PutVarint(int64(pick))
	}
	t.Send(comm.AliceToBob, msg)
	return nil
}

// BobSampleL1 drives Bob's side of Remark 3: weight each item k by
// colSumA(k)·rowSumB(k), sample a witness, then a column of B_{k,*}
// proportionally to its entries.
func BobSampleL1(t comm.Transport, b intmat.Matrix, seed uint64) (i, j, witness int, err error) {
	st, err := NewBobL1SampleState(b, 1)
	if err != nil {
		return 0, 0, 0, err
	}
	return st.Serve(t, seed)
}

// BobL1SampleState is the matrix-dependent phase of Bob's side of
// Remark 3: B's non-zero lists (borrowed) with its row totals
// precomputed. The sampling seed is a per-query input of Serve (Bob's
// private coins are drawn fresh per query), so one state serves any
// seed. Immutable after construction; safe for concurrent Serve calls.
type BobL1SampleState struct {
	b   *intmat.Sparse
	tot *rowTotals
}

// NewBobL1SampleState totals B's rows over sharded row ranges and
// refuses B if a row holds a negative entry. shards ≤ 1 runs
// sequentially; the shard count never changes a transcript byte or an
// output bit.
func NewBobL1SampleState(b intmat.Matrix, shards int) (*BobL1SampleState, error) {
	nz := b.List()
	return l1SampleState(nz, newRowTotals(nz.Rows(), shards, listTotal(nz)))
}

// l1SampleState is the state over B's lists and totals, refused while a
// row of B holds a negative entry.
func l1SampleState(nz *intmat.Sparse, tot *rowTotals) (*BobL1SampleState, error) {
	if tot.nSigned > 0 {
		return nil, ErrNeedNonNegative
	}
	return &BobL1SampleState{b: nz, tot: tot}, nil
}

// Bytes reports the memory retained by the precomputation.
func (s *BobL1SampleState) Bytes() int64 { return s.tot.Bytes() }

// Serve runs the per-query phase of Bob's side of Remark 3 over t with
// the given shared seed.
func (s *BobL1SampleState) Serve(t comm.Transport, seed uint64) (i, j, witness int, err error) {
	defer recoverDecodeError(&err)
	b := s.b
	bobPriv := rng.New(seed).Derive("bob-private", "l1sample")
	recv := t.Recv(comm.AliceToBob)
	n := b.Rows()
	colSums := make([]uint64, n)
	rowPicks := make([]int, n)
	for k := 0; k < n; k++ {
		colSums[k] = recv.Uvarint()
		rowPicks[k] = int(recv.Varint())
	}
	// Item k weighs colSumA(k)·rowSumB(k); once their total is below
	// 2⁶³, so is every weight and every running sum.
	total, ok := foldTotals(s.tot, colSums, intLimit)
	if !ok {
		return 0, 0, 0, ErrOverflow
	}
	if total == 0 {
		return 0, 0, 0, ErrSampleFailed
	}
	target := bobPriv.Int63n(int64(total))
	var acc uint64
	k := 0
	for ; k < n; k++ {
		acc += colSums[k] * s.tot.abs[k]
		if acc > uint64(target) {
			break
		}
	}
	// Column sample from row B_{k,*} proportional to values: a walk
	// down the row's non-zeros, where alone the running sum moves.
	jt := bobPriv.Int63n(int64(s.tot.abs[k]))
	var jacc int64
	col := 0
	cols, vals := b.Row(k)
	for x, v := range vals {
		jacc += v
		if jacc > jt {
			col = int(cols[x])
			break
		}
	}
	return rowPicks[k], col, k, nil
}

// requireNonNegative refuses a matrix with a negative entry.
func requireNonNegative(m intmat.Matrix) error {
	if newRowTotals(m.Rows(), 1, listTotal(m)).nSigned > 0 {
		return ErrNeedNonNegative
	}
	return nil
}

// absColumnSums returns the column sums of |a| — a's own column sums
// when it is entrywise non-negative, which nonNeg reports — or
// ErrOverflow when one reaches 2⁶³.
func absColumnSums(a *intmat.Sparse) (sums []int64, nonNeg bool, err error) {
	sums, nonNeg = make([]int64, a.Cols()), true
	for i := 0; i < a.Rows(); i++ {
		cols, vals := a.Row(i)
		for x, k := range cols {
			u := uint64(vals[x])
			if vals[x] < 0 {
				u, nonNeg = -u, false
			}
			if u >= intLimit-uint64(sums[k]) {
				return nil, false, ErrOverflow
			}
			sums[k] += int64(u)
		}
	}
	return sums, nonNeg, nil
}
