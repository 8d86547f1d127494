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
// ErrNeedNonNegative.
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
	colSums, nonNeg := absColumnSums(a.List())
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
// Remark 2: the row sums of B (and its non-negativity check), computed
// once so each served query only multiplies them against Alice's column
// sums. Immutable after construction; safe for concurrent Serve calls.
type BobExactL1State struct {
	rowSums []int64
	shards  int
}

// NewBobExactL1State validates B and precomputes its row sums, sharding
// both row scans over contiguous ranges. shards ≤ 1 runs sequentially;
// the shard count never changes a transcript byte or an output bit.
func NewBobExactL1State(b intmat.Matrix, shards int) (*BobExactL1State, error) {
	nz := b.List()
	if err := requireNonNegativeSharded(nz, shards); err != nil {
		return nil, err
	}
	return &BobExactL1State{rowSums: rowSumsSharded(nz, shards), shards: shards}, nil
}

// Bytes reports the memory retained by the precomputation.
func (s *BobExactL1State) Bytes() int64 { return int64(8 * len(s.rowSums)) }

// Serve runs the per-query phase of Bob's side of Remark 2 over t. The
// varint stream decodes sequentially; the dot product against the
// precomputed row sums then shards with exact int64 partials.
func (s *BobExactL1State) Serve(t comm.Transport) (total int64, err error) {
	defer recoverDecodeError(&err)
	recv := t.Recv(comm.AliceToBob)
	colSums := make([]int64, len(s.rowSums))
	for k := range colSums {
		colSums[k] = int64(recv.Uvarint())
	}
	total = dotInt64Sharded(colSums, s.rowSums, s.shards)
	return total, nil
}

// rowSumsSharded computes per-row sums of b over contiguous sharded row
// ranges (disjoint writes; exact integer arithmetic).
func rowSumsSharded(b *intmat.Sparse, shards int) []int64 {
	rowSums := make([]int64, b.Rows())
	runShards(b.Rows(), shards, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			var rs int64
			_, vals := b.Row(k)
			for _, v := range vals {
				rs += v
			}
			rowSums[k] = rs
		}
	})
	return rowSums
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
	colSums, nonNeg := absColumnSums(a)
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
// Remark 3: B's non-zero lists (borrowed) with its row sums
// precomputed. The sampling seed is a per-query input of Serve (Bob's
// private coins are drawn fresh per query), so one state serves any
// seed. Immutable after construction; safe for concurrent Serve calls.
type BobL1SampleState struct {
	b       *intmat.Sparse
	rowSums []int64
	shards  int
}

// NewBobL1SampleState validates B and precomputes its row sums over
// sharded row ranges. shards ≤ 1 runs sequentially; the shard count
// never changes a transcript byte or an output bit.
func NewBobL1SampleState(b intmat.Matrix, shards int) (*BobL1SampleState, error) {
	nz := b.List()
	if err := requireNonNegativeSharded(nz, shards); err != nil {
		return nil, err
	}
	return &BobL1SampleState{b: nz, rowSums: rowSumsSharded(nz, shards), shards: shards}, nil
}

// Bytes reports the memory retained by the precomputation.
func (s *BobL1SampleState) Bytes() int64 { return int64(8 * len(s.rowSums)) }

// Serve runs the per-query phase of Bob's side of Remark 3 over t with
// the given shared seed.
func (s *BobL1SampleState) Serve(t comm.Transport, seed uint64) (i, j, witness int, err error) {
	defer recoverDecodeError(&err)
	b := s.b
	bobPriv := rng.New(seed).Derive("bob-private", "l1sample")
	recv := t.Recv(comm.AliceToBob)
	n := b.Rows()
	colSums := make([]int64, n)
	rowPicks := make([]int, n)
	for k := 0; k < n; k++ {
		colSums[k] = int64(recv.Uvarint())
		rowPicks[k] = int(recv.Varint())
	}
	// Item weights shard with exact int64 arithmetic — only past the
	// cheap-reduction floor, where the O(1)-per-item fill outweighs pool
	// synchronization; the coin-consuming sampling below always stays
	// sequential so bobPriv's stream is untouched.
	weights := make([]int64, n)
	var total int64
	if n < minShardCheapElems {
		for k := 0; k < n; k++ {
			weights[k] = colSums[k] * s.rowSums[k]
			total += weights[k]
		}
	} else {
		runShards(n, s.shards, func(_, lo, hi int) {
			for k := lo; k < hi; k++ {
				weights[k] = colSums[k] * s.rowSums[k]
			}
		})
		total = sumInt64Shards(n, s.shards, func(k int) int64 { return weights[k] })
	}
	if total == 0 {
		return 0, 0, 0, ErrSampleFailed
	}
	target := bobPriv.Int63n(total)
	var acc int64
	k := 0
	for ; k < n; k++ {
		acc += weights[k]
		if acc > target {
			break
		}
	}
	// Column sample from row B_{k,*} proportional to values: a walk
	// down the row's non-zeros, where alone the running sum moves.
	jt := bobPriv.Int63n(s.rowSums[k])
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
func requireNonNegative(m intmat.Matrix) error { return requireNonNegativeSharded(m.List(), 1) }

// requireNonNegativeSharded refuses a listed matrix with a negative
// entry, the row scan split over sharded ranges; the verdict is
// split-independent.
func requireNonNegativeSharded(m *intmat.Sparse, shards int) error {
	ranges := shardRanges(m.Rows(), shards)
	neg := make([]bool, len(ranges))
	runShards(m.Rows(), shards, func(s, lo, hi int) {
		for i := lo; i < hi && !neg[s]; i++ {
			_, vals := m.Row(i)
			for _, v := range vals {
				if v < 0 {
					neg[s] = true
					break
				}
			}
		}
	})
	for _, n := range neg {
		if n {
			return ErrNeedNonNegative
		}
	}
	return nil
}

// absColumnSums returns the column sums of |a| — a's own column sums
// when it is entrywise non-negative, which nonNeg reports.
func absColumnSums(a *intmat.Sparse) (sums []int64, nonNeg bool) {
	sums, nonNeg = make([]int64, a.Cols()), true
	for i := 0; i < a.Rows(); i++ {
		cols, vals := a.Row(i)
		for x, k := range cols {
			v := vals[x]
			if v < 0 {
				v, nonNeg = -v, false
			}
			sums[k] += v
		}
	}
	return sums, nonNeg
}
