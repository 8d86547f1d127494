package core

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/comm"
	"repro/internal/field"
	"repro/internal/intmat"
	"repro/internal/rng"
	"repro/internal/sketch"
)

// LpOpts configures EstimateLp and OneRoundLp.
type LpOpts struct {
	// Eps is the target multiplicative accuracy: the estimate is within a
	// (1 ± Eps) factor of ‖AB‖p^p with constant probability per
	// repetition, boosted by the median over Reps. Required, in (0, 1].
	Eps float64

	// Reps is the number of independent repetitions whose median is
	// returned (the paper's "standard median trick"). All repetitions run
	// inside the same two rounds. Default 5.
	Reps int

	// RhoC scales the row-sampling budget: ρ = RhoC/Eps expected sampled
	// rows per repetition. The paper uses 10⁴ (for 1−1/n¹⁰ success);
	// the default 72 targets the constant per-repetition success the
	// median trick assumes (variance ≤ 18·Eps²/RhoC · ‖C‖p^{2p}).
	RhoC float64

	// SketchC scales the per-row sketch: size = SketchC/β² words with
	// β = √Eps (the paper's O(1/β²) with its constant folded in).
	// Default 8.
	SketchC float64

	// Seed is the shared public-coin seed.
	Seed uint64

	// Shards splits the row-parallel phases (Bob's per-row sketching and
	// sampled-row evaluation, Alice's row-norm estimation) into this many
	// contiguous row ranges executed concurrently on the bounded shard
	// pool. It never changes a transcript byte or an output bit — the
	// parallel sections are randomness-free and merge deterministically
	// in shard order — so any value is safe. 0 or 1 runs sequentially.
	Shards int
}

func (o *LpOpts) setDefaults() error {
	if o.Eps <= 0 || o.Eps > 1 {
		return ErrBadEps
	}
	if o.Reps <= 0 {
		o.Reps = 5
	}
	if o.RhoC <= 0 {
		o.RhoC = 72
	}
	if o.SketchC <= 0 {
		o.SketchC = 8
	}
	return nil
}

// lpSketchFamilies derives the per-repetition shared sketch families for
// Algorithm 1 with the given options — the common construction both
// party drivers (and therefore the in-process EstimateLp) must agree on
// — and the approximate memory they retain. Drawing them is the dear
// part of a state build (Reps × width × dim p-stable variates), so it
// runs once per state: the families are immutable after construction
// (the sketch package's contract) and everything derived from a state —
// the other party's state, UpdateRows' successor — shares them.
func lpSketchFamilies(o LpOpts, dim int, p float64) (sketchers []rowSketcher, bytes int64) {
	beta := math.Sqrt(o.Eps)
	sizeWords := int(math.Ceil(o.SketchC / (beta * beta)))
	if sizeWords < 4 {
		sizeWords = 4
	}
	shared := rng.New(o.Seed)
	sketchers = make([]rowSketcher, o.Reps)
	for rep := range sketchers {
		sketchers[rep] = newRowSketcher(shared.Derive("lp", strconv.Itoa(rep)), dim, p, sizeWords)
	}
	return sketchers, int64(o.Reps) * int64(sizeWords) * int64(dim) * 8
}

// rowSketcher abstracts the two sketch families Algorithm 1 uses for its
// first-round row-norm estimates: field sketches for p = 0 and float
// sketches for p ∈ (0, 2]. Both are linear, which is what lets Alice
// assemble sketches of rows of C = A·B from Bob's sketches of rows of B.
type rowSketcher struct {
	p  float64
	l0 *sketch.L0
	fl sketch.FloatSketch
}

// newRowSketcher draws the shared sketch for dimension-dim vectors with
// (1+β) accuracy, β² = 1/sizeWords.
func newRowSketcher(r *rng.RNG, dim int, p float64, sizeWords int) rowSketcher {
	switch {
	case p == 0:
		return rowSketcher{p: p, l0: sketch.NewL0(r, dim, sizeWords)}
	case p == 2:
		cols := (sizeWords + 4) / 5
		if cols < 2 {
			cols = 2
		}
		return rowSketcher{p: p, fl: sketch.NewAMS(r, dim, 5, cols)}
	default:
		if sizeWords%2 == 0 {
			sizeWords++ // odd count sharpens the median estimator
		}
		return rowSketcher{p: p, fl: sketch.NewStable(r, dim, p, sizeWords)}
	}
}

// encodeRowRange sketches rows [lo, hi) of b from their non-zero lists
// and appends the sketches to msg. A sketch is built by adding the
// row's coordinates in ascending column order — the order, and so the
// floating-point sums, of the families' Apply over the row's cells,
// which skips the zeros. Each row's encoding is self-delimiting, so the
// shard-parallel precompute concatenates per-range buffers in range
// order to reproduce the sequential bytes exactly.
func (rs rowSketcher) encodeRowRange(msg *comm.Message, b *intmat.Sparse, lo, hi int) {
	for k := lo; k < hi; k++ {
		cols, vals := b.Row(k)
		if rs.l0 != nil {
			y := make([]field.Elem, rs.l0.Dim())
			for x, j := range cols {
				rs.l0.AddCoord(y, int(j), vals[x])
			}
			msg.PutUint64Slice(y)
		} else {
			y := make([]float64, rs.fl.Dim())
			for x, j := range cols {
				rs.fl.AddCoord(y, int(j), vals[x])
			}
			msg.PutFloat64Slice(y)
		}
	}
}

// decodeRows reads back n row sketches from msg into one block — a
// family's sketches all have the family's width, so the block is sized
// once (never beyond what msg still holds) instead of once per row.
func (rs rowSketcher) decodeRows(msg *comm.Message, n int) (fieldSk [][]field.Elem, floatSk [][]float64) {
	if rs.l0 != nil {
		block := make([]field.Elem, 0, min(n*rs.l0.Dim(), msg.Remaining()/8))
		fieldSk = make([][]field.Elem, n)
		for k := range fieldSk {
			lo := len(block)
			block = msg.AppendUint64Slice(block)
			fieldSk[k] = block[lo:len(block):len(block)]
		}
		return fieldSk, nil
	}
	block := make([]float64, 0, min(n*rs.fl.Dim(), msg.Remaining()/8))
	floatSk = make([][]float64, n)
	for k := range floatSk {
		lo := len(block)
		block = msg.AppendFloat64Slice(block)
		floatSk[k] = block[lo:len(block):len(block)]
	}
	return nil, floatSk
}

// rowScratch is the reusable accumulator for estimateRow: one row of A
// is estimated per call, thousands per query, so the callers hoist the
// buffer instead of allocating per row.
type rowScratch struct {
	fieldAcc []field.Elem
	floatAcc []float64
}

func newRowScratch(rs rowSketcher) *rowScratch {
	if rs.l0 != nil {
		return &rowScratch{fieldAcc: make([]field.Elem, rs.l0.Dim())}
	}
	return &rowScratch{floatAcc: make([]float64, rs.fl.Dim())}
}

// estimateRow combines the sketches of rows of B indexed by the sparse
// row (cols, vals) of A, in the caller's scratch, and returns the
// ‖·‖p^p estimate for that row of C.
func (rs rowSketcher) estimateRow(scratch *rowScratch, cols []int32, vals []int64, fieldSk [][]field.Elem, floatSk [][]float64) float64 {
	if rs.l0 != nil {
		acc := scratch.fieldAcc
		for i := range acc {
			acc[i] = 0
		}
		for t, k := range cols {
			sketch.AxpyField(acc, vals[t], fieldSk[k])
		}
		return rs.l0.Estimate(acc)
	}
	acc := scratch.floatAcc
	for i := range acc {
		acc[i] = 0
	}
	for t, k := range cols {
		sketch.AxpyFloat(acc, float64(vals[t]), floatSk[k])
	}
	return rs.fl.EstimatePowInPlace(acc)
}

// putSparseRow appends a sparse row (delta-coded columns, varint values).
func putSparseRow(msg *comm.Message, cols []int32, vals []int64) {
	msg.PutUvarint(uint64(len(cols)))
	prev := int32(-1)
	for t, c := range cols {
		msg.PutUvarint(uint64(c - prev))
		prev = c
		msg.PutVarint(vals[t])
	}
}

// appendSparseRow reads a row written by putSparseRow onto the end of
// (cols, vals). A row of A multiplies rows of B, so its column indices
// must ascend within B's bRows rows; like the message readers, it panics
// on a row whose indices do not — the peer is not trusted, and the
// caller's recoverDecodeError turns the panic into the request's error.
func appendSparseRow(msg *comm.Message, cols []int32, vals []int64, bRows int) ([]int32, []int64) {
	prev := -1
	for nnz := msg.Uvarint(); nnz > 0; nnz-- {
		d := msg.Uvarint()
		if d == 0 || d > uint64(bRows-1-prev) {
			panic(fmt.Sprintf("core: sampled row's columns do not ascend within the %d rows of B", bRows))
		}
		prev += int(d)
		cols = append(cols, int32(prev))
		vals = append(vals, msg.Varint())
	}
	return cols, vals
}

// EstimateLp is Algorithm 1 (Theorem 3.1): a two-round protocol that
// approximates ‖AB‖p^p, p ∈ [0, 2], within a (1±ε) factor using Õ(n/ε)
// bits of communication.
//
// Round 1 (Bob→Alice): Bob ships a (1+β)-accurate ℓp sketch of every row
// of B, β = √ε — size Õ(1/β²) = Õ(1/ε) per row. Alice combines them into
// sketches of rows of C and estimates every row norm coarsely.
// Round 2 (Alice→Bob): Alice partitions rows into (1+β)-geometric groups
// by estimated norm, samples ~ρ = Θ(1/ε) rows with probability
// proportional to each group's share, and ships the sampled rows of A
// with their inverse-probability weights. Bob computes the sampled rows
// of C exactly and returns the weighted (unbiased, low-variance) sum.
//
// Setting β = ε instead would make round 1 alone a (1±ε) estimate — that
// is exactly OneRoundLp, the Õ(n/ε²) protocol of [16]; the √ε split
// between sketching and sampling is the paper's improvement.
func EstimateLp(a, b *intmat.Dense, p float64, o LpOpts) (float64, Cost, error) {
	if err := checkDims(a.Cols(), b.Rows()); err != nil {
		return 0, Cost{}, err
	}
	var est float64
	cost, err := runPair(
		func(t comm.Transport) error { return AliceLp(t, a, b.Cols(), p, o) },
		func(t comm.Transport) (err error) { est, err = BobLp(t, b, p, o); return err },
	)
	if err != nil {
		return 0, cost, err
	}
	return est, cost, nil
}

// BobLp drives Bob's side of Algorithm 1 over any transport: sketches
// out in round 1, sampled rows in and exact norms of them in round 2.
// It returns the protocol output (the estimate lives at Bob, as in the
// paper). The options must match Alice's.
//
// BobLp re-derives the matrix-dependent precomputation on every call;
// a serving system that answers many queries against the same B should
// build a BobLpState once and call Serve per query.
func BobLp(t comm.Transport, b intmat.Matrix, p float64, o LpOpts) (est float64, err error) {
	st, err := NewBobLpState(b, p, o)
	if err != nil {
		return 0, err
	}
	return st.Serve(t)
}

// BobLpState is the matrix-dependent phase of Bob's side of Algorithm 1:
// everything derivable from (B, p, options, seed) before any message
// arrives — dominated by the per-row ℓp sketches of B that make up the
// whole round-1 payload, beside B's non-zeros row by row, which round 2
// multiplies the sampled rows against. Building it once and calling
// Serve per query amortizes the sketching cost across queries without
// changing a single transcript byte: Serve replays the precomputed
// round-1 bytes, so a served run is byte-identical to a fresh BobLp with
// the same inputs.
//
// A state is immutable after construction and safe for concurrent Serve
// calls.
type BobLpState struct {
	p         float64
	opts      LpOpts        // defaults applied
	sketchers []rowSketcher // the shared sketch families, drawn once
	famBytes  int64
	round1    []byte         // encoded round-1 payload: per-row ℓp sketches of B
	nz        *intmat.Sparse // B's non-zeros per row, borrowed: what round 2 multiplies against
}

// NewBobLpState validates the parameters and runs the matrix-dependent
// precomputation of Bob's side of Algorithm 1. The state keeps b's lists
// (b.List()): those of a *intmat.Sparse are borrowed, not copied.
func NewBobLpState(b intmat.Matrix, p float64, o LpOpts) (*BobLpState, error) {
	if p < 0 || p > 2 {
		return nil, ErrBadP
	}
	if err := o.setDefaults(); err != nil {
		return nil, err
	}
	nz := b.List()
	s := &BobLpState{p: p, opts: o, nz: nz}
	s.sketchers, s.famBytes = lpSketchFamilies(o, nz.Cols(), p)
	// Per-row sketches are independent, so each repetition's encoding is
	// sharded over contiguous row ranges; concatenating the per-shard
	// buffers in shard order reproduces the sequential payload bytes.
	for _, rs := range s.sketchers {
		bufs := make([][]byte, len(shardRanges(nz.Rows(), o.Shards)))
		runShards(nz.Rows(), o.Shards, func(sh, lo, hi int) {
			msg := comm.NewMessage()
			rs.encodeRowRange(msg, nz, lo, hi)
			bufs[sh] = msg.Bytes()
		})
		for _, part := range bufs {
			s.round1 = append(s.round1, part...)
		}
	}
	return s, nil
}

// Bytes reports the memory retained by the precomputation — the round-1
// sketches and the sketch families (the sizing input for cache
// accounting; B's lists are their owner's and not counted).
func (s *BobLpState) Bytes() int64 { return int64(len(s.round1)) + s.famBytes }

// AliceState returns the Alice-side state for the same (m2, p, options,
// seed), sharing this state's sketch families instead of drawing them a
// second time — for a serving system that drives both parties against
// its own matrix.
func (s *BobLpState) AliceState() *AliceLpState {
	return &AliceLpState{p: s.p, opts: s.opts, sketchers: s.sketchers}
}

// Serve runs the per-query phase of Bob's side of Algorithm 1 over t.
func (s *BobLpState) Serve(t comm.Transport) (est float64, err error) {
	defer recoverDecodeError(&err)

	// Round 1: Bob → Alice, replayed from the precomputation.
	msg1 := comm.FromBytes(s.round1)
	msg1.Label = "per-row ℓp sketches of B"
	t.Send(comm.BobToAlice, msg1)

	// Round 2: sampled rows in; exact norms of the sampled rows of C,
	// weighted sum per repetition.
	recv2 := t.Recv(comm.AliceToBob)
	return median(sampledRowSums(s.nz, recv2, s.opts.Reps, s.p, s.opts.Shards)), nil
}

// lpSample is one decoded round-2 sample: its inverse-probability
// weight and the distinct row of A it carries.
type lpSample struct {
	w   float64
	row int
}

// sampledRowSums is Bob's round 2 of Algorithm 1: it reads reps
// repetitions of weighted sampled rows of A from recv and returns each
// repetition's Σ w·‖A_i·B‖p^p.
//
// The repetitions sample independently, so one row of A arrives several
// times over (at n = 512, ε = 0.25 some 1420 samples name 490 distinct
// rows); each distinct row is evaluated once. Two samples are the same
// row when they carry the same row index and the same (cols, vals) — the
// index alone is the peer's word, and a peer that lies about it must not
// change the answer. The varint stream decodes sequentially; the per-row
// products — the expensive part — are then sharded over the distinct
// rows (each row of C is independent) and the weighted contributions
// summed in sample order, which is the sequential, un-grouped driver's
// float summation order exactly.
func sampledRowSums(nz *intmat.Sparse, recv *comm.Message, reps int, p float64, shards int) []float64 {
	var (
		samples []lpSample
		repEnds = make([]int, reps) // repetition rep is samples[repEnds[rep-1]:repEnds[rep]]
		cols    []int32             // the distinct rows, back to back
		vals    []int64             // parallel to cols
		bounds  = []int{0}          // distinct row r is [bounds[r], bounds[r+1]) of cols/vals
		first   = map[uint64]int{}  // row index on the wire → the distinct row first sent under it
	)
	for rep := range repEnds {
		for n := recv.Uvarint(); n > 0; n-- {
			idx := recv.Uvarint()
			w := recv.Float64()
			lo := len(cols)
			cols, vals = appendSparseRow(recv, cols, vals, nz.Rows())
			r, seen := first[idx]
			if seen && slices.Equal(cols[lo:], cols[bounds[r]:bounds[r+1]]) && slices.Equal(vals[lo:], vals[bounds[r]:bounds[r+1]]) {
				cols, vals = cols[:lo], vals[:lo]
			} else {
				r = len(bounds) - 1
				bounds = append(bounds, len(cols))
				if !seen {
					first[idx] = r
				}
			}
			samples = append(samples, lpSample{w: w, row: r})
		}
		repEnds[rep] = len(samples)
	}
	norms := make([]float64, len(bounds)-1)
	runShards(len(norms), shards, func(_, lo, hi int) {
		y := make([]int64, nz.Cols())
		for r := lo; r < hi; r++ {
			norms[r] = lpPow(nz, y, cols[bounds[r]:bounds[r+1]], vals[bounds[r]:bounds[r+1]], p)
		}
	})
	perRep := make([]float64, reps)
	lo := 0
	for rep, end := range repEnds {
		var est float64
		for _, smp := range samples[lo:end] {
			// The conversion rounds the product before the add, as the
			// store to a per-sample slot used to: no fused multiply-add.
			est += float64(smp.w * norms[smp.row])
		}
		perRep[rep] = est
		lo = end
	}
	return perRep
}

// AliceLp drives Alice's side of Algorithm 1: she decodes Bob's row
// sketches, estimates row norms of C, groups and samples rows of A, and
// ships the sample. m2 is Bob's column count — catalog metadata both
// parties know before the protocol starts; it fixes the shared sketch
// dimension and costs no communication, matching the in-process
// simulation. Alice learns nothing beyond the transcript; the estimate
// is Bob's output.
func AliceLp(t comm.Transport, a intmat.Matrix, m2 int, p float64, o LpOpts) (err error) {
	st, err := NewAliceLpState(m2, p, o)
	if err != nil {
		return err
	}
	return st.Serve(t, a)
}

// AliceLpState is the query-independent phase of Alice's side of
// Algorithm 1: the shared public-coin sketch families, which depend on
// (m2, p, options, seed) but not on Alice's matrix. A serving system
// that drives both parties (the engine plays Alice against its own
// served matrix) reuses one state across queries; the per-query Serve
// is unchanged in behavior, so transcripts are identical to a fresh
// AliceLp. Immutable after construction; safe for concurrent Serve
// calls.
type AliceLpState struct {
	p         float64
	opts      LpOpts // defaults applied
	sketchers []rowSketcher
	bytes     int64
}

// NewAliceLpState validates the parameters and derives the shared
// sketch families for Bob's column count m2.
func NewAliceLpState(m2 int, p float64, o LpOpts) (*AliceLpState, error) {
	if p < 0 || p > 2 {
		return nil, ErrBadP
	}
	if err := o.setDefaults(); err != nil {
		return nil, err
	}
	if m2 <= 0 {
		return nil, ErrDimensionMismatch
	}
	s := &AliceLpState{p: p, opts: o}
	s.sketchers, s.bytes = lpSketchFamilies(o, m2, p)
	return s, nil
}

// Bytes reports the approximate memory retained by the sketch families
// — zero for a state from BobLpState.AliceState, whose families are
// Bob's and counted there.
func (s *AliceLpState) Bytes() int64 { return s.bytes }

// Serve runs the per-query phase of Alice's side of Algorithm 1 over t
// with the non-zero lists of her matrix.
func (s *AliceLpState) Serve(t comm.Transport, am intmat.Matrix) (err error) {
	defer recoverDecodeError(&err)
	if am.Cols() <= 0 {
		return ErrDimensionMismatch
	}
	a := am.List()
	o := s.opts
	beta := math.Sqrt(o.Eps)
	n := a.Cols()

	recv1 := t.Recv(comm.BobToAlice)
	alicePriv := rng.New(o.Seed).Derive("alice-private", "lp")
	rho := o.RhoC / o.Eps
	msg2 := comm.NewMessage()
	for _, rs := range s.sketchers {
		fieldSk, floatSk := rs.decodeRows(recv1, n)
		picks := sampleRowsByNorm(rs, a, fieldSk, floatSk, beta, rho, alicePriv, s.opts.Shards)
		msg2.PutUvarint(uint64(len(picks)))
		for _, smp := range picks {
			msg2.PutUvarint(uint64(smp.i))
			msg2.PutFloat64(smp.weight)
			cols, vals := a.Row(smp.i)
			putSparseRow(msg2, cols, vals)
		}
	}
	msg2.Label = "sampled rows of A with weights"
	t.Send(comm.AliceToBob, msg2)
	return nil
}

// OneRoundLp is the direct-sketching baseline from [16]: Bob ships
// (1±ε)-accurate ℓp sketches of every row of B (size Õ(1/ε²) per row) and
// Alice sums per-row estimates — one round, Õ(n/ε²) bits. Theorem 3.1's
// two-round protocol beats it by a 1/ε factor; their measured crossover
// is experiment E1.
func OneRoundLp(a, b *intmat.Dense, p float64, o LpOpts) (float64, Cost, error) {
	if err := checkDims(a.Cols(), b.Rows()); err != nil {
		return 0, Cost{}, err
	}
	if p < 0 || p > 2 {
		return 0, Cost{}, ErrBadP
	}
	if err := o.setDefaults(); err != nil {
		return 0, Cost{}, err
	}
	sizeWords := int(math.Ceil(o.SketchC / (o.Eps * o.Eps)))
	if sizeWords < 4 {
		sizeWords = 4
	}
	n := a.Cols()
	conn := comm.NewConn()
	shared := rng.New(o.Seed)

	sketchers := make([]rowSketcher, o.Reps)
	for rep := range sketchers {
		sketchers[rep] = newRowSketcher(shared.Derive("lp1r", strconv.Itoa(rep)), b.Cols(), p, sizeWords)
	}
	msg := comm.NewMessage()
	msg.Label = "per-row ℓp sketches of B (1-round accuracy)"
	bs := b.List()
	for _, rs := range sketchers {
		rs.encodeRowRange(msg, bs, 0, bs.Rows())
	}
	recv := conn.Send(comm.BobToAlice, msg)

	perRep := make([]float64, o.Reps)
	as := a.List()
	for rep, rs := range sketchers {
		fieldSk, floatSk := rs.decodeRows(recv, n)
		scratch := newRowScratch(rs)
		var total float64
		for i := 0; i < as.Rows(); i++ {
			cols, vals := as.Row(i)
			if len(cols) == 0 {
				continue
			}
			if e := rs.estimateRow(scratch, cols, vals, fieldSk, floatSk); e > 0 {
				total += e
			}
		}
		perRep[rep] = total
	}
	return median(perRep), costOf(conn), nil
}
