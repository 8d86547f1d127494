package core

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"sync/atomic"

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
// — and the memory they retain, as each family reports it. A family is
// drawn once per state (Reps × width × dim variates at 0 < p < 2, a few
// hash coefficients at p ∈ {0, 2}) and is immutable after construction
// (the sketch package's contract), so everything derived from a state —
// the other party's state, UpdateRows' successor — shares it. Drawing
// them is most of a cold state build only on a very sparse B: at
// n = 512 and 0 < p < 2 it is a few ms, under a third of the build on a
// 0.2-full B, whose rows' sketching is the rest (DESIGN.md, "The cold lp
// state").
func lpSketchFamilies(o LpOpts, dim int, p float64) (sketchers []rowSketcher, bytes int64) {
	beta := math.Sqrt(o.Eps)
	sizeWords := int(math.Ceil(o.SketchC / (beta * beta)))
	if sizeWords < 4 {
		sizeWords = 4
	}
	shared := rng.New(o.Seed)
	sketchers = make([]rowSketcher, o.Reps)
	for rep := range sketchers {
		rs := newRowSketcher(shared.Derive("lp", strconv.Itoa(rep)), dim, p, sizeWords)
		if rs.l0 != nil {
			bytes += rs.l0.Bytes()
		} else {
			bytes += rs.fl.Bytes()
		}
		sketchers[rep] = rs
	}
	return sketchers, bytes
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
// which skips the zeros. A float sketch travels as width Float24 words
// (3 bytes each, no length prefix: Alice knows the width from the
// family); a field sketch, exact at p = 0, as a PutUint64Slice. Every
// row of one family takes the same bytes, so the shard-parallel
// precompute concatenates per-range buffers in range order to reproduce
// the sequential bytes exactly, and UpdateRows splices a row at
// (rep·n + k) times that size.
func (rs rowSketcher) encodeRowRange(msg *comm.Message, b *intmat.Sparse, lo, hi int) {
	if rs.l0 != nil {
		y := make([]field.Elem, rs.l0.Dim())
		for k := lo; k < hi; k++ {
			clear(y)
			cols, vals := b.Row(k)
			for x, j := range cols {
				rs.l0.AddCoord(y, int(j), vals[x])
			}
			msg.PutUint64Slice(y)
		}
		return
	}
	y := make([]float64, rs.fl.Dim())
	msg.Grow((hi - lo) * 3 * len(y))
	for k := lo; k < hi; k++ {
		clear(y)
		cols, vals := b.Row(k)
		for x, j := range cols {
			rs.fl.AddCoord(y, int(j), vals[x])
		}
		msg.PutFloat24s(y)
	}
}

// sketchBlock is round 1 as Alice holds it: Bob's row sketches for
// every repetition of one norm index, rep-interleaved. Row k's sketches
// for repetitions 0, 1, … lie side by side in one stripe of reps × width
// words, so a single pass over a row of A combines every repetition's
// sketches at once — one axpy over the stripe per non-zero of the row,
// into an accumulator of the same layout. Each word is still its own sum
// over the row's non-zeros in column order, so each repetition's
// estimate is the one a pass over that repetition alone computes. Float
// words stay as they arrived, 4 bytes each (comm.Float24sInto), and are
// rebuilt inside the combine.
type sketchBlock struct {
	sketchers []rowSketcher // one per repetition, all of one kind and width
	width     int           // words in one repetition's sketch
	fieldSk   []field.Elem  // n stripes at p = 0
	floatSk   []uint32      // n stripes at p > 0, Float24 words
}

// readSketchBlock reads the n row sketches of each repetition, in the
// wire's repetition-major order, into one rep-interleaved block. Every
// field row must be the family's width and every float word finite: a
// peer's field row of another length, a payload too short for n·reps
// rows, or a NaN or ±Inf word panics — the message readers' way of
// refusing a payload, which recoverDecodeError turns into the request's
// error. The block is sized only once the payload is known to hold
// n·reps rows of that width.
func readSketchBlock(msg *comm.Message, sketchers []rowSketcher, n int) *sketchBlock {
	blk := &sketchBlock{sketchers: sketchers}
	rs := sketchers[0]
	wordBytes := 3
	if rs.l0 != nil {
		blk.width, wordBytes = rs.l0.Dim(), 8
	} else {
		blk.width = rs.fl.Dim()
	}
	stripe := len(sketchers) * blk.width
	if msg.Remaining()/wordBytes < n*stripe {
		panic(fmt.Sprintf("core: round 1 holds %d bytes, too few for %d rows of %d-word sketches", msg.Remaining(), n*len(sketchers), blk.width))
	}
	if rs.l0 != nil {
		blk.fieldSk = make([]field.Elem, n*stripe)
	} else {
		blk.floatSk = make([]uint32, n*stripe)
	}
	for rep := range sketchers {
		for k := 0; k < n; k++ {
			at := k*stripe + rep*blk.width
			if blk.fieldSk != nil {
				msg.Uint64SliceInto(blk.fieldSk[at : at+blk.width])
			} else {
				msg.Float24sInto(blk.floatSk[at : at+blk.width])
			}
		}
	}
	return blk
}

// rowNorms estimates ‖(A·B)_i‖p^p for every row i of a and every
// repetition: est[rep][i], +0 for a row of A with no non-zero, and a
// negative estimate clamped to 0. With logBase = log(1+β) > 0 it also
// returns each estimate's (1+β)-geometric level, level[rep][i] =
// ⌊log(max(e, 1)) / logBase⌋, the group Algorithm 1 samples the row in;
// with logBase = 0, level is nil. Rows are sharded over contiguous
// ranges; each shard owns one stripe-wide accumulator and writes
// disjoint slots, and no coin is drawn.
//
// Round 1's words are finite, but words near ±MaxFloat64 can still
// combine to an infinite or NaN estimate, which no integer B sketches
// to and which has no level: it panics, refusing round 1 as malformed
// the way a non-finite word is refused.
func (blk *sketchBlock) rowNorms(a *intmat.Sparse, shards int, logBase float64) (est [][]float64, level [][]int) {
	reps, w, m1 := len(blk.sketchers), blk.width, a.Rows()
	stripe := reps * w
	all := make([]float64, reps*m1)
	est = make([][]float64, reps)
	for rep := range est {
		est[rep] = all[rep*m1 : (rep+1)*m1]
	}
	if logBase > 0 {
		levels := make([]int, reps*m1)
		level = make([][]int, reps)
		for rep := range level {
			level[rep] = levels[rep*m1 : (rep+1)*m1]
		}
	}
	runShards(m1, shards, func(_, lo, hi int) {
		var fieldAcc []field.Elem
		var floatAcc []float64
		if blk.fieldSk != nil {
			fieldAcc = make([]field.Elem, stripe)
		} else {
			floatAcc = make([]float64, stripe)
		}
		for i := lo; i < hi; i++ {
			cols, vals := a.Row(i)
			if len(cols) == 0 {
				continue
			}
			if fieldAcc != nil {
				clear(fieldAcc)
				for t, k := range cols {
					sketch.AxpyField(fieldAcc, vals[t], blk.fieldSk[int(k)*stripe:][:stripe])
				}
			} else {
				clear(floatAcc)
				for t, k := range cols {
					axpyFloat24(floatAcc, float64(vals[t]), blk.floatSk[int(k)*stripe:][:stripe])
				}
			}
			for rep, rs := range blk.sketchers {
				var e float64
				if fieldAcc != nil {
					e = rs.l0.Estimate(fieldAcc[rep*w:][:w])
				} else {
					e = rs.fl.EstimatePowInPlace(floatAcc[rep*w:][:w])
				}
				if math.IsNaN(e) || math.IsInf(e, 0) {
					panic(fmt.Sprintf("core: round 1 gives row %d of A the non-finite estimate %v", i, e))
				}
				if e < 0 {
					e = 0
				}
				est[rep][i] = e
				if level != nil {
					level[rep][i] = int(math.Floor(math.Log(math.Max(e, 1)) / logBase))
				}
			}
		}
	})
	return est, level
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

// sparseRowLen is the number of bytes putSparseRow writes for a row.
func sparseRowLen(cols []int32, vals []int64) int {
	n := uvarintLen(uint64(len(cols)))
	prev := int32(-1)
	for t, c := range cols {
		v := vals[t]
		n += uvarintLen(uint64(c-prev)) + uvarintLen(uint64(v<<1)^uint64(v>>63)) // zig-zag
		prev = c
	}
	return n
}

// uvarintLen is the number of bytes of v as a uvarint: seven bits each.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// putSampledRows writes Alice's round 2 of Algorithm 1: for each
// repetition in order, the number of its picks, then every pick's row
// index, weight and sparse row of A. The message grows once, to its
// exact size, before the first byte is written; a row picked by several
// repetitions is measured once.
func putSampledRows(msg *comm.Message, a *intmat.Sparse, picks [][]weightedPick) {
	size := 0
	rowLen := make([]int, a.Rows()) // 0 until measured: every encoding takes a byte
	for _, rep := range picks {
		size += uvarintLen(uint64(len(rep)))
		for _, smp := range rep {
			if rowLen[smp.i] == 0 {
				rowLen[smp.i] = sparseRowLen(a.Row(smp.i))
			}
			size += uvarintLen(uint64(smp.i)) + 8 + rowLen[smp.i]
		}
	}
	msg.Grow(size)
	for _, rep := range picks {
		msg.PutUvarint(uint64(len(rep)))
		for _, smp := range rep {
			msg.PutUvarint(uint64(smp.i))
			msg.PutFloat64(smp.weight)
			cols, vals := a.Row(smp.i)
			putSparseRow(msg, cols, vals)
		}
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

// skipSparseRow steps over a row written by putSparseRow without
// decoding it: its count, then a column gap and a value per entry, each
// a varint (a zig-zag varint takes a uvarint's bytes). A truncated or
// over-long varint panics, as the message readers do.
func skipSparseRow(msg *comm.Message) {
	for nnz := msg.Uvarint(); nnz > 0; nnz-- {
		msg.Uvarint()
		msg.Uvarint()
	}
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
// A state is immutable after construction, but for the round-1 view of
// the Alice state it hands out (AliceState), and safe for concurrent
// Serve calls.
type BobLpState struct {
	p         float64
	opts      LpOpts        // defaults applied
	sketchers []rowSketcher // the shared sketch families, drawn once
	famBytes  int64
	round1    []byte         // encoded round-1 payload: per-row ℓp sketches of B
	nz        *intmat.Sparse // B's non-zeros per row, borrowed: what round 2 multiplies against
	tot       *rowTotals     // B's row totals: round 2's overflow bound, and its exact p = 1 rows
	alice     *AliceLpState  // AliceState's, on these families: its view is of this round 1
}

// NewBobLpState validates the parameters and runs the matrix-dependent
// precomputation of Bob's side of Algorithm 1. The state keeps b's lists
// (b.List()): those of a *intmat.Sparse are borrowed, not copied.
func NewBobLpState(b intmat.Matrix, p float64, o LpOpts) (*BobLpState, error) {
	nz := b.List()
	return newBobLpState(nz, newRowTotals(nz.Rows(), o.Shards, listTotal(nz)), p, o)
}

// newBobLpState is NewBobLpState over B's lists and row totals, both
// borrowed.
func newBobLpState(nz *intmat.Sparse, tot *rowTotals, p float64, o LpOpts) (*BobLpState, error) {
	if p < 0 || p > 2 {
		return nil, ErrBadP
	}
	if err := o.setDefaults(); err != nil {
		return nil, err
	}
	s := &BobLpState{p: p, opts: o, nz: nz, tot: tot}
	s.sketchers, s.famBytes = lpSketchFamilies(o, nz.Cols(), p)
	s.alice = &AliceLpState{p: p, opts: o, sketchers: s.sketchers}
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
// sketches, the row totals, the sketch families and, once AliceState has
// served, its round-1 view (the sizing input for cache accounting,
// summed live; B's lists are their owner's and not counted). The view's
// payload is this state's round 1 over an in-process transport, counted
// once, and its own bytes over a socket.
func (s *BobLpState) Bytes() int64 {
	return int64(len(s.round1)) + s.tot.Bytes() + s.famBytes + s.alice.viewBytes(s.round1)
}

// AliceState returns the Alice-side state for the same (m2, p, options,
// seed), sharing this state's sketch families instead of drawing them a
// second time — for a serving system that drives both parties against
// its own matrix. Every call returns the same state, so every query's
// Alice finds the round 1 this state replays already decoded (see
// AliceLpState).
func (s *BobLpState) AliceState() *AliceLpState { return s.alice }

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
	sums, err := sampledRowSums(s.nz, s.tot, recv2, s.opts.Reps, s.p, s.opts.Shards)
	if err != nil {
		return 0, err
	}
	return median(sums), nil
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
// row when they carry the same row index and the same encoding — the
// index alone is the peer's word, and a peer that lies about it must not
// change the answer (two encodings of one row, which Alice never sends,
// are merely evaluated twice). The stream is read sequentially, and
// every sample's row only stepped over (skipSparseRow): a distinct row is
// kept as the bytes it took on the wire, so nothing but the samples
// grows with the message — each repetition's land in room reserved from
// its count, bounded by the bytes that arrived (a sample takes at least
// ten). The per-row products, the expensive part, are then sharded over
// the distinct rows (each row of C is independent), each shard decoding
// its rows once and refusing any whose columns do not ascend within B —
// every sample's bytes are a distinct row's, so no sample escapes the
// check — and the weighted contributions summed in sample order, which
// is the sequential, un-grouped sum's float order exactly.
//
// tot holds B's row totals. At p = 1 a row whose total they give
// exactly (a non-negative row against non-negative rows of B, below 2⁵³)
// takes it; every other row lpPow, unless Σ_k |a_k|·‖B_k‖₁ reaches 2⁶³,
// where lpPow's int64 products could wrap: then the query is refused
// with ErrOverflow.
func sampledRowSums(nz *intmat.Sparse, tot *rowTotals, recv *comm.Message, reps int, p float64, shards int) ([]float64, error) {
	var (
		samples []lpSample
		repEnds = make([]int, reps) // repetition rep is samples[repEnds[rep-1]:repEnds[rep]]
		rows    [][]byte            // the distinct rows' encodings, in recv's payload
		first   = map[uint64]int{}  // row index on the wire → the distinct row first sent under it
	)
	payload := recv.Bytes()
	for rep := range repEnds {
		n := recv.Uvarint()
		samples = slices.Grow(samples, int(min(n, uint64(recv.Remaining()/10))))
		for ; n > 0; n-- {
			idx := recv.Uvarint()
			w := recv.Float64()
			lo := len(payload) - recv.Remaining()
			skipSparseRow(recv)
			row := payload[lo : len(payload)-recv.Remaining()]
			r, seen := first[idx]
			if !seen || !bytes.Equal(row, rows[r]) {
				r = len(rows)
				rows = append(rows, row)
				if !seen {
					first[idx] = r
				}
			}
			samples = append(samples, lpSample{w: w, row: r})
		}
		repEnds[rep] = len(samples)
	}
	norms := make([]float64, len(rows))
	var overflow atomic.Bool
	runShards(len(norms), shards, func(_, lo, hi int) {
		var (
			y    []int64 // lpPow's scratch, for the first row that needs it
			cols []int32
			vals []int64
		)
		for r := lo; r < hi; r++ {
			cols, vals = appendSparseRow(comm.FromBytes(rows[r]), cols[:0], vals[:0], nz.Rows())
			if p == 1 {
				if total, nonNeg, ok := tot.foldRow(cols, vals, floatLimit); ok && nonNeg {
					norms[r] = float64(total)
					continue
				}
			}
			if _, _, ok := tot.foldRow(cols, vals, intLimit); !ok {
				overflow.Store(true) // the rest are still decoded: a malformed row is refused as such
				continue
			}
			if y == nil {
				y = make([]int64, nz.Cols())
			}
			norms[r] = lpPow(nz, y, cols, vals, p)
		}
	})
	if overflow.Load() {
		return nil, ErrOverflow
	}
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
	return perRep, nil
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
// AliceLp. Safe for concurrent Serve calls.
//
// The state keeps a view of the last round 1 it decoded: the payload and
// the block read from it. A query whose round 1 is byte-equal to the
// view's — every query against one cached Bob state — combines the
// view's block instead of decoding a fresh one; any other round 1 is read
// with every check and, once it passes them, becomes the view. The block
// is never written after it is read, so concurrent queries share it, and
// the view holds the payload without copying it, which the transports'
// contract (comm.Transport.Recv) makes safe.
type AliceLpState struct {
	p         float64
	opts      LpOpts // defaults applied
	sketchers []rowSketcher
	bytes     int64
	view      atomic.Pointer[round1View]
}

// round1View is the round 1 an AliceLpState last decoded: the payload
// as it arrived, for n rows of B, and the block read from it.
type round1View struct {
	payload []byte
	n       int
	blk     *sketchBlock
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
// and the round-1 view — the families count zero for a state from
// BobLpState.AliceState, whose families are Bob's and counted there.
func (s *AliceLpState) Bytes() int64 { return s.bytes + s.viewBytes(nil) }

// viewBytes is the memory the round-1 view holds: its block, and its
// payload unless that is shared — the caller's own bytes, as Bob's round
// 1 is when an in-process transport hands them over.
func (s *AliceLpState) viewBytes(shared []byte) int64 {
	v := s.view.Load()
	if v == nil {
		return 0
	}
	n := 4*int64(len(v.blk.floatSk)) + 8*int64(len(v.blk.fieldSk))
	if len(v.payload) == 0 || len(shared) == 0 || &v.payload[0] != &shared[0] {
		n += int64(len(v.payload))
	}
	return n
}

// round1Block returns round 1 as Alice combines it, for n rows of B: the
// view's block when recv's payload is byte-equal to the view's, and
// otherwise a block read by readSketchBlock, refused if any byte follows
// the last row, and kept as the new view.
func (s *AliceLpState) round1Block(recv *comm.Message, n int) *sketchBlock {
	payload := recv.Bytes()
	if v := s.view.Load(); v != nil && v.n == n && bytes.Equal(v.payload, payload) {
		return v.blk
	}
	blk := readSketchBlock(recv, s.sketchers, n)
	if recv.Remaining() != 0 {
		panic(fmt.Sprintf("core: %d bytes after round 1's row sketches", recv.Remaining()))
	}
	s.view.Store(&round1View{payload: payload, n: n, blk: blk})
	return blk
}

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

	blk := s.round1Block(t.Recv(comm.BobToAlice), n)
	alicePriv := rng.New(o.Seed).Derive("alice-private", "lp")
	picks := blk.sampleRows(a, beta, o.RhoC/o.Eps, alicePriv, o.Shards)
	msg2 := comm.NewMessage()
	putSampledRows(msg2, a, picks)
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
	rowEst, _ := readSketchBlock(recv, sketchers, n).rowNorms(a.List(), o.Shards, 0)
	for rep, est := range rowEst {
		var total float64
		for _, e := range est {
			if e > 0 {
				total += e
			}
		}
		perRep[rep] = total
	}
	return median(perRep), costOf(conn), nil
}
