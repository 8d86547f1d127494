package core

import (
	"fmt"
	"math"

	"repro/internal/bitmat"
	"repro/internal/comm"
	"repro/internal/intmat"
	"repro/internal/rng"
)

// LinfKappaOpts configures EstimateLinfKappa.
type LinfKappaOpts struct {
	// Kappa is the target approximation factor, in [4, n] per Theorem 4.3.
	Kappa float64
	// AlphaC scales α = AlphaC·ln(n) (the paper's 10⁴·log n, scaled for
	// constant success probability). The universe-sampling rate is
	// q = min(α/κ, 1) and the level threshold is α·n²/κ. Default 4.
	AlphaC float64
	// Seed is the shared public-coin seed.
	Seed uint64
	// DisableUniverseSampling turns off the universe-sampling step — the
	// ablation the paper discusses, which only reaches Õ(n^1.5/√κ).
	DisableUniverseSampling bool
	// Shards splits Bob's row-parallel phases (row-weight precompute,
	// per-level ‖D^ℓ‖1 dot products) into contiguous ranges executed
	// concurrently. Never changes a transcript byte or an output bit;
	// 0 or 1 runs sequentially.
	Shards int
}

func (o *LinfKappaOpts) setDefaults(n int) error {
	if o.Kappa < 1 || o.Kappa > float64(n)+1 {
		return ErrBadKappa
	}
	if o.AlphaC <= 0 {
		o.AlphaC = 4
	}
	return nil
}

// EstimateLinfKappa is Algorithm 3 (Theorem 4.3): a κ-approximation of
// ‖AB‖∞ for Boolean matrices in O(1) rounds and Õ(n^1.5/κ) bits.
//
// It augments Algorithm 2 with a universe-sampling step: Alice keeps each
// item (column of A) with probability q = min(α/κ, 1), shrinking the
// active universe to Õ(n/κ) before the level sampling (now at rates 2^-ℓ,
// threshold α·n²/κ) and the item-wise index exchange. The two-case
// Cauchy–Schwarz argument then gives Õ(n^1.5/κ) total communication —
// without universe sampling the same pipeline only reaches Õ(n^1.5/√κ),
// an ablation the benchmarks measure (EstimateLinfKappaNoUniverse).
//
// If the sampled product D is empty the protocol falls back to reporting
// 1 when C is non-zero and 0 otherwise, which is κ-accurate because E5
// implies all entries of C are below κ/4 in that case. (Bob announces
// the fallback in his level message so a transport-separated Alice stops
// in lockstep — one extra Õ(1)-bit message relative to the paper's
// accounting.)
func EstimateLinfKappa(a, b *bitmat.Matrix, o LinfKappaOpts) (float64, Pair, Cost, error) {
	o.DisableUniverseSampling = false
	return linfKappaPair(a, b, o)
}

// EstimateLinfKappaNoUniverse is the ablation the paper discusses when
// motivating Algorithm 3: the same protocol without the universe-sampling
// step, which only achieves Õ(n^1.5/√κ) communication.
func EstimateLinfKappaNoUniverse(a, b *bitmat.Matrix, o LinfKappaOpts) (float64, Pair, Cost, error) {
	o.DisableUniverseSampling = true
	return linfKappaPair(a, b, o)
}

func linfKappaPair(a, b *bitmat.Matrix, o LinfKappaOpts) (float64, Pair, Cost, error) {
	if err := checkDims(a.Cols(), b.Rows()); err != nil {
		return 0, Pair{}, Cost{}, err
	}
	var est float64
	var arg Pair
	cost, err := runPair(
		func(t comm.Transport) error { return AliceLinfKappa(t, a, b.Cols(), o) },
		func(t comm.Transport) (err error) { est, arg, err = BobLinfKappa(t, b, a.Rows(), o); return err },
	)
	if err != nil {
		return 0, Pair{}, cost, err
	}
	return est, arg, cost, nil
}

// AliceLinfKappa drives Alice's side of Algorithm 3: universe sampling
// at rate q = min(α/κ, 1), level sampling of the survivors at rates
// 2^-ℓ, the round-1 message (survivor bitmap, full column sums for the
// fallback, per-level sums over survivors), then her half of the index
// exchange at Bob's level — unless Bob announces the empty-product
// fallback. m2 is Bob's column count (catalog metadata). The estimate
// is Bob's output.
func AliceLinfKappa(t comm.Transport, a *bitmat.Matrix, m2 int, o LinfKappaOpts) (err error) {
	defer recoverDecodeError(&err)
	n := a.Cols()
	if err := o.setDefaults(n); err != nil {
		return err
	}
	alicePriv := rng.New(o.Seed).Derive("alice-private", "linfkappa")

	alpha := o.AlphaC * lnDim(n)
	q := 1.0
	if !o.DisableUniverseSampling {
		q = math.Min(alpha/o.Kappa, 1)
	}

	// Universe sampling: Alice keeps each item with probability q.
	keep := make([]bool, n)
	var active []int
	for k := 0; k < n; k++ {
		if q >= 1 || alicePriv.Bernoulli(q) {
			keep[k] = true
			active = append(active, k)
		}
	}

	// Level sampling of the surviving entries at rates 2^-ℓ.
	var weightKept int
	for _, k := range active {
		weightKept += a.ColWeight(k)
	}
	maxLevel := 0
	if weightKept > 1 {
		maxLevel = int(math.Ceil(math.Log2(float64(weightKept)))) + 1
	}
	colsAll := levelColumns(a, alicePriv, 2, maxLevel)
	cols := make([][]itemEntry, n)
	for _, k := range active {
		cols[k] = colsAll[k]
	}

	// Round 1 (Alice→Bob): survivor bitmap, full column sums of A (for
	// the ‖C‖1 fallback), and per-level column sums over survivors.
	msg1 := comm.NewMessage()
	msg1.Label = "survivor bitmap and per-level column sums"
	msg1.PutBitmap(keep)
	for k := 0; k < n; k++ {
		msg1.PutUvarint(uint64(a.ColWeight(k)))
	}
	msg1.PutUvarint(uint64(maxLevel))
	colSums := make([][]int, maxLevel+1)
	for ℓ := 0; ℓ <= maxLevel; ℓ++ {
		colSums[ℓ] = make([]int, n)
	}
	for _, k := range active {
		for _, e := range cols[k] {
			for ℓ := 0; ℓ <= int(e.level); ℓ++ {
				colSums[ℓ][k]++
			}
		}
	}
	for ℓ := 0; ℓ <= maxLevel; ℓ++ {
		for _, k := range active {
			msg1.PutUvarint(uint64(colSums[ℓ][k]))
		}
	}
	t.Send(comm.AliceToBob, msg1)

	// Round 2 (Bob→Alice): the selected level, or maxLevel+1 as the
	// empty-product fallback signal.
	lStar := int(t.Recv(comm.BobToAlice).Uvarint())
	if lStar > maxLevel {
		return nil // fallback: Bob answers from ‖C‖1 alone
	}
	aliceExchangeTurn(t, cols, lStar, colSums[lStar], active, a.Rows(), m2)
	return nil
}

// AliceLinfKappaSparse is AliceLinfKappa on the non-zero lists of
// Alice's 0/1 matrix, from which her bit rows are set: every listed
// entry is a one.
func AliceLinfKappaSparse(t comm.Transport, a *intmat.Sparse, m2 int, o LinfKappaOpts) error {
	return AliceLinfKappa(t, bitmat.FromSparse(a), m2, o)
}

// BobLinfKappa drives Bob's side of Algorithm 3: he computes ‖D^ℓ‖1 per
// level from Alice's survivor sums (Remark 2 per level), selects the
// first level below the α·m1·m2/κ threshold, runs his half of the index
// exchange, and rescales by 1/(q·2^-ℓ*). If the sampled product is
// empty he announces the fallback level and reports 1 iff C ≠ 0. m1 is
// Alice's row count (catalog metadata).
func BobLinfKappa(t comm.Transport, b *bitmat.Matrix, m1 int, o LinfKappaOpts) (est float64, arg Pair, err error) {
	st, err := NewBobLinfKappaState(b, o)
	if err != nil {
		return 0, Pair{}, err
	}
	return st.Serve(t, m1)
}

// BobLinfKappaState is the matrix-dependent phase of Bob's side of
// Algorithm 3: B with its per-row weights v_k precomputed. Immutable
// after construction; safe for concurrent Serve calls.
type BobLinfKappaState struct {
	b    *bitmat.Matrix
	vk   []int64 // RowWeight per row of B
	opts LinfKappaOpts
}

// NewBobLinfKappaState validates the options and precomputes B's row
// weights over sharded row ranges.
func NewBobLinfKappaState(b *bitmat.Matrix, o LinfKappaOpts) (*BobLinfKappaState, error) {
	if err := o.setDefaults(b.Rows()); err != nil {
		return nil, err
	}
	return &BobLinfKappaState{b: b, vk: rowWeightsSharded(b, o.Shards), opts: o}, nil
}

// Bytes reports the memory retained by the precomputation.
func (s *BobLinfKappaState) Bytes() int64 { return int64(8 * len(s.vk)) }

// Serve runs the per-query phase of Bob's side of Algorithm 3 over t.
// m1 is Alice's row count for this query.
func (s *BobLinfKappaState) Serve(t comm.Transport, m1 int) (est float64, arg Pair, err error) {
	defer recoverDecodeError(&err)
	o := s.opts
	b := s.b
	n := b.Rows()
	m2 := b.Cols()
	alpha := o.AlphaC * lnDim(n)
	q := 1.0
	if !o.DisableUniverseSampling {
		q = math.Min(alpha/o.Kappa, 1)
	}

	// Round 1 in: parse, compute ‖D^ℓ‖1 per level, decide.
	recv1 := t.Recv(comm.AliceToBob)
	keepBob := recv1.Bitmap()
	if len(keepBob) != n {
		panic(fmt.Sprintf("core: survivor bitmap over %d items, B has %d rows", len(keepBob), n))
	}
	fullColSums := make([]int64, n)
	for k := 0; k < n; k++ {
		fullColSums[k] = int64(recv1.Uvarint())
	}
	var activeBob []int
	for k := 0; k < n; k++ {
		if keepBob[k] {
			activeBob = append(activeBob, k)
		}
	}
	bobColSums := readLevelSums(recv1, levelBound(m1*n, 2), n, activeBob)
	gotMax := len(bobColSums) - 1
	// ‖C‖1 and ‖D‖1 shard with exact int64 partials over item ranges.
	l1C := sumInt64Shards(n, o.Shards, func(k int) int64 {
		return fullColSums[k] * s.vk[k]
	})
	l1D := sumInt64Shards(n, o.Shards, func(k int) int64 {
		if !keepBob[k] {
			return 0
		}
		return int64(bobColSums[0][k]) * s.vk[k]
	})
	if l1D == 0 {
		// ‖D‖1 = 0: announce the fallback and output 1 iff C is non-zero
		// (κ-accurate by E5).
		msgL := comm.NewMessage()
		msgL.Label = "empty-product fallback"
		msgL.PutUvarint(uint64(gotMax) + 1)
		t.Send(comm.BobToAlice, msgL)
		if l1C == 0 {
			return 0, Pair{}, nil
		}
		return 1, Pair{}, nil
	}
	threshold := alpha * float64(m1) * float64(m2) / o.Kappa
	lStar := gotMax
	for ℓ := 0; ℓ <= gotMax; ℓ++ {
		colSums := bobColSums[ℓ]
		l1 := sumInt64Shards(len(activeBob), o.Shards, func(t int) int64 {
			k := activeBob[t]
			return int64(colSums[k]) * s.vk[k]
		})
		if float64(l1) <= threshold {
			lStar = ℓ
			break
		}
	}

	// Round 2 begins (Bob→Alice): ℓ*, then the index exchange.
	msgL := comm.NewMessage()
	msgL.Label = "selected level ℓ*"
	msgL.PutUvarint(uint64(lStar))
	t.Send(comm.BobToAlice, msgL)

	vkSent := bobExchangeSend(t, b, bobColSums[lStar], activeBob)
	maxVal, arg, _ := bobExchangeFinish(t, b, vkSent, bobColSums[lStar], activeBob, m1)
	pl := math.Pow(2, -float64(lStar))
	return float64(maxVal) / (q * pl), arg, nil
}
