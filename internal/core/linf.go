package core

import (
	"fmt"
	"math"

	"repro/internal/bitmat"
	"repro/internal/comm"
	"repro/internal/intmat"
	"repro/internal/rng"
)

// LinfOpts configures EstimateLinfBinary.
type LinfOpts struct {
	// Eps is the approximation slack: the estimate is within a (2+ε)
	// factor of ‖AB‖∞ with constant probability. Required, in (0, 1].
	Eps float64
	// GammaC scales the level-selection threshold γ = GammaC·ln(n)/ε²
	// (the paper's 10⁴·log n/ε², scaled for constant success
	// probability). Default 1.
	GammaC float64
	// Seed is the shared public-coin seed.
	Seed uint64
	// Shards splits Bob's row-parallel phases (row-weight precompute,
	// per-level ‖C^ℓ‖1 dot products) into contiguous ranges executed
	// concurrently. Never changes a transcript byte or an output bit;
	// 0 or 1 runs sequentially.
	Shards int
}

func (o *LinfOpts) setDefaults() error {
	if o.Eps <= 0 || o.Eps > 1 {
		return ErrBadEps
	}
	if o.GammaC <= 0 {
		o.GammaC = 1
	}
	return nil
}

// itemEntry records one surviving 1-entry of Alice's matrix in column
// (item) k: the row index and the deepest subsampling level it survives.
type itemEntry struct {
	row   int32
	level int32
}

// levelColumns assigns every 1-entry of a an independent geometric
// survival level (entry survives level ℓ iff its uniform draw is below
// p_ℓ) and groups entries by item (column). base is the level decay:
// survival probability at level ℓ is base^-ℓ.
func levelColumns(a *bitmat.Matrix, priv *rng.RNG, base float64, maxLevel int) [][]itemEntry {
	cols := make([][]itemEntry, a.Cols())
	logBase := math.Log(base)
	for i := 0; i < a.Rows(); i++ {
		for _, k := range a.RowSupport(i) {
			u := priv.Float64()
			for u == 0 {
				u = priv.Float64()
			}
			// Survives level ℓ iff u ≤ base^-ℓ ⟺ ℓ ≤ ln(1/u)/ln(base).
			lev := int(math.Floor(math.Log(1/u) / logBase))
			if lev > maxLevel {
				lev = maxLevel
			}
			cols[k] = append(cols[k], itemEntry{row: int32(i), level: int32(lev)})
		}
	}
	return cols
}

// survivorsAt returns the rows of column k surviving level ℓ, in
// increasing order (levelColumns emits rows in increasing order).
func survivorsAt(col []itemEntry, ℓ int) []int {
	var out []int
	for _, e := range col {
		if int(e.level) >= ℓ {
			out = append(out, int(e.row))
		}
	}
	return out
}

// The index exchange (steps 7–14 of Algorithm 2): for every active item
// k, the party with the smaller side (Alice's surviving rows containing
// k vs. Bob's columns containing k) ships its index list, after which
// Alice and Bob hold matrices CA and CB with CA + CB = C' (the
// subsampled product). uk must be known to both parties before it runs
// (it is part of the colsum message of round 1). It is split into three
// phases so the same logic serves both the party drivers (Bob runs
// send + finish, Alice runs her turn) and the interleaved composition
// below.

// bobExchangeSend is Bob's opening move: vk for active items, then his
// index lists for the items he covers — one B→A message. It returns vk
// for bobExchangeFinish.
func bobExchangeSend(t comm.Transport, b *bitmat.Matrix, uk []int, active []int) []int {
	bobMsg := comm.NewMessage()
	bobMsg.Label = "v_k counts and Bob's item index lists"
	vk := make([]int, len(uk))
	for _, k := range active {
		vk[k] = b.RowWeight(k)
		bobMsg.PutUvarint(uint64(vk[k]))
	}
	for _, k := range active {
		if uk[k] > 0 && vk[k] > 0 && vk[k] < uk[k] {
			bobMsg.PutIndexList(b.RowSupport(k))
		}
	}
	t.Send(comm.BobToAlice, bobMsg)
	return vk
}

// aliceExchangeTurn is Alice's whole exchange: read Bob's vk and lists,
// build CA, reply with her lists for the items she covers plus her
// local maximum — one A→B message. It returns CA for protocols that
// need the partial matrix.
func aliceExchangeTurn(t comm.Transport, aliceCols [][]itemEntry, level int, uk []int, active []int, m1, m2 int) *intmat.Dense {
	recvB := t.Recv(comm.BobToAlice)
	vkA := make([]int, len(uk))
	for _, k := range active {
		vkA[k] = int(recvB.Uvarint())
	}
	ca := intmat.NewDense(m1, m2)
	for _, k := range active {
		if uk[k] > 0 && vkA[k] > 0 && vkA[k] < uk[k] {
			js := indexListBelow(recvB, m2, "column")
			for _, i := range survivorsAt(aliceCols[k], level) {
				row := ca.Row(i)
				for _, j := range js {
					row[j]++
				}
			}
		}
	}
	maxCA, argI, argJ := ca.Linf()

	aliceMsg := comm.NewMessage()
	aliceMsg.Label = "Alice's item index lists and ‖CA‖∞"
	for _, k := range active {
		if uk[k] > 0 && vkA[k] > 0 && uk[k] <= vkA[k] {
			aliceMsg.PutIndexList(survivorsAt(aliceCols[k], level))
		}
	}
	aliceMsg.PutVarint(maxCA)
	aliceMsg.PutUvarint(uint64(argI))
	aliceMsg.PutUvarint(uint64(argJ))
	t.Send(comm.AliceToBob, aliceMsg)
	return ca
}

// indexListBelow reads an index list of the exchange and refuses an
// index outside [0, limit): the lists address rows or columns of the
// product, whose shape both parties know.
func indexListBelow(recv *comm.Message, limit int, what string) []int {
	list := recv.IndexList()
	for _, i := range list {
		if i < 0 || i >= limit {
			panic(fmt.Sprintf("core: %s index %d in an index list over %d %ss", what, i, limit, what))
		}
	}
	return list
}

// readLevelSums reads the tail of Alice's round 1 in Algorithms 2 and
// 3: her deepest level, then one column sum per level and active item,
// which land in row ℓ of the result at the item's index (n to a row).
// The level count sizes the result, so it is checked first against what
// Alice can have: her deepest level is at most bound (⌈log_base of her
// matrix's weight⌉ + 1, and the weight is at most its cell count —
// catalog metadata), and every sum she lists takes a byte at least.
func readLevelSums(recv *comm.Message, bound, n int, active []int) [][]int {
	got := recv.Uvarint()
	if got > uint64(bound) {
		panic(fmt.Sprintf("core: deepest level %d, at most %d for a matrix of this shape", got, bound))
	}
	if len(active) > 0 && got >= uint64(recv.Remaining()/len(active)) {
		panic(fmt.Sprintf("core: %d levels of %d column sums in %d bytes", got+1, len(active), recv.Remaining()))
	}
	flat := make([]int, (int(got)+1)*n)
	sums := make([][]int, got+1)
	for ℓ := range sums {
		sums[ℓ] = flat[ℓ*n : (ℓ+1)*n : (ℓ+1)*n]
		for _, k := range active {
			sums[ℓ][k] = int(recv.Uvarint())
		}
	}
	return sums
}

// levelBound is the deepest level a party subsampling at decay base can
// reach on a matrix of the given cell count: linfLevels' and
// AliceLinfKappa's ⌈log_base(weight)⌉ + 1 at the largest weight there
// is.
func levelBound(cells int, base float64) int {
	if cells <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log(float64(cells))/math.Log(base))) + 1
}

// bobExchangeFinish is Bob's closing move: read Alice's lists, build
// CB, and combine both sides' maxima into the protocol output
// max(‖CA‖∞, ‖CB‖∞) with its witnessing pair.
func bobExchangeFinish(t comm.Transport, b *bitmat.Matrix, vk, uk []int, active []int, m1 int) (maxVal int64, arg Pair, cb *intmat.Dense) {
	recvA := t.Recv(comm.AliceToBob)
	cb = intmat.NewDense(m1, b.Cols())
	for _, k := range active {
		if uk[k] > 0 && vk[k] > 0 && uk[k] <= vk[k] {
			is := indexListBelow(recvA, m1, "row")
			bRow := b.RowSupport(k)
			for _, i := range is {
				row := cb.Row(i)
				for _, j := range bRow {
					row[j]++
				}
			}
		}
	}
	maxCAFromAlice := recvA.Varint()
	aI := int(recvA.Uvarint())
	aJ := int(recvA.Uvarint())
	maxCB, bI, bJ := cb.Linf()
	if maxCAFromAlice >= maxCB {
		return maxCAFromAlice, Pair{I: aI, J: aJ}, cb
	}
	return maxCB, Pair{I: bI, J: bJ}, cb
}

// indexExchange composes the three phases for interleaved callers that
// hold both matrices (heavy hitters for Boolean inputs). t must be a
// two-sided transport (the in-process Conn): Bob's send is immediately
// receivable by Alice's turn on the same goroutine.
func indexExchange(t comm.Transport, aliceCols [][]itemEntry, level int, uk []int, b *bitmat.Matrix, m1, m2 int, active []int) (maxVal int64, arg Pair, ca, cb *intmat.Dense) {
	vk := bobExchangeSend(t, b, uk, active)
	ca = aliceExchangeTurn(t, aliceCols, level, uk, active, m1, m2)
	maxVal, arg, cb = bobExchangeFinish(t, b, vk, uk, active, m1)
	return maxVal, arg, ca, cb
}

// EstimateLinfBinary is Algorithm 2 (Theorem 4.1): a 3-round protocol
// approximating ‖AB‖∞ for Boolean matrices within a (2+ε) factor using
// Õ(n^1.5/ε) bits.
//
// Alice subsamples her 1-entries at geometric rates p_ℓ = (1+ε)^-ℓ;
// round 1 ships per-level column sums so Bob can locate the first level
// ℓ* at which ‖C^ℓ‖1 ≤ γ·n² (Remark 2 per level). The parties then
// exchange, per item, the smaller of Alice's "rows containing k" /
// Bob's "columns containing k" index lists — Σ_k min(u_k, v_k) ≤
// √(n·‖C^ℓ*‖1) ≤ n^1.5·√γ by Cauchy–Schwarz — which splits C^ℓ* into
// CA + CB. Since max(‖CA‖∞, ‖CB‖∞) ≥ ‖C^ℓ*‖∞/2 and the subsampled
// maximum rescales by 1/p_ℓ* within (1±ε), the output is a (2+ε)-factor
// approximation; the matching Ω(n²) bound for factor 2 (Theorem 4.4)
// makes the 2+ε loss necessary.
//
// It also returns the witnessing pair, which is the maximizer of the
// dominant side's partial matrix.
func EstimateLinfBinary(a, b *bitmat.Matrix, o LinfOpts) (float64, Pair, Cost, error) {
	if err := checkDims(a.Cols(), b.Rows()); err != nil {
		return 0, Pair{}, Cost{}, err
	}
	var est float64
	var arg Pair
	cost, err := runPair(
		func(t comm.Transport) error { return AliceLinf(t, a, b.Cols(), o) },
		func(t comm.Transport) (err error) { est, arg, err = BobLinf(t, b, a.Rows(), o); return err },
	)
	if err != nil {
		return 0, Pair{}, cost, err
	}
	return est, arg, cost, nil
}

// linfLevels performs Alice's subsampling for Algorithm 2: every
// 1-entry of a gets a geometric survival level at decay base, and the
// per-level column sums are tabulated for round 1.
func linfLevels(a *bitmat.Matrix, priv *rng.RNG, base float64) (cols [][]itemEntry, colSums [][]int, maxLevel int) {
	weightA := a.Weight()
	if weightA > 1 {
		maxLevel = int(math.Ceil(math.Log(float64(weightA))/math.Log(base))) + 1
	}
	cols = levelColumns(a, priv, base, maxLevel)
	colSums = make([][]int, maxLevel+1)
	for ℓ := 0; ℓ <= maxLevel; ℓ++ {
		colSums[ℓ] = make([]int, a.Cols())
	}
	for k, col := range cols {
		for _, e := range col {
			for ℓ := 0; ℓ <= int(e.level); ℓ++ {
				colSums[ℓ][k]++
			}
		}
	}
	return cols, colSums, maxLevel
}

// allItems returns the full active-item set {0, …, n−1} (Algorithm 2
// runs the exchange over every item; Algorithm 3 only over survivors of
// the universe sampling).
func allItems(n int) []int {
	active := make([]int, n)
	for k := range active {
		active[k] = k
	}
	return active
}

// AliceLinf drives Alice's side of Algorithm 2: level subsampling,
// per-level column sums in round 1, then her half of the index exchange
// at the level Bob selects. m2 is Bob's column count (catalog
// metadata). The estimate is Bob's output.
func AliceLinf(t comm.Transport, a *bitmat.Matrix, m2 int, o LinfOpts) (err error) {
	defer recoverDecodeError(&err)
	if err := o.setDefaults(); err != nil {
		return err
	}
	n := a.Cols()
	alicePriv := rng.New(o.Seed).Derive("alice-private", "linf")
	cols, colSums, maxLevel := linfLevels(a, alicePriv, 1+o.Eps)

	// Round 1 (Alice→Bob): per-level column sums of A^ℓ.
	msg1 := comm.NewMessage()
	msg1.Label = "per-level column sums of A^ℓ"
	msg1.PutUvarint(uint64(maxLevel))
	for ℓ := 0; ℓ <= maxLevel; ℓ++ {
		for k := 0; k < n; k++ {
			msg1.PutUvarint(uint64(colSums[ℓ][k]))
		}
	}
	t.Send(comm.AliceToBob, msg1)

	// Round 2 (Bob→Alice): the selected level, then Alice's exchange turn.
	lStar := int(t.Recv(comm.BobToAlice).Uvarint())
	if lStar > maxLevel {
		return fmt.Errorf("core: selected level %d exceeds maximum %d", lStar, maxLevel)
	}
	aliceExchangeTurn(t, cols, lStar, colSums[lStar], allItems(n), a.Rows(), m2)
	return nil
}

// AliceLinfSparse is AliceLinf on the non-zero lists of Alice's 0/1
// matrix, from which her bit rows are set: every listed entry is a one.
func AliceLinfSparse(t comm.Transport, a *intmat.Sparse, m2 int, o LinfOpts) error {
	return AliceLinf(t, bitmat.FromSparse(a), m2, o)
}

// BobLinf drives Bob's side of Algorithm 2: he locates the first level
// ℓ* at which ‖C^ℓ‖1 falls below the γ·m1·m2 threshold (Remark 2 per
// level), announces it, runs his half of the index exchange, and
// rescales the subsampled maximum by 1/p_ℓ*. m1 is Alice's row count
// (catalog metadata).
func BobLinf(t comm.Transport, b *bitmat.Matrix, m1 int, o LinfOpts) (est float64, arg Pair, err error) {
	st, err := NewBobLinfState(b, o)
	if err != nil {
		return 0, Pair{}, err
	}
	return st.Serve(t, m1)
}

// BobLinfState is the matrix-dependent phase of Bob's side of
// Algorithm 2: B with its per-row weights v_k precomputed (the level
// selection folds them against Alice's column sums every query).
// Immutable after construction; safe for concurrent Serve calls.
type BobLinfState struct {
	b    *bitmat.Matrix
	vk   []int64 // RowWeight per row of B
	opts LinfOpts
}

// NewBobLinfState validates the options and precomputes B's row
// weights over sharded row ranges.
func NewBobLinfState(b *bitmat.Matrix, o LinfOpts) (*BobLinfState, error) {
	if err := o.setDefaults(); err != nil {
		return nil, err
	}
	return &BobLinfState{b: b, vk: rowWeightsSharded(b, o.Shards), opts: o}, nil
}

// rowWeightsSharded computes per-row bit weights of b over contiguous
// sharded row ranges (disjoint writes).
func rowWeightsSharded(b *bitmat.Matrix, shards int) []int64 {
	vk := make([]int64, b.Rows())
	runShards(b.Rows(), shards, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			vk[k] = int64(b.RowWeight(k))
		}
	})
	return vk
}

// Bytes reports the memory retained by the precomputation.
func (s *BobLinfState) Bytes() int64 { return int64(8 * len(s.vk)) }

// Serve runs the per-query phase of Bob's side of Algorithm 2 over t.
// m1 is Alice's row count for this query.
func (s *BobLinfState) Serve(t comm.Transport, m1 int) (est float64, arg Pair, err error) {
	defer recoverDecodeError(&err)
	o := s.opts
	b := s.b
	n := b.Rows()
	m2 := b.Cols()

	// Round 1 in: per-level column sums; pick ℓ* via Remark 2 per level.
	recv1 := t.Recv(comm.AliceToBob)
	active := allItems(n)
	bobColSums := readLevelSums(recv1, levelBound(m1*n, 1+o.Eps), n, active)
	gotMax := len(bobColSums) - 1
	gamma := o.GammaC * lnDim(n) / (o.Eps * o.Eps)
	threshold := gamma * float64(m1) * float64(m2)
	lStar := gotMax
	for ℓ := 0; ℓ <= gotMax; ℓ++ {
		// Remark 2 per level: the ‖C^ℓ‖1 dot product shards with exact
		// int64 partials; the level scan itself stays sequential (it
		// stops at the first level under the threshold).
		colSums := bobColSums[ℓ]
		l1 := sumInt64Shards(n, o.Shards, func(k int) int64 {
			return int64(colSums[k]) * s.vk[k]
		})
		if float64(l1) <= threshold {
			lStar = ℓ
			break
		}
	}

	// Round 2 begins (Bob→Alice): ℓ*, then the exchange.
	msgL := comm.NewMessage()
	msgL.Label = "selected level ℓ*"
	msgL.PutUvarint(uint64(lStar))
	t.Send(comm.BobToAlice, msgL)

	vkSent := bobExchangeSend(t, b, bobColSums[lStar], active)
	maxVal, arg, _ := bobExchangeFinish(t, b, vkSent, bobColSums[lStar], active, m1)

	pl := math.Pow(1+o.Eps, -float64(lStar))
	return float64(maxVal) / pl, arg, nil
}
