package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/comm"
	"repro/internal/intmat"
	"repro/internal/rng"
	"repro/internal/sketch"
)

// HHOpts configures HeavyHitters (Algorithm 4 / Corollary 5.2).
type HHOpts struct {
	// Phi and Eps define the ℓp-(ϕ,ε)-heavy-hitter guarantee: the output
	// S satisfies HH_ϕ(AB) ⊆ S ⊆ HH_{ϕ-ε}(AB). Must satisfy
	// 0 < Eps ≤ Phi ≤ 1.
	Phi, Eps float64
	// P is the norm index in (0, 2]. Default 1, the natural-join case the
	// paper presents first; other p follow Corollary 5.2.
	P float64
	// BetaC scales the entry-sampling rate (the paper's 10⁴ log n,
	// scaled). Default 2.
	BetaC float64
	// Reps is the tensor-CountSketch repetition count for the embedded
	// Lemma 2.5 recovery. Default 11.
	Reps int
	// Seed is the shared public-coin seed.
	Seed uint64
	// Shards splits Bob's row-parallel phases (the row totals and the
	// embedded Algorithm 1 state) into contiguous ranges executed
	// concurrently. Never changes a transcript byte or an output bit; 0
	// or 1 runs sequentially.
	Shards int
}

func (o *HHOpts) setDefaults() error {
	if o.Eps <= 0 || o.Phi < o.Eps || o.Phi > 1 {
		return ErrBadPhi
	}
	if o.P == 0 {
		o.P = 1
	}
	if o.P < 0 || o.P > 2 {
		return ErrBadP
	}
	if o.BetaC <= 0 {
		o.BetaC = 2
	}
	if o.Reps <= 0 {
		o.Reps = 11
	}
	return nil
}

func addCost(a, b Cost) Cost {
	return Cost{
		Bits:   a.Bits + b.Bits,
		Rounds: a.Rounds + b.Rounds,
		Stats: comm.Stats{
			BitsAliceToBob: a.Stats.BitsAliceToBob + b.Stats.BitsAliceToBob,
			BitsBobToAlice: a.Stats.BitsBobToAlice + b.Stats.BitsBobToAlice,
			Messages:       a.Stats.Messages + b.Stats.Messages,
			Rounds:         a.Stats.Rounds + b.Stats.Rounds,
		},
	}
}

// hhNestedLpOpts is the option set of Algorithm 4's embedded ‖C‖p^p
// estimation (step 1b) — the common choice both parties must agree on.
// Shards rides along: it is execution-local and transcript-free, so the
// parties need not agree on it.
func hhNestedLpOpts(o HHOpts) LpOpts {
	return LpOpts{Eps: math.Min(0.25, o.Eps/(4*o.Phi)), Seed: o.Seed + 1, Shards: o.Shards}
}

// HeavyHitters is Algorithm 4 (Theorem 5.1) extended to p ∈ (0, 2]
// (Corollary 5.2): an O(1)-round protocol computing the
// ℓp-(ϕ,ε)-heavy-hitters of C = A·B for integer matrices with
// Õ(√ϕ/ε·n) bits of communication.
//
// The idea mirrors the ℓ∞ protocols: Alice downsamples the non-zero
// entries of A at rate β chosen so heavy entries of C^β = A^β·B stay
// concentrated (1 ± ε/4ϕ) while ‖C^β‖1 collapses to Õ(ϕ/ε²). The sparse
// C^β is then recovered exactly through the embedded Lemma 2.5 tensor
// sketch (grid side Θ(√(ϕ)/ε), hence the √ϕ/ε·n bits), candidate entries
// above (εβ/8)·ϕ^{... } are exchanged, and entries above
// β·((ϕ−ε/2)‖C‖p^p)^{1/p} are output.
//
// ‖C‖p^p (the heaviness scale) is computed exactly via Remark 2 when
// p = 1 and both matrices are non-negative, and estimated with
// Algorithm 1 otherwise — run inline on the same transport, so its cost
// is included in the returned Cost.
//
// Returned values are the recovered C^β entries rescaled by 1/β, i.e.
// unbiased estimates of C[i][j].
func HeavyHitters(a, b *intmat.Dense, o HHOpts) ([]WeightedPair, Cost, error) {
	if err := checkDims(a.Cols(), b.Rows()); err != nil {
		return nil, Cost{}, err
	}
	as, bs := a.List(), b.List()
	aNonNeg := requireNonNegative(as) == nil
	bNonNeg := requireNonNegative(bs) == nil
	var out []WeightedPair
	cost, err := runPair(
		func(t comm.Transport) error { return AliceHH(t, as, b.Cols(), bNonNeg, o) },
		func(t comm.Transport) (err error) { out, err = BobHH(t, bs, a.Rows(), aNonNeg, o); return err },
	)
	if err != nil {
		return nil, cost, err
	}
	return out, cost, nil
}

// AliceHH drives Alice's side of Algorithm 4 on the non-zero lists of
// her matrix, which every step reads: absolute column sums out, the
// embedded scale estimation when needed, β-downsampling of A, her side
// of the Lemma 2.5 recovery, and the candidate shipment. m2 is Bob's
// column count and bNonNeg whether Bob's matrix is entrywise
// non-negative — both catalog metadata known before the protocol
// starts. The heavy-hitter set is Bob's output.
func AliceHH(t comm.Transport, a intmat.Matrix, m2 int, bNonNeg bool, o HHOpts) (err error) {
	defer recoverDecodeError(&err)
	if err := o.setDefaults(); err != nil {
		return err
	}
	as := a.List()
	n := as.Cols()
	m1 := as.Rows()

	// Step 1a (Alice→Bob): column sums of |A|.
	msg1 := comm.NewMessage()
	msg1.Label = "column sums of |A|"
	absColSums, aNonNeg, err := absColumnSums(as)
	if err != nil {
		return err
	}
	for _, s := range absColSums {
		msg1.PutUvarint(uint64(s))
	}
	t.Send(comm.AliceToBob, msg1)

	// Step 1b: when the scale is not exact, run Alice's side of the
	// embedded Algorithm 1 on the same transport.
	if !(o.P == 1 && bNonNeg && aNonNeg) {
		nested, err := NewAliceLpState(m2, o.P, hhNestedLpOpts(o))
		if err != nil {
			return err
		}
		if err := nested.Serve(t, as); err != nil {
			return err
		}
	}

	// Step 1c (Bob→Alice): the scale.
	recv2 := t.Recv(comm.BobToAlice)
	t1absAlice := recv2.Varint()
	tpAlice := recv2.Float64()
	if tpAlice <= 0 {
		return nil // empty (or estimated-empty) product: no heavy hitters
	}

	// Step 2: sampling rate.
	heavyVal := math.Pow(o.Phi*tpAlice, 1/o.P)
	beta := math.Min(8*o.BetaC*lnDim(n)*(o.Phi/o.Eps)*(o.Phi/o.Eps)/heavyVal, 1)

	// Step 3: Alice samples the non-zero entries of A, one private coin
	// each in row-major order.
	alicePriv := rng.New(o.Seed).Derive("alice-private", "hh")
	aBeta := as.Filter(func(int, int, int64) bool { return alicePriv.Bernoulli(beta) })

	// Step 4: recover C^β via the Lemma 2.5 tensor sketch.
	ts := hhTensorSketch(o, m1, n, m2, beta, t1absAlice)
	recv3 := t.Recv(comm.BobToAlice)
	factor := readCompressedFactor(recv3, ts)
	if recv3.Remaining() != 0 {
		panic(fmt.Sprintf("core: %d bytes after the compressed factor", recv3.Remaining()))
	}
	recovered := ts.Recover(aBeta, factor)

	// Step 5 (Alice→Bob): ship entries above the εβ·heavyVal/(8ϕ) floor.
	sendCutoff := (o.Eps / (8 * o.Phi)) * beta * heavyVal
	msg4 := comm.NewMessage()
	msg4.Label = "candidate heavy entries of C^β"
	var shipped []intmat.Entry
	for _, e := range recovered {
		if math.Abs(float64(e.V)) >= sendCutoff {
			shipped = append(shipped, e)
		}
	}
	msg4.PutUvarint(uint64(len(shipped)))
	for _, e := range shipped {
		msg4.PutUvarint(uint64(e.I))
		msg4.PutUvarint(uint64(e.J))
		msg4.PutVarint(e.V)
	}
	t.Send(comm.AliceToBob, msg4)
	return nil
}

// BobHH drives Bob's side of Algorithm 4: he derives the exact
// ‖|A|·|B|‖1 scale from Alice's column sums (estimating ‖C‖p^p inline
// when the exact shortcut does not apply), shares it, compresses B for
// the Lemma 2.5 recovery, and keeps the shipped candidates above the
// output threshold. m1 is Alice's row count and aNonNeg whether her
// matrix is entrywise non-negative — both catalog metadata.
func BobHH(t comm.Transport, b intmat.Matrix, m1 int, aNonNeg bool, o HHOpts) (out []WeightedPair, err error) {
	st, err := NewBobHHState(b, o)
	if err != nil {
		return nil, err
	}
	return st.Serve(t, m1, aNonNeg)
}

// BobHHState is the matrix-dependent phase of Bob's side of
// Algorithm 4: B's non-zeros row by row (borrowed), which every query's
// Lemma 2.5 factor is compressed from (the sketch itself is sized per
// query, from the scale Alice's column sums give); the row totals of B,
// which the ‖|A|·|B|‖1 scale folds those column sums against and which
// tell B's signedness; and — built lazily on first use, since it is
// only needed when the exact p = 1 scale shortcut does not apply to a
// query — the nested BobLpState of the embedded Algorithm 1, whose
// round 2 borrows this state's lists and totals rather than deriving
// them again. Safe for concurrent Serve calls.
type BobHHState struct {
	nz   *intmat.Sparse // B's non-zeros per row: step 4 compresses them, the nested state borrows them
	tot  *rowTotals     // the nested state borrows them too
	opts HHOpts         // defaults applied

	nestedMu    sync.Mutex
	nestedBuilt bool
	nested      *BobLpState
	nestedErr   error
}

// NewBobHHState validates the options and runs the matrix-dependent
// precomputation of Bob's side of Algorithm 4.
func NewBobHHState(b intmat.Matrix, o HHOpts) (*BobHHState, error) {
	if err := o.setDefaults(); err != nil {
		return nil, err
	}
	nz := b.List()
	return &BobHHState{nz: nz, tot: newRowTotals(nz.Rows(), o.Shards, listTotal(nz)), opts: o}, nil
}

// Bytes reports the memory retained by the precomputation: the row
// totals, and once built the nested state, which holds the same totals
// and counts them (B's lists are their owner's and not counted).
func (s *BobHHState) Bytes() int64 {
	s.nestedMu.Lock()
	defer s.nestedMu.Unlock()
	if s.nested != nil {
		return s.nested.Bytes()
	}
	return s.tot.Bytes()
}

// nestedLp returns the nested Algorithm 1 state, building it on first
// use.
func (s *BobHHState) nestedLp() (*BobLpState, error) {
	s.nestedMu.Lock()
	defer s.nestedMu.Unlock()
	if !s.nestedBuilt {
		s.nested, s.nestedErr = newBobLpState(s.nz, s.tot, s.opts.P, hhNestedLpOpts(s.opts))
		s.nestedBuilt = true
	}
	return s.nested, s.nestedErr
}

// Serve runs the per-query phase of Bob's side of Algorithm 4 over t.
// m1 is Alice's row count and aNonNeg her matrix's signedness for this
// query.
func (s *BobHHState) Serve(t comm.Transport, m1 int, aNonNeg bool) (out []WeightedPair, err error) {
	defer recoverDecodeError(&err)
	o := s.opts
	n := s.nz.Rows()
	m2 := s.nz.Cols()

	// Step 1a in: the exact ‖|A|·|B|‖1, which upper-bounds the sampled
	// sparsity for any sign pattern and equals ‖C‖1 for non-negative
	// inputs — refused once it reaches 2⁶³.
	recv1 := t.Recv(comm.AliceToBob)
	absColSums := make([]uint64, n)
	for k := 0; k < n; k++ {
		absColSums[k] = recv1.Uvarint()
	}
	sum, ok := foldTotals(s.tot, absColSums, intLimit)
	if !ok {
		return nil, ErrOverflow
	}
	t1abs := int64(sum)

	// Step 1b: the heaviness scale ‖C‖p^p.
	var tp float64
	if o.P == 1 && aNonNeg && s.tot.nSigned == 0 {
		tp = float64(t1abs)
	} else {
		nested, err := s.nestedLp()
		if err != nil {
			return nil, err
		}
		est, err := nested.Serve(t)
		if err != nil {
			return nil, err
		}
		tp = est
	}

	// Step 1c (Bob→Alice): share the scale so Alice can set β.
	msg2 := comm.NewMessage()
	msg2.Label = "heaviness scale"
	msg2.PutVarint(t1abs)
	msg2.PutFloat64(tp)
	t.Send(comm.BobToAlice, msg2)
	if tp <= 0 {
		return nil, nil // empty (or estimated-empty) product
	}

	// Step 2: the sampling rate, mirrored from Alice's computation.
	heavyVal := math.Pow(o.Phi*tp, 1/o.P)
	beta := math.Min(8*o.BetaC*lnDim(n)*(o.Phi/o.Eps)*(o.Phi/o.Eps)/heavyVal, 1)

	// Step 4: Bob's half of the Lemma 2.5 recovery.
	ts := hhTensorSketch(o, m1, n, m2, beta, t1abs)
	msg3 := comm.NewMessage()
	msg3.Label = "column-compressed B for tensor sketch"
	putCompressedFactor(msg3, ts, s.nz)
	t.Send(comm.BobToAlice, msg3)

	// Step 5 in: keep candidates at or above β·((ϕ−ε/2)·tp)^{1/p}.
	// Alice ships entries of an m1×m2 matrix in the order she decoded
	// them, ascending by (i, j); anything else is not her message.
	recv4 := t.Recv(comm.AliceToBob)
	keepCutoff := beta * math.Pow((o.Phi-o.Eps/2)*tp, 1/o.P)
	count := recv4.Uvarint()
	if count > uint64(m1)*uint64(m2) {
		panic(fmt.Sprintf("core: %d candidate entries of a %d×%d product", count, m1, m2))
	}
	prev := uint64(0) // 1 + the previous candidate's i·m2 + j
	for ; count > 0; count-- {
		i, j := recv4.Uvarint(), recv4.Uvarint()
		if i >= uint64(m1) || j >= uint64(m2) || i*uint64(m2)+j < prev {
			panic(fmt.Sprintf("core: candidate (%d, %d) outside the %d×%d product or out of order", i, j, m1, m2))
		}
		prev = i*uint64(m2) + j + 1
		v := float64(recv4.Varint())
		if math.Abs(v) >= keepCutoff {
			out = append(out, WeightedPair{I: int(i), J: int(j), Value: v / beta})
		}
	}
	return out, nil
}

// hhTensorSketch builds the shared Lemma 2.5 tensor sketch for
// Algorithm 4's step 4: the sparsity bound follows from E‖C^β‖1 ≤
// β·‖|A|·|B|‖1, and both parties derive it from transmitted values.
func hhTensorSketch(o HHOpts, m1, n, m2 int, beta float64, t1abs int64) *sketch.TensorCS {
	sBound := int(math.Ceil(4*beta*float64(t1abs))) + 64
	if cap := m1 * m2; sBound > cap {
		sBound = cap
	}
	shared := rng.New(o.Seed)
	return sketch.NewTensorCS(shared.Derive("hh-matmul"), m1, n, m2, sBound, o.Reps)
}

func sortPairs(ps []WeightedPair) {
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].I != ps[b].I {
			return ps[a].I < ps[b].I
		}
		return ps[a].J < ps[b].J
	})
}
