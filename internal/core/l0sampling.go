package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/comm"
	"repro/internal/field"
	"repro/internal/intmat"
	"repro/internal/rng"
	"repro/internal/sketch"
)

// L0SampleOpts configures SampleL0.
type L0SampleOpts struct {
	// Eps controls the uniformity of the sample: each non-zero entry of C
	// is returned with probability (1±ε)/‖C‖0. It drives the per-column
	// ℓ0 sketch size (Θ(1/ε²) words). Required, in (0, 1].
	Eps float64
	// SamplerReps is the number of ℓ0-sampler repetitions per column
	// (failure probability decays exponentially). Default 4.
	SamplerReps int
	// SketchC scales the per-column ℓ0 sketch: buckets = SketchC/ε².
	// Default 8.
	SketchC float64
	// Seed is the shared public-coin seed.
	Seed uint64
	// Shards splits the per-column sketch combines of a served query
	// into contiguous ranges executed concurrently. Never changes a
	// transcript byte or an output bit; 0 or 1 runs sequentially.
	Shards int
}

func (o *L0SampleOpts) setDefaults() error {
	if o.Eps <= 0 || o.Eps > 1 {
		return ErrBadEps
	}
	if o.SamplerReps <= 0 {
		o.SamplerReps = 4
	}
	if o.SketchC <= 0 {
		o.SketchC = 8
	}
	return nil
}

// SampleL0 is Theorem 3.2: a one-round protocol that samples a uniformly
// random non-zero entry of C = A·B (each entry with probability
// (1±ε)/‖C‖0) using Õ(n/ε²) bits — the dense sketches' size and the
// message's worst case: the sketches travel as their non-zero words
// (comm.PutSparseUint64s), so the cost follows the non-zeros of A.
//
// Alice ships, for every item k, an ℓ0 sketch and an ℓ0-sampler sketch of
// column A_{*,k}; since both are linear, Bob assembles per-column-of-C
// sketches sk(C_{*,j}) = Σ_k B[k][j]·sk(A_{*,k}), samples a column j
// proportionally to its estimated ℓ0 norm, and decodes the ℓ0-sampler of
// that column to get the row index. The returned value is the exact
// C[i][j] (a bonus of the exact 1-sparse recovery in the sampler).
func SampleL0(a, b *intmat.Dense, o L0SampleOpts) (pair Pair, value int64, cost Cost, err error) {
	if err := checkDims(a.Cols(), b.Rows()); err != nil {
		return Pair{}, 0, Cost{}, err
	}
	cost, err = runPair(
		func(t comm.Transport) error { return AliceL0Sample(t, a, o) },
		func(t comm.Transport) (err error) { pair, value, err = BobL0Sample(t, b, a.Rows(), o); return err },
	)
	if err != nil {
		return Pair{}, 0, cost, err
	}
	return pair, value, cost, nil
}

// l0SampleSketches derives the shared per-column sketch pair of
// Theorem 3.2 for column dimension m1 — the common construction both
// party drivers must agree on.
func l0SampleSketches(o L0SampleOpts, m1 int) (*sketch.L0, *sketch.L0Sampler) {
	shared := rng.New(o.Seed)
	buckets := int(math.Ceil(o.SketchC / (o.Eps * o.Eps)))
	if buckets < 8 {
		buckets = 8
	}
	l0 := sketch.NewL0(shared.Derive("l0sample", "norm"), m1, buckets)
	sampler := sketch.NewL0Sampler(shared.Derive("l0sample", "sampler"), m1, o.SamplerReps)
	return l0, sampler
}

// AliceL0Sample drives Alice's side of Theorem 3.2 on the non-zero lists
// of her matrix: one message of per-column ℓ0 sketches and ℓ0-sampler
// sketches of A, two sparse field-word vectors a column. The sample is
// Bob's output.
func AliceL0Sample(t comm.Transport, a intmat.Matrix, o L0SampleOpts) (err error) {
	defer recoverDecodeError(&err)
	if err := o.setDefaults(); err != nil {
		return err
	}
	n := a.Cols()
	l0, sampler := l0SampleSketches(o, a.Rows())

	// Round 1 (Alice→Bob): sketches of every column of A, each built
	// from the column's non-zeros in ascending row order — the order
	// Apply meets them in — in a scratch vector, and written as the
	// non-zero ones of the words those coordinates reach. A column
	// without any is two zero counts.
	msg := comm.NewMessage()
	msg.Label = "per-column ℓ0 sketches and samplers of A"
	normSk, sampSk := make([]field.Elem, l0.Dim()), make([]field.Elem, sampler.Dim())
	var normAt, sampAt []int
	var words []field.Elem
	byCol := a.List().Transpose()
	for k := 0; k < n; k++ {
		rows, vals := byCol.Row(k)
		normAt, sampAt = normAt[:0], sampAt[:0]
		for x, i := range rows {
			l0.AddCoord(normSk, int(i), vals[x])
			sampler.AddCoord(sampSk, int(i), vals[x])
			normAt, sampAt = l0.Support(normAt, int(i)), sampler.Support(sampAt, int(i))
		}
		words = putReachedWords(msg, normSk, normAt, words)
		words = putReachedWords(msg, sampSk, sampAt, words)
	}
	t.Send(comm.AliceToBob, msg)
	return nil
}

// putReachedWords appends the field sketch sk as a sparse vector, given
// the words at that its coordinates reached (in any order, repeats
// allowed), and leaves sk all zero for the next sketch. A reached word
// whose contributions cancelled is a zero word like any other and is not
// sent. words is scratch, returned for the next call.
func putReachedWords(msg *comm.Message, sk []field.Elem, at []int, words []field.Elem) []field.Elem {
	slices.Sort(at)
	at = slices.Compact(at)
	idx, words := at[:0], words[:0]
	for _, w := range at {
		if sk[w] != 0 {
			idx, words = append(idx, w), append(words, sk[w])
			sk[w] = 0
		}
	}
	msg.PutSparseUint64s(idx, words)
	return words
}

// sparseVecs is a run of received sparse vectors landed in one block:
// vector v is the (index, word) pairs start[v]:start[v+1].
type sparseVecs struct {
	start []int
	idx   []int
	words []field.Elem
}

func (s *sparseVecs) vec(v int) ([]int, []field.Elem) {
	lo, hi := s.start[v], s.start[v+1]
	return s.idx[lo:hi], s.words[lo:hi]
}

// BobL0Sample drives Bob's side of Theorem 3.2: he assembles
// per-column-of-C sketches from Alice's message (both sketch families
// are linear), samples a column proportionally to its estimated ℓ0
// norm, and decodes that column's ℓ0-sampler. m1 is Alice's row count —
// catalog metadata fixing the shared sketch dimension; it costs no
// communication.
func BobL0Sample(t comm.Transport, b intmat.Matrix, m1 int, o L0SampleOpts) (pair Pair, value int64, err error) {
	st, err := NewBobL0SampleState(b, o)
	if err != nil {
		return Pair{}, 0, err
	}
	return st.Serve(t, m1)
}

// BobL0SampleState is the matrix-dependent phase of Bob's side of
// Theorem 3.2: Bᵀ as non-zero lists — row j of byCol is column j of B,
// rows ascending — so each served query combines Alice's sketches only
// over B's non-zeros instead of probing every (row, column) cell. The
// shared sketches themselves depend on Alice's row count m1 — per-query
// catalog metadata — so they are derived in Serve. Immutable after
// construction; safe for concurrent Serve calls.
type BobL0SampleState struct {
	byCol *intmat.Sparse
	opts  L0SampleOpts // defaults applied
}

// NewBobL0SampleState validates the options and lists B by column.
func NewBobL0SampleState(b intmat.Matrix, o L0SampleOpts) (*BobL0SampleState, error) {
	if err := o.setDefaults(); err != nil {
		return nil, err
	}
	return &BobL0SampleState{byCol: b.List().Transpose(), opts: o}, nil
}

// Bytes reports the memory retained by the precomputation.
func (s *BobL0SampleState) Bytes() int64 { return s.byCol.Bytes() }

// Serve runs the per-query phase of Bob's side of Theorem 3.2 over t.
// m1 is Alice's row count for this query.
func (s *BobL0SampleState) Serve(t comm.Transport, m1 int) (pair Pair, value int64, err error) {
	defer recoverDecodeError(&err)
	o := s.opts
	n := s.byCol.Cols()
	m2 := s.byCol.Rows()
	l0, sampler := l0SampleSketches(o, m1)

	// The 2n received vectors are kept as the (index, word) pairs they
	// travelled as. The reader holds every index below its sketch's
	// dimension — taken from the sketch, not from the peer — which is
	// what lets the combines below run on pool goroutines, past the
	// driver's recover.
	recv := t.Recv(comm.AliceToBob)
	pairs := recv.Remaining() / 9 // a pair is a gap byte and a word, at least
	sk := sparseVecs{start: make([]int, 2*n+1), idx: make([]int, 0, pairs), words: make([]field.Elem, 0, pairs)}
	for k := 0; k < n; k++ {
		// Vector 2k is column k's norm sketch, 2k+1 its sampler sketch.
		for f, dim := range [2]int{l0.Dim(), sampler.Dim()} {
			sk.idx, sk.words = recv.AppendSparseUint64s(dim, sk.idx, sk.words)
			sk.start[2*k+f+1] = len(sk.idx)
		}
	}
	if recv.Remaining() != 0 {
		panic(fmt.Sprintf("core: %d bytes after the last column's sketches", recv.Remaining()))
	}

	// Per-column ℓ0 estimates of C. Columns of C are independent, so the
	// sketch combines shard over contiguous column ranges (each shard
	// owns a private accumulator and writes disjoint colEst slots); the
	// total is then re-summed in column order, matching the sequential
	// float summation exactly.
	colEst := make([]float64, m2)
	runShards(m2, s.opts.Shards, func(_, lo, hi int) {
		accNorm := make([]field.Elem, l0.Dim())
		for j := lo; j < hi; j++ {
			rows, vals := s.byCol.Row(j)
			if len(rows) == 0 {
				continue
			}
			clear(accNorm)
			for x, k := range rows {
				idx, words := sk.vec(2 * int(k))
				sketch.AxpyFieldSparse(accNorm, vals[x], idx, words)
			}
			if e := l0.Estimate(accNorm); e > 0 {
				colEst[j] = e
			}
		}
	})
	total := 0.0
	for j := 0; j < m2; j++ {
		total += colEst[j]
	}
	if total == 0 {
		return Pair{}, 0, ErrSampleFailed
	}

	// Sample a column proportionally to its estimated ℓ0 norm, then
	// decode that column's ℓ0-sampler.
	bobPriv := rng.New(o.Seed).Derive("bob-private", "l0sample")
	target := bobPriv.Float64() * total
	j := 0
	acc := 0.0
	for ; j < m2; j++ {
		acc += colEst[j]
		if acc > target {
			break
		}
	}
	if j >= m2 {
		j = m2 - 1
	}
	accSamp := make([]field.Elem, sampler.Dim())
	rows, vals := s.byCol.Row(j)
	for x, k := range rows {
		idx, words := sk.vec(2*int(k) + 1)
		sketch.AxpyFieldSparse(accSamp, vals[x], idx, words)
	}
	i, v, ok := sampler.Decode(accSamp)
	if !ok {
		return Pair{}, 0, ErrSampleFailed
	}
	return Pair{I: i, J: j}, v, nil
}
