package core

import (
	"errors"

	"repro/internal/comm"
	"repro/internal/field"
	"repro/internal/intmat"
	"repro/internal/rng"
	"repro/internal/sketch"
)

// ErrRecoveryFailed reports that the Freivalds verification of a
// DistributedProduct recovery failed — the Sparsity bound was too small
// for the actual ‖AB‖0.
var ErrRecoveryFailed = errors.New("core: distributed product recovery failed verification")

// MatMulOpts configures DistributedProduct.
type MatMulOpts struct {
	// Sparsity is an upper bound on ‖AB‖0 that both parties know. Zero
	// means "estimate it for me": the protocol first runs the Õ(n)-bit
	// ℓ0 estimation of Algorithm 1 (exactly how the paper's Lemma 2.5
	// obtains its bound) and uses twice the estimate, merging that cost
	// into the returned Cost.
	Sparsity int
	// Reps is the number of tensor-CountSketch repetitions for the median
	// point queries. Default 11 (collisions concentrate on shared
	// rows/columns of C, so the median needs headroom; see E12 in
	// DESIGN.md's experiment index).
	Reps int
	// Verify enables a Freivalds-style check of the recovered product:
	// Bob ships y = B·r for a shared random field vector r (n extra
	// words) and Alice tests Ĉ·r = A·y over GF(2^61−1), which catches
	// any decode error with probability 1 − O(n/2^61). On failure the
	// protocol returns ErrRecoveryFailed instead of a silently wrong
	// matrix — the defense against an undersized Sparsity bound.
	Verify bool
	// Seed is the shared public-coin seed.
	Seed uint64
}

func (o *MatMulOpts) setDefaults() error {
	if o.Sparsity < 0 {
		o.Sparsity = 0
	}
	if o.Reps <= 0 {
		o.Reps = 11
	}
	return nil
}

// DistributedProduct realizes Lemma 2.5 ([16]): Alice and Bob compute
// matrices CA and CB with CA + CB = A·B using Õ(n·√‖AB‖0) bits.
//
// The realization here uses a tensor CountSketch, whose row/column-
// factored hashing commutes with matrix products: Bob ships the
// column-compressed B·Scᵀ (n·Θ(√s) words, of which only the non-zero
// ones travel: at most reps·nnz(B) pairs), Alice completes the sketch
// (Sr·A)·(B·Scᵀ) = Sr·(AB)·Scᵀ locally and decodes all non-zero entries
// by median point queries. In this realization CA carries the entire
// recovered product and CB = 0, which satisfies the lemma's contract;
// downstream protocols (Algorithm 4) only rely on CA + CB = AB.
//
// Decoding is exact with high probability when Sparsity ≥ ‖AB‖0; if the
// bound may be violated, set Verify to turn silent corruption into
// ErrRecoveryFailed.
func DistributedProduct(a, b *intmat.Dense, o MatMulOpts) (ca, cb *intmat.Dense, cost Cost, err error) {
	if err := checkDims(a.Cols(), b.Rows()); err != nil {
		return nil, nil, Cost{}, err
	}
	if err := o.setDefaults(); err != nil {
		return nil, nil, Cost{}, err
	}
	extra := Cost{}
	if o.Sparsity == 0 {
		est, lpCost, err := EstimateLp(a, b, 0, LpOpts{Eps: 0.5, Seed: o.Seed + 1})
		if err != nil {
			return nil, nil, Cost{}, err
		}
		o.Sparsity = 2*int(est) + 16
		extra = lpCost
	}
	conn := comm.NewConn()
	shared := rng.New(o.Seed)

	ts := sketch.NewTensorCS(shared.Derive("matmul"), a.Rows(), a.Cols(), b.Cols(), o.Sparsity, o.Reps)

	// Round 1 (Bob→Alice): the column-compressed factor, plus the
	// Freivalds witness y = B·r when verification is on.
	msg := comm.NewMessage()
	msg.Label = "column-compressed B·Scᵀ (tensor sketch factor)"
	putCompressedFactor(msg, ts, intmat.FromDense(b))
	var r []field.Elem
	if o.Verify {
		r = freivaldsVector(shared.Derive("matmul", "freivalds"), b.Cols())
		y := make([]uint64, b.Rows())
		for k := 0; k < b.Rows(); k++ {
			var acc field.Elem
			for j, v := range b.Row(k) {
				if v != 0 {
					acc = field.Add(acc, field.MulInt(r[j], v))
				}
			}
			y[k] = acc
		}
		msg.PutUint64Slice(y)
	}
	recv := conn.Send(comm.BobToAlice, msg)

	entries := ts.Recover(intmat.FromDense(a), readCompressedFactor(recv, ts))
	ca = intmat.NewSparse(a.Rows(), b.Cols(), entries).ToDense()
	cb = intmat.NewDense(a.Rows(), b.Cols())

	if o.Verify {
		// Alice: check Ĉ·r == A·(B·r) row by row over the field.
		y := recv.Uint64Slice()
		for i := 0; i < a.Rows(); i++ {
			var lhs, rhs field.Elem
			for j, v := range ca.Row(i) {
				if v != 0 {
					lhs = field.Add(lhs, field.MulInt(r[j], v))
				}
			}
			for k, v := range a.Row(i) {
				if v != 0 {
					rhs = field.Add(rhs, field.MulInt(field.Reduce(y[k]), v))
				}
			}
			if lhs != rhs {
				return nil, nil, addCost(costOf(conn), extra), ErrRecoveryFailed
			}
		}
	}
	return ca, cb, addCost(costOf(conn), extra), nil
}

// putCompressedFactor appends Bob's half of the Lemma 2.5 exchange: the
// column-compressed factor of the matrix whose non-zero lists nz holds,
// as one sparse vector of ts.CompressedSize() words. A row of B reaches
// at most as many buckets as it has non-zeros, so the message costs
// O(reps · nnz(B)) pairs whatever the grid side; a bucket whose entries
// cancel is a zero word and is not sent.
func putCompressedFactor(msg *comm.Message, ts *sketch.TensorCS, nz *intmat.Sparse) {
	// A row reaches at most one bucket per non-zero, per repetition.
	idx := make([]int, 0, ts.Reps()*nz.NNZ())
	words := make([]int64, 0, ts.Reps()*nz.NNZ())
	rc := ts.NewRowCompressor()
	for rep := 0; rep < ts.Reps(); rep++ {
		for k := 0; k < nz.Rows(); k++ {
			cols, vals := nz.Row(k)
			buckets, ws := rc.Row(rep, cols, vals)
			base := (rep*nz.Rows() + k) * ts.GridSide()
			for x, v := range buckets {
				if ws[x] != 0 {
					idx, words = append(idx, base+int(v)), append(words, ws[x])
				}
			}
		}
	}
	msg.PutSparseVarints(idx, words)
}

// readCompressedFactor is Alice's read of putCompressedFactor's bytes.
// The vector's dimension is her sketch's word count — nothing the peer
// sends sizes anything — and only the non-zero words exist on her side
// too.
func readCompressedFactor(recv *comm.Message, ts *sketch.TensorCS) *sketch.Factor {
	idx, words := recv.AppendSparseVarints(ts.CompressedSize(), nil, nil)
	f := ts.NewFactor()
	for x, i := range idx {
		f.Add(i, words[x])
	}
	return f
}

// freivaldsVector derives the shared random evaluation vector.
func freivaldsVector(r *rng.RNG, n int) []field.Elem {
	out := make([]field.Elem, n)
	for i := range out {
		out[i] = field.Reduce(r.Uint64())
	}
	return out
}
