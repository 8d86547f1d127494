// Package matprod is a Go implementation of the two-party matrix-product
// estimation protocols of Woodruff & Zhang, "Distributed Statistical
// Estimation of Matrix Products with Applications" (PODS 2018).
//
// Alice holds a matrix A, Bob holds a matrix B, and the two estimate
// statistics of the product C = A·B while exchanging as few bits as
// possible. In database terms, with rows of A and columns of B as sets,
//
//   - ‖AB‖0 is the size of the composition A∘B (set-intersection join),
//   - ‖AB‖1 is the size of the natural join A⋈B,
//   - ‖AB‖∞ is the maximum intersection size over all pairs,
//   - the ℓp-(ϕ,ε)-heavy-hitters are the pairs whose intersection
//     exceeds a threshold, and
//   - ℓ0/ℓ1-sampling draws a random joining pair.
//
// Every protocol is implemented once, as a pair of transport-agnostic
// party drivers; the calls below run both drivers over an in-process
// two-party runtime that accounts exact bits and rounds, so each call
// returns its estimate together with a Cost — the quantity the paper's
// theorems bound. The same drivers run unchanged across real sockets:
// the service package and cmd/mpserver serve them as a networked
// estimation API. Shared randomness is free (public-coin model) and
// derived from the Seed in each option struct, making all executions
// reproducible.
//
// # Quick start
//
//	a := matprod.NewBoolMatrix(n, n) // Alice's sets, one per row
//	b := matprod.NewBoolMatrix(n, n) // Bob's sets, one per column
//	// ... fill in entries ...
//	size, cost, err := matprod.CompositionSize(a, b, matprod.LpOptions{Eps: 0.1, Seed: 1})
//	// size ≈ |A∘B| within (1±0.1); cost.Bits ≈ Õ(n/ε) vs the naive n².
//
// See the examples/ directory for runnable end-to-end scenarios and
// DESIGN.md for the architecture and the experiment-by-experiment
// mapping to the paper's theorems.
package matprod

import (
	"repro/internal/bitmat"
	"repro/internal/core"
	"repro/internal/intmat"
)

// Cost is the communication cost of a protocol execution: total bits
// exchanged and rounds of interaction.
type Cost = core.Cost

// Pair identifies an entry (I, J) of the product C = A·B.
type Pair = core.Pair

// WeightedPair is an entry together with an estimate of its value.
type WeightedPair = core.WeightedPair

// Option structs, re-exported from the protocol layer. Each documents its
// parameters and the constants' relation to the paper's.
type (
	// LpOptions configures EstimateLp / EstimateLpOneRound (Algorithm 1).
	LpOptions = core.LpOpts
	// L0SampleOptions configures SampleL0 (Theorem 3.2).
	L0SampleOptions = core.L0SampleOpts
	// LinfOptions configures EstimateLinf (Algorithm 2).
	LinfOptions = core.LinfOpts
	// LinfKappaOptions configures EstimateLinfKappa (Algorithm 3).
	LinfKappaOptions = core.LinfKappaOpts
	// LinfGeneralOptions configures EstimateLinfGeneral (Theorem 4.8(1)).
	LinfGeneralOptions = core.LinfGeneralOpts
	// HHOptions configures HeavyHitters (Algorithm 4).
	HHOptions = core.HHOpts
	// HHBinaryOptions configures HeavyHittersBinary (Theorem 5.3).
	HHBinaryOptions = core.HHBinaryOpts
	// MatMulOptions configures DistributedProduct (Lemma 2.5).
	MatMulOptions = core.MatMulOpts
	// ExactStats is the output of the naive baselines.
	ExactStats = core.ExactStats
)

// Errors returned by the protocols.
var (
	ErrDimensionMismatch = core.ErrDimensionMismatch
	ErrBadP              = core.ErrBadP
	ErrBadEps            = core.ErrBadEps
	ErrBadKappa          = core.ErrBadKappa
	ErrBadPhi            = core.ErrBadPhi
	ErrNeedNonNegative   = core.ErrNeedNonNegative
	ErrSampleFailed      = core.ErrSampleFailed
	ErrOverflow          = core.ErrOverflow
)

// EstimateLp is Algorithm 1 (Theorem 3.1): a two-round (1±ε)-approximation
// of ‖AB‖p^p for p ∈ [0, 2] using Õ(n/ε) bits. p = 0 estimates the
// set-intersection join size; p = 1 the natural join size; p = 2 the
// squared Frobenius norm.
func EstimateLp(a, b *IntMatrix, p float64, o LpOptions) (float64, Cost, error) {
	return core.EstimateLp(a.m, b.m, p, o)
}

// EstimateLpOneRound is the one-round Õ(n/ε²) baseline of [16] that
// Theorem 3.1 improves on: useful when a single round is a hard
// constraint, and as the comparison point for experiment E1.
func EstimateLpOneRound(a, b *IntMatrix, p float64, o LpOptions) (float64, Cost, error) {
	return core.OneRoundLp(a.m, b.m, p, o)
}

// ExactL1 is Remark 2: the exact natural-join size ‖AB‖1 for
// non-negative matrices in O(n log n) bits and one round.
func ExactL1(a, b *IntMatrix) (int64, Cost, error) {
	return core.ExactL1(a.m, b.m)
}

// SampleL1 is Remark 3: one-round ℓ1-sampling — a random entry (i, j) of
// C drawn with probability C[i][j]/‖C‖1, plus the join witness k.
func SampleL1(a, b *IntMatrix, seed uint64) (i, j, witness int, cost Cost, err error) {
	return core.SampleL1(a.m, b.m, seed)
}

// SampleL0 is Theorem 3.2: one-round ℓ0-sampling — a uniformly random
// non-zero entry of C with its exact value, in Õ(n/ε²) bits.
func SampleL0(a, b *IntMatrix, o L0SampleOptions) (Pair, int64, Cost, error) {
	return core.SampleL0(a.m, b.m, o)
}

// EstimateLinf is Algorithm 2 (Theorem 4.1): a 3-round (2+ε)-factor
// approximation of the maximum entry ‖AB‖∞ for Boolean matrices in
// Õ(n^1.5/ε) bits, together with a witnessing pair.
func EstimateLinf(a, b *BoolMatrix, o LinfOptions) (float64, Pair, Cost, error) {
	return core.EstimateLinfBinary(a.m, b.m, o)
}

// EstimateLinfKappa is Algorithm 3 (Theorem 4.3): a κ-factor
// approximation of ‖AB‖∞ for Boolean matrices in Õ(n^1.5/κ) bits.
func EstimateLinfKappa(a, b *BoolMatrix, o LinfKappaOptions) (float64, Pair, Cost, error) {
	return core.EstimateLinfKappa(a.m, b.m, o)
}

// EstimateLinfGeneral is Theorem 4.8(1): a one-round κ-factor
// approximation of ‖AB‖∞ for arbitrary integer matrices in Õ(n²/κ²)
// bits — the best possible for non-binary inputs by Theorem 4.8(2).
func EstimateLinfGeneral(a, b *IntMatrix, o LinfGeneralOptions) (float64, Cost, error) {
	return core.EstimateLinfGeneral(a.m, b.m, o)
}

// HeavyHitters is Algorithm 4 (Theorem 5.1 / Corollary 5.2): the
// ℓp-(ϕ,ε)-heavy-hitters of AB for integer matrices in Õ(√ϕ/ε·n) bits.
// The output S satisfies HH_ϕ(AB) ⊆ S ⊆ HH_{ϕ−ε}(AB) with constant
// probability.
func HeavyHitters(a, b *IntMatrix, o HHOptions) ([]WeightedPair, Cost, error) {
	return core.HeavyHitters(a.m, b.m, o)
}

// HeavyHittersBinary is the Section 5.2 protocol (Theorem 5.3): heavy
// hitters for Boolean matrices in Õ(n + ϕ/ε²) bits.
func HeavyHittersBinary(a, b *BoolMatrix, o HHBinaryOptions) ([]WeightedPair, Cost, error) {
	return core.HeavyHittersBinary(a.m, b.m, o)
}

// DistributedProduct is Lemma 2.5: Alice and Bob recover CA + CB = A·B
// for a product known to have at most o.Sparsity non-zero entries, in
// Õ(n·√‖AB‖0) bits.
func DistributedProduct(a, b *IntMatrix, o MatMulOptions) (ca, cb *IntMatrix, cost Cost, err error) {
	mca, mcb, cost, err := core.DistributedProduct(a.m, b.m, o)
	if err != nil {
		return nil, nil, cost, err
	}
	return &IntMatrix{m: mca}, &IntMatrix{m: mcb}, cost, nil
}

// NaiveExact ships Alice's entire Boolean matrix and computes every
// statistic exactly — the trivial baseline all protocols are measured
// against.
func NaiveExact(a, b *BoolMatrix) (ExactStats, Cost, error) {
	return core.NaiveBinary(a.m, b.m)
}

// NaiveExactInt is NaiveExact for integer matrices.
func NaiveExactInt(a, b *IntMatrix) (ExactStats, Cost, error) {
	return core.NaiveInt(a.m, b.m)
}

// internal accessors for sibling files in this package.
func boolMat(m *bitmat.Matrix) *BoolMatrix { return &BoolMatrix{m: m} }
func intMat(m *intmat.Dense) *IntMatrix    { return &IntMatrix{m: m} }
