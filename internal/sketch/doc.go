// Package sketch implements the linear sketches the paper's protocols are
// built from (its Lemmas 2.1, 2.5 and 2.6):
//
//   - AMS sign sketches for the ℓ2 norm (Alon–Matias–Szegedy),
//   - Indyk p-stable sketches for ℓp norms, 0 < p < 2,
//   - an occupancy-based linear ℓ0 (distinct elements) sketch over
//     GF(2^61−1),
//   - exact 1-sparse recovery and the ℓ0-sampler built on it,
//   - the tensor CountSketch used to realize the distributed matrix
//     product of Lemma 2.5,
//   - the block-partitioned AMS sketch behind the general-matrix ℓ∞
//     protocol of Theorem 4.8(1).
//
// Every sketch here is *linear* in the input vector (over R or over the
// field), which is the property the protocols exploit: Bob sketches his
// rows of B, ships the sketches, and Alice assembles sketches of rows of
// C = A·B as integer linear combinations without ever seeing B.
//
// All randomness is drawn from rng.RNG streams derived from a shared seed,
// so the two parties construct identical sketching matrices for free
// (public-coin model).
//
// # Concurrency
//
// A constructed sketch is immutable: Apply, AddCoord, Estimate,
// EstimatePow, EstimatePowInPlace, Decode and the compression helpers
// only read the drawn hash functions and matrices and write caller-owned
// buffers. The row-shard parallel serve path in internal/core depends on
// this — one shared sketch family is applied to disjoint row ranges from
// many goroutines at once, and one drawn family is shared by both
// parties' states and every UpdateRows successor — so any new sketch
// added here must keep its post-construction methods free of internal
// mutation. The tensor sketch's per-query working values (RowCompressor,
// Factor) are not sketches: they own scratch, are built per use from the
// immutable TensorCS, and belong to one goroutine.
package sketch
