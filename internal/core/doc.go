// Package core implements the paper's protocols: two-party statistical
// estimation of a matrix product C = A·B where Alice holds A and Bob
// holds B.
//
// Protocols implemented (paper reference in parentheses):
//
//   - EstimateLp — (1+ε)-approximation of ‖AB‖p^p for p ∈ [0,2]
//     (Algorithm 1, Theorem 3.1; 2 rounds, Õ(n/ε) bits),
//   - OneRoundLp — the 1-round Õ(n/ε²) direct-sketching baseline of [16]
//     that Theorem 3.1 improves on,
//   - ExactL1 / SampleL1 — exact ‖AB‖1 and ℓ1-sampling in O(n log n) bits
//     (Remarks 2 and 3),
//   - SampleL0 — ℓ0-sampling of a non-zero entry of AB
//     (Theorem 3.2; 1 round, Õ(n/ε²) bits),
//   - EstimateLinfBinary — (2+ε)-approximation of ‖AB‖∞ for Boolean
//     matrices (Algorithm 2, Theorem 4.1; 3 rounds, Õ(n^1.5/ε) bits),
//   - EstimateLinfKappa — κ-approximation of ‖AB‖∞ for Boolean matrices
//     (Algorithm 3, Theorem 4.3; O(1) rounds, Õ(n^1.5/κ) bits),
//   - EstimateLinfGeneral — κ-approximation of ‖AB‖∞ for integer
//     matrices (Theorem 4.8(1); 1 round, Õ(n²/κ²) bits),
//   - DistributedProduct — recovery of a sparse product AB
//     (Lemma 2.5, from [16]; here via tensor CountSketch, Õ(n·√‖AB‖0)
//     bits),
//   - HeavyHitters — ℓp-(ϕ,ε)-heavy-hitters of AB for integer matrices
//     (Algorithm 4, Theorem 5.1 and Corollary 5.2; Õ(√ϕ/ε·n) bits),
//   - HeavyHittersBinary — ℓp-(ϕ,ε)-heavy-hitters for Boolean matrices
//     (Section 5.2, Theorem 5.3; Õ(n + ϕ/ε²) bits),
//   - Naive baselines that ship Alice's whole matrix.
//
// # Model
//
// Every protocol routes all exchanged bytes through a transport that
// records exact bit counts and rounds: the party drivers through a
// comm.Transport (see drivers.go), and the seven protocols that still
// run interleaved — NaiveBinary, NaiveInt, EstimateLinfGeneral,
// DistributedProduct, HeavyHittersBinary, EstimateLpMulti and
// OneRoundLp — through a comm.Conn. Shared randomness (the sketching
// matrices) is derived by both parties from the Seed option — the paper's
// public-coin model — and costs nothing; private randomness (sampling
// decisions) is derived from per-party labels so the other party provably
// never consumes it. Local computation is free.
//
// # Constants
//
// The paper's constants (10⁴ log n, …) target success probability
// 1 − 1/n¹⁰. The defaults here are scaled for constant success
// probability (≥ 0.9, boosted by median repetitions where the paper says
// to) so that the asymptotic communication shapes are visible at
// benchmarkable sizes; every constant is an exported knob on the option
// structs, and the ratio to the paper's choice is documented there.
//
// Rectangular matrices (A ∈ Z^{m1×n}, B ∈ Z^{n×m2}, Section 6 of the
// paper) are supported throughout: no protocol assumes squareness.
package core
