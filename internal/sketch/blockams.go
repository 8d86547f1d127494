package sketch

import (
	"math"

	"repro/internal/rng"
)

// BlockAMS is the ℓ∞ sketch behind Theorem 4.8(1): the coordinate range
// [n] is partitioned into blocks of size blockSize = κ², and each block
// carries a small AMS ℓ2 sketch. Since for a block vector y of dimension
// κ² we have ‖y‖∞ ∈ [‖y‖2/κ, ‖y‖2], the maximum per-block ℓ2 estimate is
// a κ-approximation (up to the AMS constant) of ‖x‖∞ with sketch size
// Õ(n/κ²) — exactly the tradeoff the theorem claims, and matched by the
// Ω̃(n²/κ²) lower bound when applied column-wise to a matrix product.
type BlockAMS struct {
	n         int
	blockSize int
	blocks    []*AMS
	offsets   []int // flattened sketch offset per block
	dim       int
}

// NewBlockAMS constructs the sketch for dimension-n vectors with the
// given block size (callers pass κ²) and per-block AMS shape.
func NewBlockAMS(r *rng.RNG, n, blockSize, reps, cols int) *BlockAMS {
	if blockSize < 1 {
		panic("sketch: BlockAMS needs blockSize >= 1")
	}
	b := &BlockAMS{n: n, blockSize: blockSize}
	for start := 0; start < n; start += blockSize {
		size := blockSize
		if start+size > n {
			size = n - start
		}
		a := NewAMS(r, size, reps, cols)
		b.offsets = append(b.offsets, b.dim)
		b.blocks = append(b.blocks, a)
		b.dim += a.Dim()
	}
	if n == 0 {
		b.dim = 0
	}
	return b
}

// Dim returns the total sketch length in float64 words.
func (b *BlockAMS) Dim() int { return b.dim }

// Apply sketches the integer vector x.
func (b *BlockAMS) Apply(x []int64) []float64 {
	if len(x) != b.n {
		panic("sketch: BlockAMS dimension mismatch")
	}
	y := make([]float64, b.dim)
	for bi, a := range b.blocks {
		start := bi * b.blockSize
		seg := x[start:min(start+b.blockSize, b.n)]
		copy(y[b.offsets[bi]:], a.Apply(seg))
	}
	return y
}

// EstimateMax returns the maximum per-block ℓ2 estimate, which lies in
// [‖x‖∞, κ·‖x‖∞] up to the AMS multiplicative error for blockSize = κ².
func (b *BlockAMS) EstimateMax(y []float64) float64 {
	if len(y) != b.dim {
		panic("sketch: BlockAMS sketch length mismatch")
	}
	best := 0.0
	for bi, a := range b.blocks {
		sq := a.EstimatePow(y[b.offsets[bi] : b.offsets[bi]+a.Dim()])
		if v := math.Sqrt(sq); v > best {
			best = v
		}
	}
	return best
}
