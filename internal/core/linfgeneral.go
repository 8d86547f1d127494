package core

import (
	"math"

	"repro/internal/comm"
	"repro/internal/intmat"
	"repro/internal/rng"
	"repro/internal/sketch"
)

// LinfGeneralOpts configures EstimateLinfGeneral.
type LinfGeneralOpts struct {
	// Kappa is the target approximation factor in [1, n].
	Kappa float64
	// AMSReps and AMSCols shape the per-block AMS sketch (median of
	// AMSReps groups of AMSCols measurements). Defaults 5 and 16.
	AMSReps, AMSCols int
	// Seed is the shared public-coin seed.
	Seed uint64
}

func (o *LinfGeneralOpts) setDefaults(n int) error {
	if o.Kappa < 1 || o.Kappa > float64(n)+1 {
		return ErrBadKappa
	}
	if o.AMSReps <= 0 {
		o.AMSReps = 5
	}
	if o.AMSCols <= 0 {
		o.AMSCols = 16
	}
	return nil
}

// EstimateLinfGeneral is the upper bound of Theorem 4.8(1): a one-round
// κ-approximation of ‖AB‖∞ for arbitrary integer matrices using
// Õ(n²/κ²) bits — and by Theorem 4.8(2) this is optimal, in sharp
// contrast with the Õ(n^1.5/κ) achievable for Boolean matrices.
//
// The sketch (from [33]) partitions each column of C into blocks of κ²
// coordinates and runs AMS on every block: since ‖y‖∞ ∈ [‖y‖2/κ, ‖y‖2]
// for a κ²-dimensional block y, the maximum per-block ℓ2 estimate is a
// κ-approximation of the column's ℓ∞. Alice ships the sketch applied to
// her columns (S·A, Õ(n/κ²)×n words); Bob completes S·A·B = S·C by
// linearity and maximizes over blocks and columns.
//
// The returned estimate lies in [‖C‖∞, κ·‖C‖∞] up to the AMS
// multiplicative error.
func EstimateLinfGeneral(a, b *intmat.Dense, o LinfGeneralOpts) (float64, Cost, error) {
	if err := checkDims(a.Cols(), b.Rows()); err != nil {
		return 0, Cost{}, err
	}
	m1 := a.Rows()
	n := a.Cols()
	m2 := b.Cols()
	if err := o.setDefaults(n); err != nil {
		return 0, Cost{}, err
	}
	conn := comm.NewConn()
	shared := rng.New(o.Seed)

	blockSize := int(math.Max(1, math.Round(o.Kappa*o.Kappa)))
	if blockSize > m1 {
		blockSize = m1
	}
	bs := sketch.NewBlockAMS(shared.Derive("linfgeneral"), m1, blockSize, o.AMSReps, o.AMSCols)

	// Round 1 (Alice→Bob): the sketch of every column of A, as Float24
	// words.
	msg := comm.NewMessage()
	col := make([]int64, m1)
	for k := 0; k < n; k++ {
		for i := 0; i < m1; i++ {
			col[i] = a.Get(i, k)
		}
		msg.PutFloat24s(bs.Apply(col))
	}
	recv := conn.Send(comm.AliceToBob, msg)

	dim := bs.Dim()
	skA := make([]uint32, n*dim)
	recv.Float24sInto(skA)

	// Bob: per column j of C, combine and maximize block estimates.
	best := 0.0
	acc := make([]float64, dim)
	for j := 0; j < m2; j++ {
		clear(acc)
		any := false
		for k := 0; k < n; k++ {
			if v := b.Get(k, j); v != 0 {
				axpyFloat24(acc, float64(v), skA[k*dim:][:dim])
				any = true
			}
		}
		if !any {
			continue
		}
		if e := bs.EstimateMax(acc); e > best {
			best = e
		}
	}
	return best, costOf(conn), nil
}
