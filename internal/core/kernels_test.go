package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/intmat"
)

// TestNZKernelMatchesDenseProduct is the list kernel's contract: for
// signed A rows (zero coefficients included) against signed B (all-zero
// rows included), at widths on both sides of the dense kernel's old
// 2048-column tile, its ‖A_i·B‖p^p is rowLpPow over the row of intmat's
// dense product — the same float64, bit for bit.
func TestNZKernelMatchesDenseProduct(t *testing.T) {
	rnd := rand.New(rand.NewSource(1700))
	for _, width := range []int{1, 7, 512, 2500} {
		for _, density := range []float64{0.02, 0.3, 1} {
			const inner = 24
			b := intmat.NewDense(inner, width)
			for k := 0; k < inner; k++ {
				if k%5 == 0 {
					continue // an all-zero row of B
				}
				for j := 0; j < width; j++ {
					if rnd.Float64() < density {
						b.Set(k, j, rnd.Int63n(19)-9)
					}
				}
			}
			nz := intmat.FromDense(b)
			y := make([]int64, width)
			for trial := 0; trial < 6; trial++ {
				a := intmat.NewDense(1, inner)
				var cols []int32
				var vals []int64
				for k := 0; k < inner; k++ {
					if rnd.Float64() < 0.4 {
						v := rnd.Int63n(9) - 4 // zero one time in nine
						a.Set(0, k, v)
						cols, vals = append(cols, int32(k)), append(vals, v)
					}
				}
				want := a.Mul(b).Row(0)
				for _, p := range []float64{0, 0.5, 1, 2} {
					got, ref := lpPow(nz, y, cols, vals, p), rowLpPow(want, p)
					if math.Float64bits(got) != math.Float64bits(ref) {
						t.Fatalf("width %d density %g p %g: kernel %v, dense reference %v", width, density, p, got, ref)
					}
				}
			}
		}
	}
}

// TestRound2GroupingMatchesUngrouped feeds Bob hand-built round-2
// messages and checks that grouping the samples by row changes nothing:
// every repetition's sum is the un-grouped reference — w × the dense
// product row's norm, added in sample order — bit for bit, at every
// shard count. The message has one row in every repetition, rows
// repeated within a repetition, and two samples that claim one row
// index with different contents (a lying peer: both must be evaluated).
func TestRound2GroupingMatchesUngrouped(t *testing.T) {
	const (
		inner = 40
		m1    = 48 // enough distinct rows that four shards really split
		reps  = 3
	)
	rnd := rand.New(rand.NewSource(1701))
	b := randomInt(1702, inner, 33, 0.3, 5, false)
	a := randomInt(1703, m1, inner, 0.25, 4, false)
	c := a.Mul(b)
	liar := intmat.NewDense(1, inner) // sent under row 0's index
	liar.Set(0, 3, 7)
	liar.Set(0, 11, -2)
	liarC := liar.Mul(b)

	type sample struct {
		idx int
		w   float64
		row *intmat.Dense // the matrix the sampled row comes from
		i   int
		c   *intmat.Dense // its product
	}
	var perRep [reps][]sample
	for rep := range perRep {
		perRep[rep] = append(perRep[rep], sample{0, 1 / 0.3, a, 0, c}) // row 0: in every repetition
		for i := 1; i < m1; i++ {
			for rnd.Float64() < 0.6 { // zero, one or several copies
				perRep[rep] = append(perRep[rep], sample{i, 1 / (0.05 + rnd.Float64()), a, i, c})
			}
		}
		perRep[rep] = append(perRep[rep], sample{0, 1 / 0.7, liar, 0, liarC})
		perRep[rep] = append(perRep[rep], sample{0, 1 / 0.9, a, 0, c})
	}
	for _, p := range []float64{0, 1, 1.5} {
		msg := comm.NewMessage()
		want := make([]float64, reps)
		for rep, smps := range perRep {
			msg.PutUvarint(uint64(len(smps)))
			for _, s := range smps {
				msg.PutUvarint(uint64(s.idx))
				msg.PutFloat64(s.w)
				cols, vals := intmat.FromDense(s.row).Row(s.i)
				putSparseRow(msg, cols, vals)
				want[rep] += float64(s.w * rowLpPow(s.c.Row(s.i), p))
			}
		}
		nz := intmat.FromDense(b)
		var rowSums []int64
		if p == 1 {
			rowSums = l1RowSums(nz)
		}
		for _, shards := range []int{1, 2, 4} {
			got := sampledRowSums(nz, rowSums, comm.FromBytes(msg.Bytes()), reps, p, shards)
			for rep := range want {
				if math.Float64bits(got[rep]) != math.Float64bits(want[rep]) {
					t.Fatalf("p %g shards %d repetition %d: grouped sum %v, un-grouped reference %v", p, shards, rep, got[rep], want[rep])
				}
			}
		}
	}
}
