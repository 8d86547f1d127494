package core

import (
	"repro/internal/bitmat"
	"repro/internal/comm"
	"repro/internal/intmat"
)

// ExactStats are the exact statistics of C = A·B computed by the naive
// baselines (and by tests as ground truth).
type ExactStats struct {
	// L0 is the number of non-zero entries of C.
	L0 int64
	// L1 is the entrywise 1-norm of C.
	L1 int64
	// Linf is the maximum absolute entry of C.
	Linf int64
	// ArgMax locates an entry attaining Linf.
	ArgMax Pair
}

// NaiveBinary is the trivial baseline the paper's algorithms are measured
// against: Alice ships her entire Boolean matrix as bitmaps (m1·n bits)
// and Bob computes C = A·B and all statistics exactly. One round.
func NaiveBinary(a, b *bitmat.Matrix) (ExactStats, Cost, error) {
	if err := checkDims(a.Cols(), b.Rows()); err != nil {
		return ExactStats{}, Cost{}, err
	}
	conn := comm.NewConn()
	msg := comm.NewMessage()
	msg.PutUvarint(uint64(a.Rows()))
	for i := 0; i < a.Rows(); i++ {
		msg.PutWordBitmap(a.Row(i), a.Cols())
	}
	recv := conn.Send(comm.AliceToBob, msg)

	rows := int(recv.Uvarint())
	got := bitmat.New(rows, a.Cols())
	for i := 0; i < rows; i++ {
		words, nbits := recv.WordBitmap()
		for j := 0; j < nbits; j++ {
			if words[j/64]&(1<<uint(j%64)) != 0 {
				got.Set(i, j, true)
			}
		}
	}
	c := got.Mul(b)
	return exactStatsOf(c), costOf(conn), nil
}

// NaiveInt ships Alice's integer matrix sparsely and has Bob compute all
// statistics of C = A·B exactly. One round.
func NaiveInt(a, b *intmat.Dense) (ExactStats, Cost, error) {
	if err := checkDims(a.Cols(), b.Rows()); err != nil {
		return ExactStats{}, Cost{}, err
	}
	conn := comm.NewConn()
	msg := comm.NewMessage()
	msg.PutSparse(intmat.FromDense(a))
	recv := conn.Send(comm.AliceToBob, msg)
	got := recv.Sparse(a.Rows(), a.Cols()).ToDense()
	c := got.Mul(b)
	return exactStatsOf(c), costOf(conn), nil
}

func exactStatsOf(c *intmat.Dense) ExactStats {
	linf, i, j := c.Linf()
	return ExactStats{
		L0:     int64(c.L0()),
		L1:     c.L1(),
		Linf:   linf,
		ArgMax: Pair{I: i, J: j},
	}
}
