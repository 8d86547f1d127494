package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/comm"
)

// Cost is the communication cost of one protocol execution.
type Cost struct {
	// Bits is the total payload transmitted, both directions.
	Bits int64
	// Rounds is the number of maximal one-way message blocks.
	Rounds int
	// Stats is the full per-direction accounting.
	Stats comm.Stats
	// Trace is the per-message log (direction, bits, round, label).
	Trace []comm.MessageInfo
}

// costOf builds a Cost from any transport endpoint — the in-process
// Conn, one half of a Pair, or a NetConn; for all of them every
// protocol message passes through the endpoint, so its Stats are the
// full execution cost.
func costOf(t comm.Transport) Cost {
	s := t.Stats()
	return Cost{Bits: s.TotalBits(), Rounds: s.Rounds, Stats: s, Trace: t.Trace()}
}

// String formats the cost for experiment output.
func (c Cost) String() string {
	return fmt.Sprintf("%d bits, %d rounds", c.Bits, c.Rounds)
}

// Pair identifies a matrix entry (i, j) of C = A·B.
type Pair struct {
	// I is the row index.
	I int
	// J is the column index.
	J int
}

// WeightedPair is a matrix entry together with an estimate of its value.
type WeightedPair struct {
	// I is the row index.
	I int
	// J is the column index.
	J int
	// Value is the protocol's estimate of C[i][j].
	Value float64
}

// Common parameter validation errors.
var (
	ErrDimensionMismatch = errors.New("core: inner dimensions of A and B differ")
	ErrBadP              = errors.New("core: norm index p out of range")
	ErrBadEps            = errors.New("core: accuracy parameter out of range")
	ErrBadKappa          = errors.New("core: approximation factor κ out of range")
	ErrBadPhi            = errors.New("core: heavy-hitter parameters must satisfy 0 < ε ≤ ϕ ≤ 1")
	ErrNeedNonNegative   = errors.New("core: protocol requires non-negative matrices")
	ErrSampleFailed      = errors.New("core: sampling failed (empty product or sketch failure)")
)

func checkDims(aCols, bRows int) error {
	if aCols != bRows {
		return ErrDimensionMismatch
	}
	return nil
}

// lnDim returns max(1, ln n) — the log factor in the paper's parameter
// settings, floored so tiny inputs don't produce degenerate constants.
func lnDim(n int) float64 {
	if n < 3 {
		return 1
	}
	return math.Log(float64(n))
}

// rowLpPow computes ‖y‖p^p for an integer vector with the paper's
// convention that p = 0 counts non-zero entries: one accumulator,
// element by element in order, so every caller's float sum is the
// sequential one. The p = 1 and p = 2 fast paths return bit-identical
// sums to the math.Pow formulation (Pow(x, 1) = x and Pow(x, 2) = x·x
// exactly) — they are on the serving hot path, where Bob evaluates
// every sampled row of C.
//
//mp:hotpath
func rowLpPow(y []int64, p float64) float64 {
	var s float64
	switch p {
	case 0:
		for _, v := range y {
			if v != 0 {
				s++
			}
		}
	case 1:
		for _, v := range y {
			if v < 0 {
				v = -v
			}
			s += float64(v)
		}
	case 2:
		for _, v := range y {
			f := float64(v)
			s += f * f
		}
	default:
		for _, v := range y {
			if v != 0 {
				s += math.Pow(math.Abs(float64(v)), p)
			}
		}
	}
	return s
}

// median returns the median of v, averaging the middle pair when the
// length is even. It copies its input.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
