package sketch

import "math"

// median returns the median of v (averaging the middle pair for even
// lengths). It copies the input.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	return medianInPlace(s)
}

// medianInPlace returns the median of v, reordering v. Median estimators
// sit on the serving hot path (one per sketched row of C per query), so
// this selects the order statistics in O(n) instead of sorting — the
// returned value is identical either way.
func medianInPlace(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := len(v) / 2
	upper := selectKth(v, m)
	if len(v)%2 == 1 {
		return upper
	}
	// selectKth leaves the m smallest values in v[:m]; their maximum is
	// the lower middle element.
	lower := v[0]
	for _, x := range v[1:m] {
		if x > lower {
			lower = x
		}
	}
	return (lower + upper) / 2
}

// orderKey maps x to an int64 that orders as x does: the IEEE bit
// pattern, with the magnitude bits of a negative value flipped so that
// more negative sorts lower. On the non-negative values every median
// caller passes, it is the bit pattern itself. The order is total: −0
// sorts just below +0, and a NaN beyond the infinity of its sign.
func orderKey(x float64) int64 {
	b := int64(math.Float64bits(x))
	return b ^ int64(uint64(b>>63)>>1)
}

// selectKth partitions v so that v[k] holds its kth-smallest element,
// everything before it is ≤ v[k], and everything after is ≥ v[k], and
// returns v[k] — a quickselect on orderKey's integer keys with
// median-of-three pivots. A multiset's kth-smallest element is unique,
// so this returns the float any exact selection or a sort would.
//
// The partition is Lomuto's, made branchless: every element is written
// whether or not it moves, and the boundary advances by the comparison's
// 0 or 1, so the data-dependent outcome of each compare costs no
// mispredicted branch. A range with no element below its pivot holds
// ties, and is split once more at the pivot's key: a run of equal values
// costs one extra pass, not one pass per element.
//
//mp:hotpath
func selectKth(v []float64, k int) float64 {
	lo, hi := 0, len(v)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if orderKey(v[mid]) < orderKey(v[lo]) {
			v[mid], v[lo] = v[lo], v[mid]
		}
		if orderKey(v[hi]) < orderKey(v[lo]) {
			v[hi], v[lo] = v[lo], v[hi]
		}
		if orderKey(v[hi]) < orderKey(v[mid]) {
			v[hi], v[mid] = v[mid], v[hi]
		}
		// The median of the three is the pivot; it waits at v[lo] while
		// the rest of the range is partitioned, then moves between.
		v[lo], v[mid] = v[mid], v[lo]
		pivot, pk := v[lo], orderKey(v[lo])
		p := partitionBelow(v[lo+1:hi+1], pk) + lo
		v[lo], v[p] = v[p], pivot
		switch {
		case k < p:
			hi = p - 1
		case k == p:
			return pivot
		case p > lo:
			lo = p + 1
		default:
			// Nothing lay below the pivot: gather its equals behind it.
			// Equal keys are equal bit patterns, so any of them is v[k].
			eq := p + 1 + partitionBelow(v[p+1:hi+1], min(pk, math.MaxInt64-1)+1)
			if k < eq {
				return pivot
			}
			lo = eq
		}
	}
	return v[lo]
}

// partitionBelow moves the elements of v whose orderKey is below bound
// to its front, in a single branchless Lomuto pass, and returns how many
// there are.
//
//mp:hotpath
func partitionBelow(v []float64, bound int64) int {
	i := 0
	for j, x := range v {
		v[j] = v[i]
		v[i] = x
		below := 0
		if orderKey(x) < bound {
			below = 1
		}
		i += below
	}
	return i
}

// FloatSketch is a linear sketch over the reals: Apply maps an integer
// vector to its sketch, and EstimatePow maps a sketch back to an estimate
// of ‖x‖p^p (with the paper's convention ‖x‖0^0 = ‖x‖0). Sketches of
// x and y add: Apply(x+y) = Apply(x) + Apply(y) entrywise, so callers can
// assemble sketches of linear combinations themselves.
type FloatSketch interface {
	// Dim is the sketch length in float64 words.
	Dim() int
	// Apply sketches an integer vector of the configured dimension.
	Apply(x []int64) []float64
	// AddCoord adds value v at coordinate j into the sketch y. Apply is
	// AddCoord over the non-zero coordinates in ascending order, so a
	// sketch built that way from a vector's non-zero list is bit-equal
	// to Apply over its cells.
	AddCoord(y []float64, j int, v int64)
	// EstimatePow estimates ‖x‖p^p from a sketch of x.
	EstimatePow(y []float64) float64
	// EstimatePowInPlace is EstimatePow for a caller whose y is scratch:
	// it may overwrite y, and in exchange allocates nothing.
	EstimatePowInPlace(y []float64) float64
	// P returns the norm index the sketch estimates.
	P() float64
}

// AxpyFloat accumulates y += a·x, the combination primitive of the float
// sketches: protocols use it to build sketches of rows of C from
// sketches of rows of B with integer coefficients from A — a few dozen
// words a call, tens of thousands of calls a query. Every word is its
// own sum, so the 4-way unrolling (one bounds check, hoisted) changes no
// float.
//
//mp:hotpath
func AxpyFloat(y []float64, a float64, x []float64) {
	y = y[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y[i] += a * x[i]
		y[i+1] += a * x[i+1]
		y[i+2] += a * x[i+2]
		y[i+3] += a * x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += a * x[i]
	}
}
