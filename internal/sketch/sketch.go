package sketch

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

// selectKth partitions v so that v[k] holds its kth-smallest element,
// everything before it is ≤ v[k], and everything after is ≥ v[k]
// (Hoare-partition quickselect with median-of-three pivots).
func selectKth(v []float64, k int) float64 {
	lo, hi := 0, len(v)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if v[mid] < v[lo] {
			v[mid], v[lo] = v[lo], v[mid]
		}
		if v[hi] < v[lo] {
			v[hi], v[lo] = v[lo], v[hi]
		}
		if v[hi] < v[mid] {
			v[hi], v[mid] = v[mid], v[hi]
		}
		pivot := v[mid]
		i, j := lo, hi
		for i <= j {
			for v[i] < pivot {
				i++
			}
			for v[j] > pivot {
				j--
			}
			if i <= j {
				v[i], v[j] = v[j], v[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return v[k]
		}
	}
	return v[lo]
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
