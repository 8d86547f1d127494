package sketch

import (
	"repro/internal/field"
	"repro/internal/rng"
)

// OneSparse is an exact 1-sparse recovery structure over GF(2^61−1): three
// field words (value sum, index-weighted sum, polynomial fingerprint) from
// which a vector with exactly one non-zero coordinate can be decoded, and
// vectors with zero or ≥2 non-zero coordinates are detected as such with
// probability 1 − O(n/p).
//
// It is the leaf structure of the ℓ0-sampler (Lemma 2.6). Indices are
// shifted by one internally so coordinate 0 is distinguishable from "empty".
type OneSparse struct {
	n int
	r field.Elem // fingerprint evaluation point, shared between parties
}

// OneSparseState is the 3-word linear state of a OneSparse structure.
type OneSparseState struct {
	Sum    field.Elem // Σ x_j
	IxSum  field.Elem // Σ (j+1)·x_j
	Finger field.Elem // Σ x_j·r^(j+1)
}

// NewOneSparse constructs the structure for dimension-n vectors.
func NewOneSparse(r *rng.RNG, n int) *OneSparse {
	pt := field.Reduce(r.Uint64())
	if pt < 2 {
		pt = 2
	}
	return &OneSparse{n: n, r: pt}
}

// Add accumulates value v at coordinate j into the state.
func (o *OneSparse) Add(st *OneSparseState, j int, v int64) {
	if j < 0 || j >= o.n {
		panic("sketch: OneSparse coordinate out of range")
	}
	fv := field.ReduceInt(v)
	st.Sum = field.Add(st.Sum, fv)
	st.IxSum = field.Add(st.IxSum, field.Mul(field.Reduce(uint64(j+1)), fv))
	st.Finger = field.Add(st.Finger, field.Mul(fv, field.Pow(o.r, uint64(j+1))))
}

// Decode inspects the state. It returns:
//
//	kind == 0: the underlying vector is zero;
//	kind == 1: exactly one non-zero coordinate, returned as (index, value);
//	kind == 2: more than one non-zero coordinate (or an undetected
//	           cancellation, probability O(n/2^61)).
func (o *OneSparse) Decode(st OneSparseState) (kind, index int, value int64) {
	if st.Sum == 0 && st.IxSum == 0 && st.Finger == 0 {
		return 0, 0, 0
	}
	if st.Sum == 0 {
		return 2, 0, 0
	}
	// Candidate index from the ratio; must be an integer in [1, n].
	ix := field.Mul(st.IxSum, field.Inv(st.Sum))
	if ix == 0 || ix > uint64(o.n) {
		return 2, 0, 0
	}
	// Fingerprint check: a 1-sparse vector with value s at coordinate
	// ix-1 has fingerprint s·r^ix.
	if st.Finger != field.Mul(st.Sum, field.Pow(o.r, ix)) {
		return 2, 0, 0
	}
	return 1, int(ix - 1), field.ToInt(st.Sum)
}
