package sketch

import (
	"repro/internal/field"
	"repro/internal/rng"
)

// samplerCells is the number of 1-sparse cells per subsampling level.
// With the decode rule below, a level with ≤ samplerCells/3 survivors is
// collision-free with good probability.
const samplerCells = 8

// L0Sampler is a linear ℓ0-sampler (Lemma 2.6): from a sketch of an
// integer vector x it returns a (near-)uniformly random coordinate of the
// support of x. The construction is the standard one: geometric
// subsampling levels; per level, surviving coordinates are hashed into a
// small number of exact 1-sparse recovery cells; decoding walks levels
// from sparsest to densest and returns, at the first cleanly decodable
// level, the recovered coordinate with the smallest priority hash.
// Independent repetitions drive the failure probability down.
//
// The sketch is linear over the field, so parties can combine transmitted
// sampler states with integer coefficients exactly like the ℓ0 sketch.
type L0Sampler struct {
	n      int
	levels int
	reps   int
	os     []*OneSparse    // one per rep
	level  []*rng.PolyHash // per rep: coordinate → level
	cell   []*rng.PolyHash // per rep per level: coordinate → cell
	prio   *rng.PolyHash   // coordinate → selection priority (shared)
}

// NewL0Sampler constructs a sampler for dimension-n vectors with the
// given number of independent repetitions.
func NewL0Sampler(r *rng.RNG, n, reps int) *L0Sampler {
	if reps < 1 {
		panic("sketch: L0Sampler needs reps >= 1")
	}
	levels := 1
	for 1<<(levels-1) < n {
		levels++
	}
	s := &L0Sampler{n: n, levels: levels, reps: reps, prio: rng.NewPolyHash(r, 2)}
	for rep := 0; rep < reps; rep++ {
		s.os = append(s.os, NewOneSparse(r, n))
		s.level = append(s.level, rng.NewPolyHash(r, 2))
		for ℓ := 0; ℓ < levels; ℓ++ {
			s.cell = append(s.cell, rng.NewPolyHash(r, 2))
		}
	}
	return s
}

// Dim returns the sketch length in field elements
// (reps × levels × cells × 3 words per 1-sparse state).
func (s *L0Sampler) Dim() int { return s.reps * s.levels * samplerCells * 3 }

func (s *L0Sampler) stateOffset(rep, level, cell int) int {
	return ((rep*s.levels+level)*samplerCells + cell) * 3
}

// Apply sketches the integer vector x.
func (s *L0Sampler) Apply(x []int64) []field.Elem {
	if len(x) != s.n {
		panic("sketch: L0Sampler dimension mismatch")
	}
	y := make([]field.Elem, s.Dim())
	for j, v := range x {
		if v == 0 {
			continue
		}
		s.AddCoord(y, j, v)
	}
	return y
}

// AddCoord adds value v at coordinate j into a sketch.
func (s *L0Sampler) AddCoord(y []field.Elem, j int, v int64) {
	for rep := 0; rep < s.reps; rep++ {
		lev := s.level[rep].Level(uint64(j), s.levels-1)
		for ℓ := 0; ℓ <= lev; ℓ++ {
			off := s.cellOffset(rep, ℓ, j)
			st := OneSparseState{Sum: y[off], IxSum: y[off+1], Finger: y[off+2]}
			s.os[rep].Add(&st, j, v)
			y[off], y[off+1], y[off+2] = st.Sum, st.IxSum, st.Finger
		}
	}
}

// cellOffset is the first of the three words of the 1-sparse cell
// coordinate j lands in at level ℓ of repetition rep.
func (s *L0Sampler) cellOffset(rep, ℓ, j int) int {
	return s.stateOffset(rep, ℓ, s.cell[rep*s.levels+ℓ].Bucket(uint64(j), samplerCells))
}

// Support appends to dst the sketch words AddCoord writes for coordinate
// j (see L0.Support).
func (s *L0Sampler) Support(dst []int, j int) []int {
	for rep := 0; rep < s.reps; rep++ {
		lev := s.level[rep].Level(uint64(j), s.levels-1)
		for ℓ := 0; ℓ <= lev; ℓ++ {
			off := s.cellOffset(rep, ℓ, j)
			dst = append(dst, off, off+1, off+2)
		}
	}
	return dst
}

// Decode attempts to sample a support coordinate from a sketch of x. It
// returns the coordinate, its value, and ok=false if every repetition
// failed (probability exponentially small in reps) or the vector is zero.
func (s *L0Sampler) Decode(y []field.Elem) (index int, value int64, ok bool) {
	if len(y) != s.Dim() {
		panic("sketch: L0Sampler sketch length mismatch")
	}
	for rep := 0; rep < s.reps; rep++ {
		// Walk from the sparsest level down; use the first level that
		// decodes cleanly with at least one survivor.
		for ℓ := s.levels - 1; ℓ >= 0; ℓ-- {
			type rec struct {
				j int
				v int64
			}
			var recovered []rec
			clean := true
			for c := 0; c < samplerCells; c++ {
				off := s.stateOffset(rep, ℓ, c)
				st := OneSparseState{Sum: y[off], IxSum: y[off+1], Finger: y[off+2]}
				kind, j, v := s.os[rep].Decode(st)
				switch kind {
				case 1:
					recovered = append(recovered, rec{j, v})
				case 2:
					clean = false
				}
			}
			if !clean {
				// This level has a collision; denser levels below will
				// only be worse for this repetition.
				break
			}
			if len(recovered) == 0 {
				continue
			}
			best := recovered[0]
			bestPrio := s.prio.Eval(uint64(best.j))
			for _, r := range recovered[1:] {
				if p := s.prio.Eval(uint64(r.j)); p < bestPrio {
					best, bestPrio = r, p
				}
			}
			return best.j, best.v, true
		}
	}
	return 0, 0, false
}
