package sketch

import (
	"sort"

	"repro/internal/intmat"
)

// The dense definition of the tensor CountSketch exchange: what Bob's
// compressed factor, Alice's completed grid and the decoded entries are,
// written cell by cell over dense matrices. Nothing serves from it; it
// is the reference the tests hold RowCompressor, Factor and Recover to.

// ColCompress computes, for each repetition, the n×bc matrix
// (B·Scᵀ)[k][v] = Σ_j t(j)·B[k][j]·[g(j)=v], flattened rep-major.
func (t *TensorCS) ColCompress(b *intmat.Dense) []int64 {
	if b.Rows() != t.inner || b.Cols() != t.cols {
		panic("sketch: TensorCS ColCompress shape mismatch")
	}
	out := make([]int64, t.CompressedSize())
	for rep := 0; rep < t.reps; rep++ {
		// Precompute per-column bucket and sign.
		colB := make([]int, t.cols)
		colS := make([]int64, t.cols)
		for j := 0; j < t.cols; j++ {
			colB[j] = t.colHash[rep].Bucket(uint64(j), t.bc)
			colS[j] = int64(t.colSign[rep].Sign(uint64(j)))
		}
		base := rep * t.inner * t.bc
		for k := 0; k < t.inner; k++ {
			row := b.Row(k)
			off := base + k*t.bc
			for j, v := range row {
				if v != 0 {
					out[off+colB[j]] += colS[j] * v
				}
			}
		}
	}
	return out
}

// SketchFromCompressed completes the sketch T = RowCompress(A)·compressed
// on Alice's side: T_rep[u][v] = Σ_i s(i)·[h(i)=u]·Σ_k A[i][k]·RB[k][v].
// The result is flattened rep-major, br×bc per repetition.
func (t *TensorCS) SketchFromCompressed(a *intmat.Dense, compressed []int64) []int64 {
	if a.Rows() != t.rows || a.Cols() != t.inner {
		panic("sketch: TensorCS SketchFromCompressed shape mismatch")
	}
	if len(compressed) != t.CompressedSize() {
		panic("sketch: TensorCS compressed length mismatch")
	}
	out := make([]int64, t.reps*t.br*t.bc)
	for rep := 0; rep < t.reps; rep++ {
		cbase := rep * t.inner * t.bc
		tbase := rep * t.br * t.bc
		for i := 0; i < t.rows; i++ {
			u := t.rowHash[rep].Bucket(uint64(i), t.br)
			si := int64(t.rowSign[rep].Sign(uint64(i)))
			row := a.Row(i)
			dst := out[tbase+u*t.bc : tbase+(u+1)*t.bc]
			for k, av := range row {
				if av == 0 {
					continue
				}
				w := si * av
				src := compressed[cbase+k*t.bc : cbase+(k+1)*t.bc]
				for v, cv := range src {
					if cv != 0 {
						dst[v] += w * cv
					}
				}
			}
		}
	}
	return out
}

// SketchDirect sketches a fully known matrix C — the reference path used
// by tests to validate the distributed assembly.
func (t *TensorCS) SketchDirect(c *intmat.Dense) []int64 {
	if c.Rows() != t.rows || c.Cols() != t.cols {
		panic("sketch: TensorCS SketchDirect shape mismatch")
	}
	out := make([]int64, t.reps*t.br*t.bc)
	for rep := 0; rep < t.reps; rep++ {
		tbase := rep * t.br * t.bc
		for i := 0; i < t.rows; i++ {
			u := t.rowHash[rep].Bucket(uint64(i), t.br)
			si := int64(t.rowSign[rep].Sign(uint64(i)))
			row := c.Row(i)
			for j, v := range row {
				if v == 0 {
					continue
				}
				cell := tbase + u*t.bc + t.colHash[rep].Bucket(uint64(j), t.bc)
				out[cell] += si * int64(t.colSign[rep].Sign(uint64(j))) * v
			}
		}
	}
	return out
}

// PointQuery estimates C[i][j] from a sketch as the median over
// repetitions of the signed cell value.
func (t *TensorCS) PointQuery(sk []int64, i, j int) int64 {
	vals := make([]int64, t.reps)
	for rep := 0; rep < t.reps; rep++ {
		cell := rep*t.br*t.bc + t.rowHash[rep].Bucket(uint64(i), t.br)*t.bc +
			t.colHash[rep].Bucket(uint64(j), t.bc)
		v := sk[cell]
		if t.rowSign[rep].Sign(uint64(i))*t.colSign[rep].Sign(uint64(j)) < 0 {
			v = -v
		}
		vals[rep] = v
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
	return vals[t.reps/2]
}

// Decode point-queries every cell of the rows×cols matrix and returns the
// non-zero entries. With grid side ≥ 4√‖C‖0 and ≥ 5 repetitions the
// decoded set equals the support of C with high probability.
func (t *TensorCS) Decode(sk []int64) []intmat.Entry {
	var out []intmat.Entry
	for i := 0; i < t.rows; i++ {
		for j := 0; j < t.cols; j++ {
			if v := t.PointQuery(sk, i, j); v != 0 {
				out = append(out, intmat.Entry{I: i, J: j, V: v})
			}
		}
	}
	return out
}
