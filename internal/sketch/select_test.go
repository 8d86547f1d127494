package sketch

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// selectKthHoare is the Hoare-partition quickselect on float compares
// that selectKth replaced, kept as the reference it must agree with.
func selectKthHoare(v []float64, k int) float64 {
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

// selectVector draws a width-n test vector from one of the value
// families a select has to order exactly: spread magnitudes, heavy ties,
// zeros and subnormals, infinities, and values near 1e300 (no −0: it
// equals +0 as a float but not as a bit pattern, so the bitwise checks
// below would be ambiguous).
func selectVector(rnd *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	family := rnd.Intn(6)
	for i := range v {
		switch family {
		case 0: // |Cauchy|-like spread, as a 1-stable sketch's words
			v[i] = math.Abs(rnd.NormFloat64() / rnd.NormFloat64())
		case 1: // ties: a handful of distinct values
			v[i] = float64(rnd.Intn(3))
		case 2: // +0 and subnormals beside normal values
			v[i] = [...]float64{0, math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64, 0x1p-1030, 1}[rnd.Intn(5)]
		case 3: // infinities of both signs among signed values
			v[i] = [...]float64{math.Inf(1), math.Inf(-1), -2.5, 7, 0}[rnd.Intn(5)]
		case 4: // near the top of the range
			v[i] = 1e300 * (1 + rnd.Float64())
		default: // one repeated value with a few outliers
			v[i] = 0.5
			if rnd.Intn(8) == 0 {
				v[i] = rnd.ExpFloat64()
			}
		}
	}
	return v
}

// checkPartitioned fails unless v is a permutation of in with
// v[:k] ≤ v[k] ≤ v[k+1:] — the postcondition medianInPlace's even
// path reads the lower middle element from.
func checkPartitioned(t *testing.T, in, v []float64, k int) {
	t.Helper()
	for i, x := range v {
		if (i < k && x > v[k]) || (i > k && x < v[k]) {
			t.Fatalf("select(%v, %d) left %v at %d beside %v at k", in, k, x, i, v[k])
		}
	}
	a, b := slices.Clone(in), slices.Clone(v)
	sort.Float64s(a)
	sort.Float64s(b)
	if !slices.Equal(a, b) {
		t.Fatalf("select(%v, %d) is not a permutation: %v", in, k, v)
	}
}

// TestSelectKthMatchesReferenceAndSort checks the branchless select on
// 10⁵ seeded vectors of widths 1–65: at the median index and at a
// random one it returns the bit pattern the Hoare reference and a sort
// return, and leaves v partitioned around k; medianInPlace, both
// parities, equals the sort-based median.
func TestSelectKthMatchesReferenceAndSort(t *testing.T) {
	rnd := rand.New(rand.NewSource(2600))
	for trial := 0; trial < 100_000; trial++ {
		in := selectVector(rnd, 1+trial%65)
		sorted := slices.Clone(in)
		sort.Float64s(sorted)
		for _, k := range []int{len(in) / 2, rnd.Intn(len(in))} {
			v, ref := slices.Clone(in), slices.Clone(in)
			got, want := selectKth(v, k), selectKthHoare(ref, k)
			if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(got) != math.Float64bits(sorted[k]) {
				t.Fatalf("select(%v, %d) = %v; Hoare reference %v, sort %v", in, k, got, want, sorted[k])
			}
			checkPartitioned(t, in, v, k)
		}
		want := sorted[len(in)/2]
		if len(in)%2 == 0 {
			want = (sorted[len(in)/2-1] + want) / 2
		}
		if got := medianInPlace(slices.Clone(in)); math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("medianInPlace(%v) = %v, sort says %v", in, got, want)
		}
	}
}

// TestSelectKthNaNTerminates: NaN has no place in a float order, but a
// select over orderKey's total order still ends and returns one of its
// inputs.
func TestSelectKthNaNTerminates(t *testing.T) {
	rnd := rand.New(rand.NewSource(2601))
	negNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)
	for trial := 0; trial < 10_000; trial++ {
		in := selectVector(rnd, 1+trial%65)
		for n := 1 + rnd.Intn(3); n > 0; n-- {
			in[rnd.Intn(len(in))] = [...]float64{math.NaN(), negNaN}[rnd.Intn(2)]
		}
		k := rnd.Intn(len(in))
		got := selectKth(slices.Clone(in), k)
		if !slices.ContainsFunc(in, func(x float64) bool { return math.Float64bits(x) == math.Float64bits(got) }) {
			t.Fatalf("select(%v, %d) = %v, not one of its inputs", in, k, got)
		}
	}
}

// FuzzSelectKth runs the select on arbitrary bit patterns against a
// sort: with no NaN the result equals the sorted kth element and v is
// partitioned around k; with a NaN the select still returns an input.
func FuzzSelectKth(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0))
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Inf(-1))), 1<<63), uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, kb uint8) {
		var in []float64
		for ; len(raw) >= 8; raw = raw[8:] {
			in = append(in, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
		}
		if len(in) == 0 {
			return
		}
		k := int(kb) % len(in)
		v := slices.Clone(in)
		got := selectKth(v, k)
		if slices.ContainsFunc(in, math.IsNaN) {
			if !slices.ContainsFunc(in, func(x float64) bool { return math.Float64bits(x) == math.Float64bits(got) }) {
				t.Fatalf("select(%v, %d) = %v, not one of its inputs", in, k, got)
			}
			return
		}
		sorted := slices.Clone(in)
		sort.Float64s(sorted)
		if got != sorted[k] {
			t.Fatalf("select(%v, %d) = %v, sort says %v", in, k, got, sorted[k])
		}
		checkPartitioned(t, in, v, k)
	})
}

// BenchmarkSelectKth prices one median of a 33-word 1-stable sketch —
// the width Algorithm 1 uses at ε = 0.25 — for the branchless select and
// the Hoare reference.
func BenchmarkSelectKth(b *testing.B) {
	rnd := rand.New(rand.NewSource(2602))
	vecs := make([][]float64, 1024)
	for i := range vecs {
		vecs[i] = make([]float64, 33)
		for j := range vecs[i] {
			vecs[i][j] = math.Abs(rnd.NormFloat64() / rnd.NormFloat64())
		}
	}
	v := make([]float64, 33)
	for _, c := range []struct {
		name string
		sel  func([]float64, int) float64
	}{{"branchless", selectKth}, {"hoare", selectKthHoare}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(v, vecs[i%len(vecs)])
				c.sel(v, 16)
			}
		})
	}
}
