package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams from different seeds coincide %d/64 times", same)
	}
}

func TestDeriveIsPureAndLabelled(t *testing.T) {
	parent := New(7)
	c1 := parent.Derive("alice", "sketch")
	c2 := parent.Derive("alice", "sketch")
	c3 := parent.Derive("bob", "sketch")
	v1, v2, v3 := c1.Uint64(), c2.Uint64(), c3.Uint64()
	if v1 != v2 {
		t.Error("Derive with identical labels diverged")
	}
	if v1 == v3 {
		t.Error("Derive with different labels coincided")
	}
	// Derive must not consume parent state.
	p2 := New(7)
	if parent.Uint64() != p2.Uint64() {
		t.Error("Derive consumed parent state")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Errorf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(4)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Intn(10)]++
	}
	for b, c := range counts {
		if math.Abs(float64(c)-n/10) > 500 {
			t.Errorf("bucket %d count %d deviates from %d", b, c, n/10)
		}
	}
}

func TestBernoulli(t *testing.T) {
	r := New(5)
	hits := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate %v", p)
	}
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
}

func TestStableCauchyMedian(t *testing.T) {
	// |Cauchy| has median 1 (tan(π/4)).
	r := New(7)
	const n = 50001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Abs(r.Stable(1))
	}
	med := quickMedian(vals)
	if math.Abs(med-1) > 0.05 {
		t.Errorf("|Cauchy| median %v, want ~1", med)
	}
}

func TestStableHalfIndexFinite(t *testing.T) {
	r := New(8)
	for i := 0; i < 1000; i++ {
		x := r.Stable(0.5)
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("Stable(0.5) produced %v", x)
		}
	}
}

func TestStablePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Stable(3) did not panic")
		}
	}()
	New(1).Stable(3)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(9)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation element %d", v)
		}
		seen[v] = true
	}
}

func TestPolyHashDeterministicAcrossParties(t *testing.T) {
	// Alice and Bob derive with identical labels and must get the same
	// hash function — the public-coin invariant every protocol relies on.
	alice := NewPolyHash(New(11).Derive("proto", "h1"), 4)
	bob := NewPolyHash(New(11).Derive("proto", "h1"), 4)
	for x := uint64(0); x < 1000; x++ {
		if alice.Eval(x) != bob.Eval(x) {
			t.Fatalf("hash diverged at %d", x)
		}
	}
}

func TestPolyHashBucketUniform(t *testing.T) {
	h := NewPolyHash(New(12), 2)
	const m = 16
	counts := make([]int, m)
	const n = 160000
	for x := uint64(0); x < n; x++ {
		counts[h.Bucket(x, m)]++
	}
	for b, c := range counts {
		if math.Abs(float64(c)-n/m) > 600 {
			t.Errorf("bucket %d count %d, want ~%d", b, c, n/m)
		}
	}
}

func TestPolyHashSignBalanced(t *testing.T) {
	h := NewPolyHash(New(13), 4)
	sum := 0
	const n = 100000
	for x := uint64(0); x < n; x++ {
		sum += h.Sign(x)
	}
	if math.Abs(float64(sum)) > 4*math.Sqrt(n) {
		t.Errorf("sign sum %d too far from 0", sum)
	}
}

func TestPolyHashPairwiseIndependence(t *testing.T) {
	// Empirical check: over random functions from the family, the joint
	// distribution of (h(1) mod 2, h(2) mod 2) is close to uniform on
	// {0,1}^2.
	counts := [2][2]int{}
	const trials = 40000
	base := New(14)
	for i := 0; i < trials; i++ {
		h := NewPolyHash(base, 2)
		a := int(h.Eval(1) & 1)
		b := int(h.Eval(2) & 1)
		counts[a][b]++
	}
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			if math.Abs(float64(counts[a][b])-trials/4) > 500 {
				t.Errorf("joint count (%d,%d) = %d, want ~%d", a, b, counts[a][b], trials/4)
			}
		}
	}
}

func TestLevelGeometric(t *testing.T) {
	h := NewPolyHash(New(15), 2)
	const n = 1 << 17
	counts := make([]int, 8)
	for x := uint64(0); x < n; x++ {
		l := h.Level(x, 7)
		counts[l]++
	}
	// Level ℓ < max has probability 2^-(ℓ+1).
	for l := 0; l < 4; l++ {
		want := float64(n) / float64(int(1)<<(l+1))
		if math.Abs(float64(counts[l])-want) > 5*math.Sqrt(want) {
			t.Errorf("level %d count %d, want ~%v", l, counts[l], want)
		}
	}
}

func quickMedian(v []float64) float64 {
	// Simple selection for tests; input length is odd.
	s := append([]float64(nil), v...)
	k := len(s) / 2
	lo, hi := 0, len(s)-1
	for {
		if lo >= hi {
			return s[k]
		}
		pivot := s[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for s[j] > pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return s[k]
		}
	}
}
