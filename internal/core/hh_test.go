package core

import (
	"math"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/intmat"
	"repro/internal/rng"
)

// plantedHH builds non-negative integer matrices whose product carries a
// few heavy entries over light background noise. Returns the matrices and
// the exact product.
func plantedHH(seed uint64, n, heavies, weight int, bg float64) (*intmat.Dense, *intmat.Dense, *intmat.Dense) {
	r := rng.New(seed)
	a := intmat.NewDense(n, n)
	b := intmat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if r.Bernoulli(bg) {
				a.Set(i, j, 1)
			}
			if r.Bernoulli(bg) {
				b.Set(i, j, 1)
			}
		}
	}
	for h := 0; h < heavies; h++ {
		i := r.Intn(n)
		j := r.Intn(n)
		for t := 0; t < weight; t++ {
			k := r.Intn(n)
			a.Set(i, k, 1)
			b.Set(k, j, 1)
		}
	}
	return a, b, a.Mul(b)
}

// hhSets computes the exact heavy-hitter sets HH_ϕ and HH_{ϕ-ε} of c.
func hhSets(c *intmat.Dense, p, phi, eps float64) (must, may map[Pair]bool) {
	norm := c.Lp(p)
	must = map[Pair]bool{}
	may = map[Pair]bool{}
	for _, e := range c.NonZeros() {
		pow := math.Pow(math.Abs(float64(e.V)), p)
		if pow >= phi*norm {
			must[Pair{I: e.I, J: e.J}] = true
		}
		if pow >= (phi-eps)*norm {
			may[Pair{I: e.I, J: e.J}] = true
		}
	}
	return must, may
}

func checkHHOutput(t *testing.T, out []WeightedPair, must, may map[Pair]bool, label string) {
	t.Helper()
	got := map[Pair]bool{}
	for _, wp := range out {
		pr := Pair{I: wp.I, J: wp.J}
		got[pr] = true
		if !may[pr] {
			t.Errorf("%s: output %v is not even (ϕ-ε)-heavy", label, pr)
		}
	}
	for pr := range must {
		if !got[pr] {
			t.Errorf("%s: missing ϕ-heavy entry %v", label, pr)
		}
	}
}

func TestHeavyHittersPlanted(t *testing.T) {
	a, b, c := plantedHH(120, 96, 1, 60, 0.01)
	phi, eps := 0.1, 0.05
	must, may := hhSets(c, 1, phi, eps)
	if len(must) == 0 {
		t.Fatal("workload has no heavy hitters; pick new seeds")
	}
	out, cost, err := HeavyHitters(a, b, HHOpts{Phi: phi, Eps: eps, Seed: 121})
	if err != nil {
		t.Fatal(err)
	}
	checkHHOutput(t, out, must, may, "general")
	if cost.Rounds > 8 {
		t.Fatalf("rounds = %d, want O(1)", cost.Rounds)
	}
}

func TestHeavyHittersValuesApproximate(t *testing.T) {
	a, b, c := plantedHH(122, 80, 1, 60, 0.01)
	phi, eps := 0.1, 0.05
	out, _, err := HeavyHitters(a, b, HHOpts{Phi: phi, Eps: eps, Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	for _, wp := range out {
		truth := float64(c.Get(wp.I, wp.J))
		if relErr(wp.Value, truth) > 0.5 {
			t.Errorf("entry (%d,%d): reported %v, true %v", wp.I, wp.J, wp.Value, truth)
		}
	}
}

func TestHeavyHittersEmptyProduct(t *testing.T) {
	a := intmat.NewDense(32, 32)
	b := randomInt(124, 32, 32, 0.2, 2, true)
	out, _, err := HeavyHitters(a, b, HHOpts{Phi: 0.2, Eps: 0.1, Seed: 125})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("empty product returned %d heavy hitters", len(out))
	}
}

func TestHeavyHittersSignedMatrices(t *testing.T) {
	// Signed inputs exercise the Algorithm-1-based scale estimation path.
	a := randomInt(126, 64, 64, 0.05, 2, false)
	b := randomInt(127, 64, 64, 0.05, 2, false)
	// Plant one dominant entry.
	for k := 0; k < 30; k++ {
		a.Set(5, k, 2)
		b.Set(k, 9, 2)
	}
	c := a.Mul(b)
	phi, eps := 0.3, 0.15
	must, may := hhSets(c, 1, phi, eps)
	out, _, err := HeavyHitters(a, b, HHOpts{Phi: phi, Eps: eps, Seed: 128})
	if err != nil {
		t.Fatal(err)
	}
	checkHHOutput(t, out, must, may, "signed")
	if len(must) > 0 && len(out) == 0 {
		t.Fatal("signed-path protocol found nothing")
	}
}

func TestHeavyHittersP2(t *testing.T) {
	a, b, c := plantedHH(129, 72, 2, 50, 0.01)
	phi, eps := 0.25, 0.12
	must, may := hhSets(c, 2, phi, eps)
	out, _, err := HeavyHitters(a, b, HHOpts{Phi: phi, Eps: eps, P: 2, Seed: 130})
	if err != nil {
		t.Fatal(err)
	}
	checkHHOutput(t, out, must, may, "p=2")
	_ = must
}

func TestHeavyHittersBinaryPlanted(t *testing.T) {
	ai, bi, c := plantedHH(131, 96, 1, 60, 0.01)
	// Convert to Boolean (planted entries are 0/1 already).
	a := bitmat.New(96, 96)
	b := bitmat.New(96, 96)
	for i := 0; i < 96; i++ {
		for j := 0; j < 96; j++ {
			if ai.Get(i, j) != 0 {
				a.Set(i, j, true)
			}
			if bi.Get(i, j) != 0 {
				b.Set(i, j, true)
			}
		}
	}
	phi, eps := 0.1, 0.05
	must, may := hhSets(c, 1, phi, eps)
	if len(must) == 0 {
		t.Fatal("workload has no heavy hitters; pick new seeds")
	}
	out, cost, err := HeavyHittersBinary(a, b, HHBinaryOpts{Phi: phi, Eps: eps, Seed: 132})
	if err != nil {
		t.Fatal(err)
	}
	checkHHOutput(t, out, must, may, "binary")
	if cost.Rounds > 12 {
		t.Fatalf("rounds = %d, want O(1)", cost.Rounds)
	}
}

func TestHeavyHittersBinaryEmpty(t *testing.T) {
	a := bitmat.New(32, 32)
	b := randomBinary(133, 32, 32, 0.2)
	out, _, err := HeavyHittersBinary(a, b, HHBinaryOpts{Phi: 0.2, Eps: 0.1, Seed: 134})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("empty product returned %d heavy hitters", len(out))
	}
}

func TestHeavyHittersBinaryValueEstimates(t *testing.T) {
	ai, bi, c := plantedHH(135, 80, 1, 60, 0.01)
	a := bitmat.New(80, 80)
	b := bitmat.New(80, 80)
	for i := 0; i < 80; i++ {
		for j := 0; j < 80; j++ {
			if ai.Get(i, j) != 0 {
				a.Set(i, j, true)
			}
			if bi.Get(i, j) != 0 {
				b.Set(i, j, true)
			}
		}
	}
	out, _, err := HeavyHittersBinary(a, b, HHBinaryOpts{Phi: 0.1, Eps: 0.05, Seed: 136})
	if err != nil {
		t.Fatal(err)
	}
	for _, wp := range out {
		truth := float64(c.Get(wp.I, wp.J))
		if relErr(wp.Value, truth) > 0.4 {
			t.Errorf("entry (%d,%d): verified estimate %v vs true %v", wp.I, wp.J, wp.Value, truth)
		}
	}
}

func TestDistributedProductExact(t *testing.T) {
	a := randomInt(140, 48, 48, 0.04, 3, false)
	b := randomInt(141, 48, 48, 0.04, 3, false)
	c := a.Mul(b)
	ca, cb, cost, err := DistributedProduct(a, b, MatMulOpts{Sparsity: c.L0() + 1, Seed: 142})
	if err != nil {
		t.Fatal(err)
	}
	sum := ca.Clone()
	sum.AddMatrix(cb)
	if !sum.Equal(c) {
		t.Fatal("CA + CB != AB")
	}
	if cost.Rounds != 1 {
		t.Fatalf("rounds = %d", cost.Rounds)
	}
}

// The Õ(n·√s) of Lemma 2.5 is the factor's worst case, met when the
// rows of B reach every bucket of the grid; the message travels as its
// non-zero words, so on a sparse B the cost follows B's non-zeros and
// the sparsity bound barely moves it.
func TestDistributedProductCommunicationScalesWithSparsity(t *testing.T) {
	bits := func(a, b *intmat.Dense, sparsity int) float64 {
		_, _, cost, err := DistributedProduct(a, b, MatMulOpts{Sparsity: sparsity, Seed: 145})
		if err != nil {
			t.Fatal(err)
		}
		return float64(cost.Bits)
	}
	// Rows of 4096 non-zeros fill grids of side 32 and 256 alike.
	a := randomInt(143, 64, 8, 0.05, 2, true)
	full := randomInt(144, 8, 4096, 1, 2, true)
	// √(1024/16) = 8; allow generous tolerance around the square-root law.
	if ratio := bits(a, full, 1024) / bits(a, full, 16); ratio < 3 || ratio > 20 {
		t.Fatalf("full rows: sparsity 16→1024 scaled bits by %.1f×, want ≈ √64 = 8×", ratio)
	}
	// Three non-zeros a row reach three buckets whatever the side.
	a = randomInt(143, 64, 64, 0.05, 2, true)
	sparse := randomInt(144, 64, 64, 0.05, 2, true)
	if ratio := bits(a, sparse, 1024) / bits(a, sparse, 16); ratio < 1 || ratio > 2 {
		t.Fatalf("sparse rows: sparsity 16→1024 scaled bits by %.2f×, want within [1, 2]", ratio)
	}
}

func TestDistributedProductRectangular(t *testing.T) {
	a := randomInt(146, 30, 50, 0.05, 2, true)
	b := randomInt(147, 50, 20, 0.05, 2, true)
	c := a.Mul(b)
	ca, cb, _, err := DistributedProduct(a, b, MatMulOpts{Sparsity: c.L0() + 1, Seed: 148})
	if err != nil {
		t.Fatal(err)
	}
	sum := ca.Clone()
	sum.AddMatrix(cb)
	if !sum.Equal(c) {
		t.Fatal("rectangular CA + CB != AB")
	}
}
