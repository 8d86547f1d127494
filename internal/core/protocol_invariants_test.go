package core

import (
	"testing"

	"repro/internal/bitmat"
)

// Invariant tests: protocol executions must be reproducible from their
// seed, route bits in the directions the paper's round structure
// prescribes, and compose costs correctly.

func TestDistributedProductAutoSparsity(t *testing.T) {
	a := randomInt(400, 48, 48, 0.04, 2, true)
	b := randomInt(401, 48, 48, 0.04, 2, true)
	c := a.Mul(b)
	ca, cb, cost, err := DistributedProduct(a, b, MatMulOpts{Seed: 402}) // Sparsity 0 → auto
	if err != nil {
		t.Fatal(err)
	}
	sum := ca.Clone()
	sum.AddMatrix(cb)
	if !sum.Equal(c) {
		t.Fatal("auto-sparsity recovery failed")
	}
	// Auto mode must include the ℓ0-estimation rounds in the bill.
	_, fixed, err := func() (any, Cost, error) {
		x, y, cc, e := DistributedProduct(a, b, MatMulOpts{Sparsity: c.L0() + 1, Seed: 402})
		_ = x
		_ = y
		return nil, cc, e
	}()
	if err != nil {
		t.Fatal(err)
	}
	if cost.Bits <= fixed.Bits {
		t.Fatalf("auto mode bits %d not above fixed-sparsity bits %d", cost.Bits, fixed.Bits)
	}
	if cost.Rounds <= fixed.Rounds {
		t.Fatalf("auto mode rounds %d must include the estimation rounds", cost.Rounds)
	}
}

func TestEstimateLpMessageDirections(t *testing.T) {
	// Round 1 is Bob→Alice (sketches), round 2 Alice→Bob (sampled rows).
	a := randomInt(403, 64, 64, 0.1, 2, true)
	b := randomInt(404, 64, 64, 0.1, 2, true)
	_, cost, err := EstimateLp(a, b, 1, LpOpts{Eps: 0.4, Seed: 405})
	if err != nil {
		t.Fatal(err)
	}
	if cost.Stats.BitsBobToAlice == 0 {
		t.Fatal("no Bob→Alice sketch traffic")
	}
	if cost.Stats.BitsAliceToBob == 0 {
		t.Fatal("no Alice→Bob sample traffic")
	}
	// Sketches dominate: Bob's side should be the larger.
	if cost.Stats.BitsBobToAlice < cost.Stats.BitsAliceToBob {
		t.Logf("note: sample traffic exceeded sketch traffic (%d vs %d)",
			cost.Stats.BitsAliceToBob, cost.Stats.BitsBobToAlice)
	}
}

func TestOneRoundLpIsOneWay(t *testing.T) {
	a := randomInt(406, 48, 48, 0.1, 2, true)
	b := randomInt(407, 48, 48, 0.1, 2, true)
	_, cost, err := OneRoundLp(a, b, 0, LpOpts{Eps: 0.4, Seed: 408})
	if err != nil {
		t.Fatal(err)
	}
	if cost.Stats.BitsAliceToBob != 0 {
		t.Fatalf("one-round protocol sent %d Alice→Bob bits", cost.Stats.BitsAliceToBob)
	}
}

func TestSampleL0IsOneWayAliceToBob(t *testing.T) {
	a := randomBinary(409, 48, 48, 0.1).ToInt()
	b := randomBinary(410, 48, 48, 0.1).ToInt()
	_, _, cost, err := SampleL0(a, b, L0SampleOpts{Eps: 0.5, Seed: 411})
	if err != nil && err != ErrSampleFailed {
		t.Fatal(err)
	}
	if cost.Stats.BitsBobToAlice != 0 {
		t.Fatalf("ℓ0-sampling sent %d Bob→Alice bits, want 0", cost.Stats.BitsBobToAlice)
	}
}

func TestProtocolsDeterministicAcrossRuns(t *testing.T) {
	aB := randomBinary(412, 64, 64, 0.1)
	bB := randomBinary(413, 64, 64, 0.1)
	aI, bI := aB.ToInt(), bB.ToInt()

	run := func() []any {
		var out []any
		e1, c1, _ := EstimateLp(aI, bI, 0, LpOpts{Eps: 0.4, Seed: 7})
		out = append(out, e1, c1.Bits)
		e2, p2, c2, _ := EstimateLinfBinary(aB, bB, LinfOpts{Eps: 0.5, Seed: 7})
		out = append(out, e2, p2, c2.Bits)
		e3, p3, c3, _ := EstimateLinfKappa(aB, bB, LinfKappaOpts{Kappa: 8, Seed: 7})
		out = append(out, e3, p3, c3.Bits)
		e4, c4, _ := EstimateLinfGeneral(aI, bI, LinfGeneralOpts{Kappa: 4, Seed: 7})
		out = append(out, e4, c4.Bits)
		hh, c5, _ := HeavyHitters(aI, bI, HHOpts{Phi: 0.1, Eps: 0.05, Seed: 7})
		out = append(out, len(hh), c5.Bits)
		hhb, c6, _ := HeavyHittersBinary(aB, bB, HHBinaryOpts{Phi: 0.1, Eps: 0.05, Seed: 7})
		out = append(out, len(hhb), c6.Bits)
		pr, v, c7, err := SampleL0(aI, bI, L0SampleOpts{Eps: 0.5, Seed: 7})
		out = append(out, pr, v, c7.Bits, err == nil)
		return out
	}
	first := run()
	second := run()
	if len(first) != len(second) {
		t.Fatal("different output shapes")
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("non-deterministic output at position %d: %v vs %v", i, first[i], second[i])
		}
	}
}

func TestAddCost(t *testing.T) {
	a := Cost{Bits: 10, Rounds: 2}
	a.Stats.BitsAliceToBob = 6
	a.Stats.BitsBobToAlice = 4
	a.Stats.Messages = 3
	a.Stats.Rounds = 2
	b := Cost{Bits: 5, Rounds: 1}
	b.Stats.BitsAliceToBob = 5
	b.Stats.Messages = 1
	b.Stats.Rounds = 1
	sum := addCost(a, b)
	if sum.Bits != 15 || sum.Rounds != 3 || sum.Stats.BitsAliceToBob != 11 ||
		sum.Stats.BitsBobToAlice != 4 || sum.Stats.Messages != 4 || sum.Stats.Rounds != 3 {
		t.Fatalf("addCost = %+v", sum)
	}
}

func TestLinfBinaryCostBelowNaiveAtScale(t *testing.T) {
	// The paper's headline n^1.5 vs n² separation, as a regression test
	// at the size where DESIGN.md's experiment index (E6) shows the
	// crossover.
	n := 384
	a := bitmat.New(n, n)
	b := bitmat.New(n, n)
	r := randomBinary(414, n, n, 0.05)
	s := randomBinary(415, n, n, 0.05)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, r.Get(i, j))
			b.Set(i, j, s.Get(i, j))
		}
	}
	_, _, cost, err := EstimateLinfBinary(a, b, LinfOpts{Eps: 0.5, Seed: 416})
	if err != nil {
		t.Fatal(err)
	}
	if naive := int64(n) * int64(n); cost.Bits >= naive {
		t.Fatalf("ℓ∞ protocol used %d bits ≥ naive %d at n=%d", cost.Bits, naive, n)
	}
}
