package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/comm"
)

func TestEstimateLpL0Binary(t *testing.T) {
	a := randomBinary(10, 128, 128, 0.08).ToInt()
	b := randomBinary(11, 128, 128, 0.08).ToInt()
	truth := float64(a.Mul(b).L0())
	est, cost, err := EstimateLp(a, b, 0, LpOpts{Eps: 0.3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if re := relErr(est, truth); re > 0.35 {
		t.Fatalf("p=0 estimate %v vs truth %v (rel %.3f)", est, truth, re)
	}
	if cost.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", cost.Rounds)
	}
}

func TestEstimateLpL1NonNegative(t *testing.T) {
	a := randomInt(12, 100, 100, 0.1, 3, true)
	b := randomInt(13, 100, 100, 0.1, 3, true)
	truth := float64(a.Mul(b).L1())
	est, _, err := EstimateLp(a, b, 1, LpOpts{Eps: 0.3, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if re := relErr(est, truth); re > 0.35 {
		t.Fatalf("p=1 estimate %v vs truth %v (rel %.3f)", est, truth, re)
	}
}

func TestEstimateLpL2(t *testing.T) {
	a := randomInt(14, 96, 96, 0.12, 4, false)
	b := randomInt(15, 96, 96, 0.12, 4, false)
	truth := a.Mul(b).Lp(2)
	est, _, err := EstimateLp(a, b, 2, LpOpts{Eps: 0.3, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	if re := relErr(est, truth); re > 0.4 {
		t.Fatalf("p=2 estimate %v vs truth %v (rel %.3f)", est, truth, re)
	}
}

func TestEstimateLpFractionalP(t *testing.T) {
	a := randomInt(16, 80, 80, 0.12, 4, true)
	b := randomInt(17, 80, 80, 0.12, 4, true)
	for _, p := range []float64{0.5, 1.5} {
		truth := a.Mul(b).Lp(p)
		est, _, err := EstimateLp(a, b, p, LpOpts{Eps: 0.3, Seed: 45})
		if err != nil {
			t.Fatal(err)
		}
		// Stable-sketch constants are looser; allow a wider band.
		if re := relErr(est, truth); re > 0.5 {
			t.Errorf("p=%v estimate %v vs truth %v (rel %.3f)", p, est, truth, re)
		}
	}
}

func TestEstimateLpZeroProduct(t *testing.T) {
	// A has support only on items B never uses.
	a := randomInt(18, 32, 64, 0, 3, true) // empty
	b := randomInt(19, 64, 32, 0.2, 3, true)
	est, _, err := EstimateLp(a, b, 0, LpOpts{Eps: 0.5, Seed: 46})
	if err != nil {
		t.Fatal(err)
	}
	if est != 0 {
		t.Fatalf("estimate of empty product = %v", est)
	}
}

func TestEstimateLpRectangular(t *testing.T) {
	// Section 6: A is 60×40, B is 40×90.
	a := randomInt(20, 60, 40, 0.15, 2, true)
	b := randomInt(21, 40, 90, 0.15, 2, true)
	truth := float64(a.Mul(b).L0())
	est, _, err := EstimateLp(a, b, 0, LpOpts{Eps: 0.3, Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	if re := relErr(est, truth); re > 0.4 {
		t.Fatalf("rectangular p=0 estimate %v vs %v (rel %.3f)", est, truth, re)
	}
}

func TestOneRoundLpAccuracyAndRounds(t *testing.T) {
	a := randomBinary(22, 128, 128, 0.08).ToInt()
	b := randomBinary(23, 128, 128, 0.08).ToInt()
	truth := float64(a.Mul(b).L0())
	est, cost, err := OneRoundLp(a, b, 0, LpOpts{Eps: 0.3, Seed: 48})
	if err != nil {
		t.Fatal(err)
	}
	if re := relErr(est, truth); re > 0.35 {
		t.Fatalf("one-round estimate %v vs %v (rel %.3f)", est, truth, re)
	}
	if cost.Rounds != 1 {
		t.Fatalf("one-round protocol used %d rounds", cost.Rounds)
	}
}

func TestTwoRoundBeatsOneRoundCommunication(t *testing.T) {
	// The E1 separation: at small ε the 2-round Õ(n/ε) protocol must use
	// substantially fewer bits than the 1-round Õ(n/ε²) baseline.
	a := randomBinary(24, 128, 128, 0.1).ToInt()
	b := randomBinary(25, 128, 128, 0.1).ToInt()
	eps := 0.1
	_, cost2, err := EstimateLp(a, b, 0, LpOpts{Eps: eps, Seed: 49})
	if err != nil {
		t.Fatal(err)
	}
	_, cost1, err := OneRoundLp(a, b, 0, LpOpts{Eps: eps, Seed: 49})
	if err != nil {
		t.Fatal(err)
	}
	if cost2.Bits >= cost1.Bits {
		t.Fatalf("two-round %d bits not below one-round %d bits at eps=%v",
			cost2.Bits, cost1.Bits, eps)
	}
}

func TestEstimateLpCommunicationScalesWithEps(t *testing.T) {
	// Bits should grow roughly like 1/ε, not 1/ε²: going from ε=0.4 to
	// ε=0.1 (4×) must grow communication by well under 16×.
	a := randomBinary(26, 96, 96, 0.1).ToInt()
	b := randomBinary(27, 96, 96, 0.1).ToInt()
	_, costLoose, err := EstimateLp(a, b, 0, LpOpts{Eps: 0.4, Seed: 50})
	if err != nil {
		t.Fatal(err)
	}
	_, costTight, err := EstimateLp(a, b, 0, LpOpts{Eps: 0.1, Seed: 50})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(costTight.Bits) / float64(costLoose.Bits)
	if ratio > 10 {
		t.Fatalf("eps 0.4→0.1 grew bits by %.1f×, want ≲ 1/ε scaling", ratio)
	}
}

func TestEstimateLpDeterministicForSeed(t *testing.T) {
	a := randomInt(28, 50, 50, 0.15, 3, true)
	b := randomInt(29, 50, 50, 0.15, 3, true)
	e1, c1, err := EstimateLp(a, b, 1, LpOpts{Eps: 0.4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	e2, c2, err := EstimateLp(a, b, 1, LpOpts{Eps: 0.4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 || c1.Bits != c2.Bits {
		t.Fatal("same seed produced different executions")
	}
}

func TestEstimateLpRepsOption(t *testing.T) {
	a := randomInt(30, 40, 40, 0.2, 2, true)
	b := randomInt(31, 40, 40, 0.2, 2, true)
	_, c1, err := EstimateLp(a, b, 1, LpOpts{Eps: 0.5, Reps: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	_, c3, err := EstimateLp(a, b, 1, LpOpts{Eps: 0.5, Reps: 3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c3.Bits <= c1.Bits {
		t.Fatal("more repetitions did not increase communication")
	}
	if c3.Rounds != 2 {
		t.Fatalf("parallel repetitions must stay in 2 rounds, got %d", c3.Rounds)
	}
}

func TestEstimateLpIdentityProduct(t *testing.T) {
	// A = I: C = B, so ‖C‖p^p is directly computable — a sharp edge case
	// for the grouping logic (every row norm differs).
	n := 64
	a := randomInt(0, n, n, 0, 1, true)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	b := randomInt(33, n, n, 0.2, 5, true)
	truth := b.Lp(1)
	est, _, err := EstimateLp(a, b, 1, LpOpts{Eps: 0.3, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	if re := relErr(est, truth); re > 0.35 {
		t.Fatalf("identity product estimate %v vs %v", est, truth)
	}
}

func TestLpPowMatchesNormDefinition(t *testing.T) {
	// Estimating ‖C‖p^p and the matrix Lp must agree on ground truth.
	a := randomInt(34, 20, 20, 0.3, 3, true)
	b := randomInt(35, 20, 20, 0.3, 3, true)
	c := a.Mul(b)
	var manual float64
	for i := 0; i < c.Rows(); i++ {
		manual += rowLpPow(c.Row(i), 1.5)
	}
	if math.Abs(manual-c.Lp(1.5)) > 1e-6 {
		t.Fatal("rowLpPow disagrees with intmat.Lp")
	}
}

// TestLpServeMalformedSampledRow: a round-2 message whose sampled rows
// name a row B does not have fails the request with an error. With
// shards the products run on pool goroutines, where the driver's recover
// cannot see a panic — the index must be refused in the sequential
// decode (this message used to end the process at Shards 2).
func TestLpServeMalformedSampledRow(t *testing.T) {
	b := randomInt(1800, 8, 8, 0.5, 3, true)
	for _, shards := range []int{1, 2} {
		st, err := NewBobLpState(b, 1, LpOpts{Eps: 0.5, Seed: 1801, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		alice := func(tr comm.Transport) error {
			tr.Recv(comm.BobToAlice)
			msg := comm.NewMessage()
			for rep := 0; rep < 5; rep++ {
				msg.PutUvarint(200)
				for smp := 0; smp < 200; smp++ {
					msg.PutUvarint(uint64(smp))
					msg.PutFloat64(1)
					putSparseRow(msg, []int32{99}, []int64{1})
				}
			}
			tr.Send(comm.AliceToBob, msg)
			return nil
		}
		_, err = runPair(alice, func(tr comm.Transport) error { _, err := st.Serve(tr); return err })
		if err == nil || !strings.Contains(err.Error(), "malformed protocol message") {
			t.Fatalf("shards %d: Serve returned %v, want a malformed-message error", shards, err)
		}
	}
}

// TestL0FamiliesNeverEstimateNonZeroEmpty draws the p = 0 row-sketch
// families Algorithm 1 draws at n = 512 (seeds 0–1999, five repetitions
// each: 10 000 families) and checks that none estimates a non-zero
// vector as empty. A level hash can put every coordinate at level 0
// (seed 400, repetition 0 does): level 0 then saturates with nothing
// above it, and the estimate must come from that level, not fall
// through to 0 — which would drop the row from lp at p = 0 and from
// l0sample.
func TestL0FamiliesNeverEstimateNonZeroEmpty(t *testing.T) {
	const n = 512
	dense, half := make([]int64, n), make([]int64, n)
	for j := range dense {
		dense[j] = 1
		half[j] = int64(j % 2)
	}
	for seed := uint64(0); seed < 2000; seed++ {
		o := LpOpts{Eps: 0.25, Seed: seed}
		if err := o.setDefaults(); err != nil {
			t.Fatal(err)
		}
		families, _ := lpSketchFamilies(o, n, 0)
		for rep, rs := range families {
			for _, x := range []struct {
				nnz int
				v   []int64
			}{{n, dense}, {n / 2, half}} {
				if est := rs.l0.Estimate(rs.l0.Apply(x.v)); !(est > 0) {
					t.Fatalf("seed %d repetition %d: a vector with %d non-zeros estimated %v", seed, rep, x.nnz, est)
				}
			}
		}
	}
}
