package core

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/comm"
	"repro/internal/rng"
)

// plantedMaxPair builds Boolean matrices whose product has a planted
// dominant entry: row hotRow of A and column hotCol of B share `overlap`
// items, over background density bg.
func plantedMaxPair(seed uint64, n, overlap int, bg float64) (*bitmat.Matrix, *bitmat.Matrix, int, int) {
	r := rng.New(seed)
	a := bitmat.New(n, n)
	b := bitmat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if r.Bernoulli(bg) {
				a.Set(i, j, true)
			}
			if r.Bernoulli(bg) {
				b.Set(i, j, true)
			}
		}
	}
	hotRow, hotCol := n/3, 2*n/3
	perm := r.Perm(n)
	for t := 0; t < overlap; t++ {
		k := perm[t]
		a.Set(hotRow, k, true)
		b.Set(k, hotCol, true)
	}
	return a, b, hotRow, hotCol
}

func TestLinfBinaryPlantedPair(t *testing.T) {
	a, b, _, _ := plantedMaxPair(80, 96, 40, 0.05)
	truth, _, _ := a.Mul(b).Linf()
	est, _, cost, err := EstimateLinfBinary(a, b, LinfOpts{Eps: 0.5, Seed: 81})
	if err != nil {
		t.Fatal(err)
	}
	lo := float64(truth) / 3.0 // (2+ε) factor with slack
	hi := float64(truth) * 2.0
	if est < lo || est > hi {
		t.Fatalf("ℓ∞ estimate %v outside [%v, %v] (truth %d)", est, lo, hi, truth)
	}
	if cost.Rounds > 3 {
		t.Fatalf("rounds = %d, want ≤ 3", cost.Rounds)
	}
}

func TestLinfBinaryUnsampledWithinFactor2(t *testing.T) {
	// Small, light inputs keep ‖C‖1 under the γn² threshold, so ℓ* = 0
	// and C splits exactly into CA + CB: the output is then within a
	// factor 2 of ‖C‖∞ deterministically (the factor the Ω(n²) lower
	// bound of Theorem 4.4 shows is unavoidable to beat).
	a := randomBinary(82, 32, 32, 0.15)
	b := randomBinary(83, 32, 32, 0.15)
	truth, _, _ := a.Mul(b).Linf()
	est, arg, _, err := EstimateLinfBinary(a, b, LinfOpts{Eps: 0.5, Seed: 84})
	if err != nil {
		t.Fatal(err)
	}
	if est < float64(truth)/2 || est > float64(truth) {
		t.Fatalf("unsampled ℓ∞ = %v, want in [%d/2, %d]", est, truth, truth)
	}
	// The reported pair's true value dominates the reported partial max.
	if got := a.Mul(b).Get(arg.I, arg.J); float64(got) < est {
		t.Fatalf("argmax (%d,%d) has value %d < reported %v", arg.I, arg.J, got, est)
	}
}

func TestLinfBinaryZeroMatrix(t *testing.T) {
	a := bitmat.New(16, 16)
	b := randomBinary(85, 16, 16, 0.3)
	est, _, _, err := EstimateLinfBinary(a, b, LinfOpts{Eps: 0.5, Seed: 86})
	if err != nil {
		t.Fatal(err)
	}
	if est != 0 {
		t.Fatalf("ℓ∞ of zero product = %v", est)
	}
}

func TestLinfBinaryDenseTriggersSampling(t *testing.T) {
	// Dense inputs exceed the level-0 threshold, forcing ℓ* > 0; the
	// rescaled estimate must still track the truth within (2+ε)·slack.
	a, b, _, _ := plantedMaxPair(87, 128, 100, 0.35)
	truth, _, _ := a.Mul(b).Linf()
	est, _, _, err := EstimateLinfBinary(a, b, LinfOpts{Eps: 0.5, GammaC: 0.3, Seed: 88})
	if err != nil {
		t.Fatal(err)
	}
	if est < float64(truth)/4 || est > float64(truth)*2.5 {
		t.Fatalf("sampled ℓ∞ estimate %v vs truth %d", est, truth)
	}
}

func TestLinfKappaPlantedPair(t *testing.T) {
	a, b, _, _ := plantedMaxPair(89, 96, 50, 0.04)
	truth, _, _ := a.Mul(b).Linf()
	kappa := 6.0
	est, _, cost, err := EstimateLinfKappa(a, b, LinfKappaOpts{Kappa: kappa, Seed: 90})
	if err != nil {
		t.Fatal(err)
	}
	// κ-approximation: X ∈ [Y/β, γY] with βγ ≤ κ; allow 2× slack for
	// the scaled constants.
	if est < float64(truth)/(2*kappa) || est > 2*kappa*float64(truth) {
		t.Fatalf("κ=%v estimate %v vs truth %d", kappa, est, truth)
	}
	if cost.Rounds > 4 {
		t.Fatalf("rounds = %d, want O(1) (≤4)", cost.Rounds)
	}
}

func TestLinfKappaZeroProduct(t *testing.T) {
	a := bitmat.New(24, 24)
	b := randomBinary(91, 24, 24, 0.3)
	est, _, _, err := EstimateLinfKappa(a, b, LinfKappaOpts{Kappa: 4, Seed: 92})
	if err != nil {
		t.Fatal(err)
	}
	if est != 0 {
		t.Fatalf("κ-approx of zero product = %v", est)
	}
}

func TestLinfKappaEmptySampleNonzeroC(t *testing.T) {
	// Force q extremely small via huge κ on a sparse C: when the sampled
	// D is empty but C is not, the protocol must output 1.
	a := bitmat.New(64, 64)
	b := bitmat.New(64, 64)
	a.Set(0, 0, true)
	b.Set(0, 0, true) // C[0][0] = 1
	est, _, _, err := EstimateLinfKappa(a, b, LinfKappaOpts{Kappa: 64, AlphaC: 0.0001, Seed: 93})
	if err != nil {
		t.Fatal(err)
	}
	if est != 1 {
		t.Fatalf("empty-sample fallback = %v, want 1", est)
	}
}

func TestLinfKappaUniverseSamplingSavesBits(t *testing.T) {
	// The ablation the paper motivates: with universe sampling the
	// exchange is cheaper than without, at large κ.
	a, b, _, _ := plantedMaxPair(94, 160, 60, 0.15)
	// AlphaC is lowered so q = α/κ is well below 1 at this size.
	o := LinfKappaOpts{Kappa: 16, AlphaC: 0.8, Seed: 95}
	_, _, with, err := EstimateLinfKappa(a, b, o)
	if err != nil {
		t.Fatal(err)
	}
	_, _, without, err := EstimateLinfKappaNoUniverse(a, b, o)
	if err != nil {
		t.Fatal(err)
	}
	if with.Bits >= without.Bits {
		t.Fatalf("universe sampling did not reduce bits: %d vs %d", with.Bits, without.Bits)
	}
}

func TestLinfGeneralPlanted(t *testing.T) {
	// Integer matrices with one dominant entry.
	a := randomInt(96, 80, 80, 0.1, 3, false)
	b := randomInt(97, 80, 80, 0.1, 3, false)
	a.Set(7, 0, 900)
	b.Set(0, 13, 1000) // C[7][13] ≈ 900000 dominates
	c := a.Mul(b)
	truth, _, _ := c.Linf()
	kappa := 4.0
	est, cost, err := EstimateLinfGeneral(a, b, LinfGeneralOpts{Kappa: kappa, Seed: 98})
	if err != nil {
		t.Fatal(err)
	}
	// Estimate ∈ [‖C‖∞, κ‖C‖∞] up to AMS error (2× slack).
	if est < float64(truth)/2 || est > 2*kappa*float64(truth) {
		t.Fatalf("general ℓ∞ estimate %v vs truth %d (κ=%v)", est, truth, kappa)
	}
	if cost.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", cost.Rounds)
	}
}

func TestLinfGeneralCommunicationShrinksWithKappa(t *testing.T) {
	a := randomInt(99, 64, 64, 0.2, 5, false)
	b := randomInt(100, 64, 64, 0.2, 5, false)
	_, c2, err := EstimateLinfGeneral(a, b, LinfGeneralOpts{Kappa: 2, Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	_, c8, err := EstimateLinfGeneral(a, b, LinfGeneralOpts{Kappa: 8, Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	if c8.Bits >= c2.Bits {
		t.Fatalf("κ=8 used %d bits ≥ κ=2's %d — want ~n²/κ² scaling", c8.Bits, c2.Bits)
	}
}

func TestLinfGeneralZero(t *testing.T) {
	a := randomInt(102, 20, 20, 0, 1, true)
	b := randomInt(103, 20, 20, 0.3, 3, false)
	est, _, err := EstimateLinfGeneral(a, b, LinfGeneralOpts{Kappa: 2, Seed: 104})
	if err != nil {
		t.Fatal(err)
	}
	if est != 0 {
		t.Fatalf("zero product estimate = %v", est)
	}
}

// allocatedBy is the heap f allocates, live or not.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLinfServeBoundsLevelCount: Bob sizes his per-level column sums
// from the deepest level Alice declares. He used to allocate for
// whatever number arrived before reading a byte of the sums — and in
// Algorithm 3, where an all-false survivor bitmap means no sum is read
// at all, a 31-byte message bought 411 MB and a nil error. Alice's
// deepest level is bounded by the shapes both know, and her sums by the
// bytes she sent.
func TestLinfServeBoundsLevelCount(t *testing.T) {
	const n = 24
	b := randomBinary(4000, n, n, 0.3)
	// round1 is Algorithm 3's round 1 over bitmapBits items, none
	// surviving, with n zero column sums and the given deepest level.
	round1 := func(bitmapBits int, maxLevel uint64) func(comm.Transport) error {
		return func(tr comm.Transport) error {
			msg := comm.NewMessage()
			msg.PutBitmap(make([]bool, bitmapBits))
			for k := 0; k < n; k++ {
				msg.PutUvarint(0)
			}
			msg.PutUvarint(maxLevel)
			if bitmapBits == n && maxLevel == 2_000_000 && msg.Len() != 31 {
				t.Fatalf("the message under test is %d bytes, want 31", msg.Len())
			}
			tr.Send(comm.AliceToBob, msg)
			return nil
		}
	}
	for _, shards := range []int{1, 2} {
		kappa, err := NewBobLinfKappaState(b, LinfKappaOpts{Kappa: 4, Seed: 4001, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		serveKappa := func(tr comm.Transport) error { _, _, err := kappa.Serve(tr, n); return err }
		if got := allocatedBy(func() {
			wantMalformed(t, "Algorithm 3: deepest level 2 000 000 over an empty survivor set", round1(n, 2_000_000), serveKappa)
		}); got > 1<<20 {
			t.Fatalf("Algorithm 3: refusing a 31-byte message allocated %d bytes", got)
		}
		wantMalformed(t, "Algorithm 3: deepest level one past the bound", round1(n, uint64(levelBound(n*n, 2))+1), serveKappa)
		wantMalformed(t, "Algorithm 3: survivor bitmap longer than B", round1(n+8, 0), serveKappa)
		wantMalformed(t, "Algorithm 3: survivor bitmap shorter than B", round1(n-1, 0), serveKappa)
		// At the bound the same message is the empty-product fallback.
		if _, err := runPair(round1(n, uint64(levelBound(n*n, 2))), serveKappa); err != nil {
			t.Fatalf("Algorithm 3: deepest level at the bound: %v", err)
		}

		// Algorithm 2 reads n sums a level, so the bytes bound the levels
		// even where a small ε makes the shape's bound large.
		o := LinfOpts{Eps: 0.001, Seed: 4002, Shards: shards}
		linf, err := NewBobLinfState(b, o)
		if err != nil {
			t.Fatal(err)
		}
		serveLinf := func(tr comm.Transport) error { _, _, err := linf.Serve(tr, n); return err }
		levels := func(maxLevel uint64, sums int) func(comm.Transport) error {
			return func(tr comm.Transport) error {
				msg := comm.NewMessage()
				msg.PutUvarint(maxLevel)
				for k := 0; k < sums; k++ {
					msg.PutUvarint(0)
				}
				tr.Send(comm.AliceToBob, msg)
				return nil
			}
		}
		if levelBound(n*n, 1+o.Eps) < 5000 {
			t.Fatalf("the shape's bound is %d levels; the case needs one the bytes undercut", levelBound(n*n, 1+o.Eps))
		}
		if got := allocatedBy(func() {
			wantMalformed(t, "Algorithm 2: deepest level 2 000 000", levels(2_000_000, n), serveLinf)
			wantMalformed(t, "Algorithm 2: 5 000 levels, the sums of one", levels(4999, n), serveLinf)
			wantMalformed(t, "Algorithm 2: a level one sum short", levels(1, 2*n-1), serveLinf)
		}); got > 1<<20 {
			t.Fatalf("Algorithm 2: refusing three short messages allocated %d bytes", got)
		}
	}
}

// TestLinfExchangeRefusesForeignIndices: the index lists of the
// exchange address rows (Alice's) and columns (Bob's) of the product.
// An index past the shape used to reach the partial matrix and come
// back as a recovered runtime panic; it is refused by name.
func TestLinfExchangeRefusesForeignIndices(t *testing.T) {
	const m1, n, m2 = 10, 12, 14
	full := func(rows, cols int) *bitmat.Matrix { return randomBinary(4100, rows, cols, 1) }
	o := LinfOpts{Eps: 0.5, Seed: 4101}

	// Alice names row m1. Every item has one survivor on her side and
	// m2 ≥ 1 on Bob's, so she covers them all.
	alice := func(row int) func(comm.Transport) error {
		return func(tr comm.Transport) error {
			msg1 := comm.NewMessage()
			msg1.PutUvarint(0)
			for k := 0; k < n; k++ {
				msg1.PutUvarint(1)
			}
			tr.Send(comm.AliceToBob, msg1)
			tr.Recv(comm.BobToAlice) // ℓ*
			tr.Recv(comm.BobToAlice) // v_k, and no list of Bob's
			msg := comm.NewMessage()
			for k := 0; k < n; k++ {
				msg.PutIndexList([]int{row})
			}
			msg.PutVarint(0)
			msg.PutUvarint(0)
			msg.PutUvarint(0)
			tr.Send(comm.AliceToBob, msg)
			return nil
		}
	}
	st, err := NewBobLinfState(full(n, m2), o)
	if err != nil {
		t.Fatal(err)
	}
	bob := func(tr comm.Transport) error { _, _, err := st.Serve(tr, m1); return err }
	if _, err := runPair(alice(m1), bob); err == nil || !strings.Contains(err.Error(), "row index 10 in an index list over 10 rows") {
		t.Fatalf("row m1 in Alice's list: %v", err)
	}
	if _, err := runPair(alice(m1-1), bob); err != nil {
		t.Fatalf("row m1−1 in Alice's list: %v", err)
	}

	// Bob names column m2. Every item has m1 survivors on Alice's side
	// at level 0 and, he says, one on his, so he covers them all.
	scriptedBob := func(col int) func(comm.Transport) error {
		return func(tr comm.Transport) (err error) {
			defer recoverDecodeError(&err) // Alice may be gone before the last Recv
			tr.Recv(comm.AliceToBob)
			msgL := comm.NewMessage()
			msgL.PutUvarint(0)
			tr.Send(comm.BobToAlice, msgL)
			msg := comm.NewMessage()
			for k := 0; k < n; k++ {
				msg.PutUvarint(1)
			}
			for k := 0; k < n; k++ {
				msg.PutIndexList([]int{col})
			}
			tr.Send(comm.BobToAlice, msg)
			tr.Recv(comm.AliceToBob)
			return nil
		}
	}
	a := full(m1, n)
	realAlice := func(tr comm.Transport) error { return AliceLinf(tr, a, m2, o) }
	if _, err := runPair(realAlice, scriptedBob(m2)); err == nil || !strings.Contains(err.Error(), "column index 14 in an index list over 14 columns") {
		t.Fatalf("column m2 in Bob's list: %v", err)
	}
	if _, err := runPair(realAlice, scriptedBob(m2-1)); err != nil {
		t.Fatalf("column m2−1 in Bob's list: %v", err)
	}
}
