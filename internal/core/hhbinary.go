package core

import (
	"math"
	"sort"

	"repro/internal/bitmat"
	"repro/internal/comm"
	"repro/internal/rng"
)

// HHBinaryOpts configures HeavyHittersBinary (Section 5.2, Theorem 5.3).
type HHBinaryOpts struct {
	// Phi and Eps define the ℓp-(ϕ,ε)-heavy-hitter guarantee,
	// 0 < Eps ≤ Phi ≤ 1.
	Phi, Eps float64
	// P is the norm index in (0, 2]. Default 1.
	P float64
	// AlphaC scales the item-sampling constant α = (AlphaC·ln n)^{1/p}
	// (the paper's (10⁴ log n)^{1/p}, scaled). Default 8.
	AlphaC float64
	// VerC scales the per-candidate verification sample count
	// t = VerC·(ϕ/ε)²·ln n. Default 12.
	VerC float64
	// Seed is the shared public-coin seed.
	Seed uint64
}

func (o *HHBinaryOpts) setDefaults() error {
	if o.Eps <= 0 || o.Phi < o.Eps || o.Phi > 1 {
		return ErrBadPhi
	}
	if o.P == 0 {
		o.P = 1
	}
	if o.P < 0 || o.P > 2 {
		return ErrBadP
	}
	if o.AlphaC <= 0 {
		o.AlphaC = 8
	}
	if o.VerC <= 0 {
		o.VerC = 12
	}
	return nil
}

// HeavyHittersBinary is the Section 5.2 protocol (Theorem 5.3): for
// Boolean matrices it computes the ℓp-(ϕ,ε)-heavy-hitters of C = A·B in
// O(1) rounds and Õ(n + ϕ/ε²) bits — substantially below the
// Õ(√ϕ/ε·n) needed for general integer matrices, mirroring the
// binary/general gap of the ℓ∞ problem.
//
// Step 1 estimates L′p = ‖C‖p within a constant factor (Algorithm 1,
// cost merged into the returned Cost). Step 2 downsamples the item
// universe at rate β = min(α/(ϕ^{1/p}·L′p), 1) and splits the sampled
// product C′ into CA + CB via the same per-item min(u_k, v_k) index
// exchange as Algorithm 2. Step 3 treats every entry with
// CA^p or CB^p ≥ β^p·ϕ·L′p^p/20 as a candidate (the /20 absorbs the
// worst-case CA/CB split) and verifies each by sampling coordinates of
// the inner product ⟨A_{i,*}, B_{*,j}⟩: Alice draws t = Õ((ϕ/ε)²)
// indices from the support of her row — importance sampling with the
// same communication shape as the paper's uniform sampling but lower
// variance — and Bob checks them against his column and thresholds the
// resulting (1 ± ε/2ϕ)-accurate estimates at (ϕ − ε/2)·‖C‖p^p.
func HeavyHittersBinary(a, b *bitmat.Matrix, o HHBinaryOpts) ([]WeightedPair, Cost, error) {
	if err := checkDims(a.Cols(), b.Rows()); err != nil {
		return nil, Cost{}, err
	}
	if err := o.setDefaults(); err != nil {
		return nil, Cost{}, err
	}
	n := a.Cols()
	m1, m2 := a.Rows(), b.Cols()

	// Step 1: ‖C‖p^p within a constant factor (tighter when the final
	// thresholding needs it).
	lpAcc := math.Min(0.25, o.Eps/(4*o.Phi))
	tp, lpCost, err := EstimateLp(a.ToInt(), b.ToInt(), o.P, LpOpts{Eps: lpAcc, Seed: o.Seed + 1})
	if err != nil {
		return nil, Cost{}, err
	}
	if tp <= 0 {
		return nil, lpCost, nil
	}
	lPrime := math.Pow(tp, 1/o.P)

	conn := comm.NewConn()
	// Share the estimate (in the paper both parties hold it after the
	// sub-protocol; here Bob's output is forwarded in O(1) words).
	msg0 := comm.NewMessage()
	msg0.PutFloat64(tp)
	recv0 := conn.Send(comm.BobToAlice, msg0)
	tpAlice := recv0.Float64()
	_ = tpAlice

	// Step 2: item sampling at rate β.
	alpha := math.Pow(o.AlphaC*lnDim(n), 1/o.P)
	beta := math.Min(alpha/(math.Pow(o.Phi, 1/o.P)*lPrime), 1)
	alicePriv := rng.New(o.Seed).Derive("alice-private", "hhbinary")
	keep := make([]bool, n)
	var active []int
	for k := 0; k < n; k++ {
		if alicePriv.Bernoulli(beta) {
			keep[k] = true
			active = append(active, k)
		}
	}

	// Alice→Bob: survivor bitmap and per-survivor u_k.
	msg1 := comm.NewMessage()
	msg1.PutBitmap(keep)
	uk := make([]int, n)
	cols := make([][]itemEntry, n)
	for _, k := range active {
		for _, i := range a.ColSupport(k) {
			cols[k] = append(cols[k], itemEntry{row: int32(i), level: 0})
		}
		uk[k] = len(cols[k])
		msg1.PutUvarint(uint64(uk[k]))
	}
	recv1 := conn.Send(comm.AliceToBob, msg1)
	keepBob := recv1.Bitmap()
	ukBob := make([]int, n)
	var activeBob []int
	for k := 0; k < n; k++ {
		if keepBob[k] {
			activeBob = append(activeBob, k)
			ukBob[k] = int(recv1.Uvarint())
		}
	}
	_ = activeBob

	// Index exchange at level 0 of the sampled universe → CA + CB = C′.
	_, _, ca, cb := indexExchange(conn, cols, 0, uk, b, m1, m2, active)

	// Step 3: candidates from both sides.
	candThreshold := math.Pow(beta, o.P) * o.Phi * tp / 20
	type cand struct{ i, j int }
	seen := map[cand]bool{}
	var su []cand
	collect := func(p *partial) {
		p.eachRow(func(i int, js []int, row []int64) {
			for _, j := range js {
				if math.Pow(float64(row[j]), o.P) >= candThreshold {
					c := cand{i, j}
					if !seen[c] {
						seen[c] = true
						su = append(su, c)
					}
				}
			}
		})
	}

	// Alice→Bob: SA; Bob unions with SB; Bob→Alice: SU.
	collect(ca)
	msgSA := comm.NewMessage()
	msgSA.PutUvarint(uint64(len(su)))
	for _, c := range su {
		msgSA.PutUvarint(uint64(c.i))
		msgSA.PutUvarint(uint64(c.j))
	}
	recvSA := conn.Send(comm.AliceToBob, msgSA)
	nsa := int(recvSA.Uvarint())
	for t := 0; t < nsa; t++ {
		i := int(recvSA.Uvarint())
		j := int(recvSA.Uvarint())
		c := cand{i, j}
		if !seen[c] {
			seen[c] = true
			su = append(su, c)
		}
	}
	collect(cb)
	sort.Slice(su, func(x, y int) bool {
		if su[x].i != su[y].i {
			return su[x].i < su[y].i
		}
		return su[x].j < su[y].j
	})
	msgSU := comm.NewMessage()
	msgSU.PutUvarint(uint64(len(su)))
	for _, c := range su {
		msgSU.PutUvarint(uint64(c.i))
		msgSU.PutUvarint(uint64(c.j))
	}
	recvSU := conn.Send(comm.BobToAlice, msgSU)

	// Alice: per candidate, ship |A_i| and t sampled support indices.
	t := int(math.Ceil(o.VerC * (o.Phi / o.Eps) * (o.Phi / o.Eps) * lnDim(n)))
	nsu := int(recvSU.Uvarint())
	msgVer := comm.NewMessage()
	msgVer.PutUvarint(uint64(nsu))
	verPairs := make([]cand, nsu)
	for x := 0; x < nsu; x++ {
		i := int(recvSU.Uvarint())
		j := int(recvSU.Uvarint())
		verPairs[x] = cand{i, j}
		support := a.RowSupport(i)
		msgVer.PutUvarint(uint64(i))
		msgVer.PutUvarint(uint64(j))
		msgVer.PutUvarint(uint64(len(support)))
		if len(support) == 0 {
			continue
		}
		samples := t
		if samples > 4*len(support) {
			samples = 4 * len(support) // no point oversampling tiny rows
		}
		msgVer.PutUvarint(uint64(samples))
		for s := 0; s < samples; s++ {
			msgVer.PutUvarint(uint64(support[alicePriv.Intn(len(support))]))
		}
	}
	recvVer := conn.Send(comm.AliceToBob, msgVer)

	// Bob: estimate each candidate and threshold.
	finalCut := (o.Phi - o.Eps/2) * tp
	var out []WeightedPair
	nver := int(recvVer.Uvarint())
	for x := 0; x < nver; x++ {
		i := int(recvVer.Uvarint())
		j := int(recvVer.Uvarint())
		supSize := int(recvVer.Uvarint())
		if supSize == 0 {
			continue
		}
		samples := int(recvVer.Uvarint())
		hits := 0
		for s := 0; s < samples; s++ {
			k := int(recvVer.Uvarint())
			if b.Get(k, j) {
				hits++
			}
		}
		est := float64(supSize) * float64(hits) / float64(samples)
		if math.Pow(est, o.P) >= finalCut {
			out = append(out, WeightedPair{I: i, J: j, Value: est})
		}
	}
	sortPairs(out)
	return out, addCost(costOf(conn), lpCost), nil
}
