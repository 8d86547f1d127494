package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/comm"
	"repro/internal/intmat"
)

// patchIntRows returns a clone of m with the listed rows re-randomized
// (density ~0.3, values in [1, maxAbs] or [-maxAbs, maxAbs]).
func patchIntRows(seed uint64, m *intmat.Dense, rows []int, maxAbs int64, nonneg bool) *intmat.Dense {
	rnd := rand.New(rand.NewSource(int64(seed)))
	nm := m.Clone()
	for _, k := range rows {
		for j := 0; j < m.Cols(); j++ {
			var v int64
			if rnd.Float64() < 0.3 {
				v = rnd.Int63n(maxAbs) + 1
				if !nonneg && rnd.Intn(2) == 0 {
					v = -v
				}
			}
			nm.Set(k, j, v)
		}
	}
	return nm
}

// patchBitRows returns a copy of m with the listed rows re-randomized.
func patchBitRows(seed uint64, m *bitmat.Matrix, rows []int) *bitmat.Matrix {
	rnd := rand.New(rand.NewSource(int64(seed)))
	nm := bitmat.New(m.Rows(), m.Cols())
	for i := 0; i < m.Rows(); i++ {
		copy(nm.Row(i), m.Row(i))
	}
	for _, k := range rows {
		for j := 0; j < m.Cols(); j++ {
			nm.Set(k, j, rnd.Float64() < 0.3)
		}
	}
	return nm
}

// TestUpdateRowsTranscriptParity is the incremental-maintenance
// guarantee: for every Bob state kind, applying a row update to an
// existing state produces a state whose Serve transcript (both
// directions, every byte) and output are identical to a state rebuilt
// from scratch on the updated matrix — under the same seed epoch, for
// sequential and shard-parallel states alike, and after a chain of two
// updates.
func TestUpdateRowsTranscriptParity(t *testing.T) {
	const n = 24
	aInt := randomInt(900, n, n, 0.2, 3, false)
	aPos := randomInt(901, n, n, 0.2, 3, true)
	aBit := randomBinary(902, n, n, 0.3)

	bInt := randomInt(903, n, n, 0.2, 3, false)
	bPos := randomInt(904, n, n, 0.2, 3, true)
	bBit := randomBinary(905, n, n, 0.3)

	patch1 := []int{3, 17}
	patch2 := []int{17, 8, 8} // unsorted with a duplicate: normalization path
	bInt1 := patchIntRows(906, bInt, patch1, 3, false)
	bInt2 := patchIntRows(907, bInt1, patch2, 3, false)
	bPos1 := patchIntRows(908, bPos, patch1, 3, true)
	bPos2 := patchIntRows(909, bPos1, patch2, 3, true)
	bBit1 := patchBitRows(910, bBit, patch1)
	bBit2 := patchBitRows(911, bBit1, patch2)

	type variant struct {
		alice   func(comm.Transport) error
		updated func(comm.Transport) error // chained UpdateRows state on B2
		fresh   func(comm.Transport) error // from-scratch state on B2
		outU    func() any
		outF    func() any
	}
	for _, shards := range []int{0, 3} {
		cases := map[string]func(t *testing.T) variant{
			"lp-p1": func(t *testing.T) variant {
				o := LpOpts{Eps: 0.3, Seed: 920, Shards: shards}
				st0, err := NewBobLpState(bInt, 1, o)
				if err != nil {
					t.Fatal(err)
				}
				st1, err := st0.UpdateRows(bInt1, patch1)
				if err != nil {
					t.Fatal(err)
				}
				st2, err := st1.UpdateRows(bInt2, patch2)
				if err != nil {
					t.Fatal(err)
				}
				fr, err := NewBobLpState(bInt2, 1, o)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(st2.round1, fr.round1) {
					t.Fatal("spliced round-1 payload differs from rebuilt payload")
				}
				var eu, ef float64
				return variant{
					alice:   func(tr comm.Transport) error { return AliceLp(tr, aInt, bInt.Cols(), 1, o) },
					updated: func(tr comm.Transport) (err error) { eu, err = st2.Serve(tr); return err },
					fresh:   func(tr comm.Transport) (err error) { ef, err = fr.Serve(tr); return err },
					outU:    func() any { return eu },
					outF:    func() any { return ef },
				}
			},
			"lp-p0": func(t *testing.T) variant {
				// p = 0 exercises the field-sketch (ℓ0) row blocks.
				o := LpOpts{Eps: 0.4, Seed: 921, Shards: shards}
				st0, err := NewBobLpState(bInt, 0, o)
				if err != nil {
					t.Fatal(err)
				}
				st1, err := st0.UpdateRows(bInt1, patch1)
				if err != nil {
					t.Fatal(err)
				}
				st2, err := st1.UpdateRows(bInt2, patch2)
				if err != nil {
					t.Fatal(err)
				}
				fr, err := NewBobLpState(bInt2, 0, o)
				if err != nil {
					t.Fatal(err)
				}
				var eu, ef float64
				return variant{
					alice:   func(tr comm.Transport) error { return AliceLp(tr, aInt, bInt.Cols(), 0, o) },
					updated: func(tr comm.Transport) (err error) { eu, err = st2.Serve(tr); return err },
					fresh:   func(tr comm.Transport) (err error) { ef, err = fr.Serve(tr); return err },
					outU:    func() any { return eu },
					outF:    func() any { return ef },
				}
			},
			"l0sample": func(t *testing.T) variant {
				o := L0SampleOpts{Eps: 0.5, Seed: 922, Shards: shards}
				st0, err := NewBobL0SampleState(bInt, o)
				if err != nil {
					t.Fatal(err)
				}
				st1, err := st0.UpdateRows(bInt1, patch1)
				if err != nil {
					t.Fatal(err)
				}
				st2, err := st1.UpdateRows(bInt2, patch2)
				if err != nil {
					t.Fatal(err)
				}
				fr, err := NewBobL0SampleState(bInt2, o)
				if err != nil {
					t.Fatal(err)
				}
				if !st2.byCol.Equal(fr.byCol) {
					t.Fatal("merged column index differs from rebuilt index")
				}
				var pu, pf Pair
				var vu, vf int64
				return variant{
					alice: func(tr comm.Transport) error { return AliceL0Sample(tr, aInt, o) },
					updated: func(tr comm.Transport) (err error) {
						pu, vu, err = st2.Serve(tr, aInt.Rows())
						return err
					},
					fresh: func(tr comm.Transport) (err error) {
						pf, vf, err = fr.Serve(tr, aInt.Rows())
						return err
					},
					outU: func() any { return [2]any{pu, vu} },
					outF: func() any { return [2]any{pf, vf} },
				}
			},
			"exact": func(t *testing.T) variant {
				st0, err := NewBobExactL1State(bPos, max(shards, 1))
				if err != nil {
					t.Fatal(err)
				}
				st1, err := st0.UpdateRows(bPos1, patch1)
				if err != nil {
					t.Fatal(err)
				}
				st2, err := st1.UpdateRows(bPos2, patch2)
				if err != nil {
					t.Fatal(err)
				}
				fr, err := NewBobExactL1State(bPos2, max(shards, 1))
				if err != nil {
					t.Fatal(err)
				}
				var tu, tf int64
				return variant{
					alice:   func(tr comm.Transport) error { return AliceExactL1(tr, aPos) },
					updated: func(tr comm.Transport) (err error) { tu, err = st2.Serve(tr); return err },
					fresh:   func(tr comm.Transport) (err error) { tf, err = fr.Serve(tr); return err },
					outU:    func() any { return tu },
					outF:    func() any { return tf },
				}
			},
			"l1sample": func(t *testing.T) variant {
				st0, err := NewBobL1SampleState(bPos, max(shards, 1))
				if err != nil {
					t.Fatal(err)
				}
				st1, err := st0.UpdateRows(bPos1, patch1)
				if err != nil {
					t.Fatal(err)
				}
				st2, err := st1.UpdateRows(bPos2, patch2)
				if err != nil {
					t.Fatal(err)
				}
				fr, err := NewBobL1SampleState(bPos2, max(shards, 1))
				if err != nil {
					t.Fatal(err)
				}
				var iu, ju, wu, ifr, jf, wf int
				return variant{
					alice: func(tr comm.Transport) error { return AliceSampleL1(tr, aPos, 923) },
					updated: func(tr comm.Transport) (err error) {
						iu, ju, wu, err = st2.Serve(tr, 923)
						return err
					},
					fresh: func(tr comm.Transport) (err error) {
						ifr, jf, wf, err = fr.Serve(tr, 923)
						return err
					},
					outU: func() any { return [3]int{iu, ju, wu} },
					outF: func() any { return [3]int{ifr, jf, wf} },
				}
			},
			"linf": func(t *testing.T) variant {
				o := LinfOpts{Eps: 0.5, Seed: 924, Shards: shards}
				st0, err := NewBobLinfState(bBit, o)
				if err != nil {
					t.Fatal(err)
				}
				st1, err := st0.UpdateRows(bBit1, patch1)
				if err != nil {
					t.Fatal(err)
				}
				st2, err := st1.UpdateRows(bBit2, patch2)
				if err != nil {
					t.Fatal(err)
				}
				fr, err := NewBobLinfState(bBit2, o)
				if err != nil {
					t.Fatal(err)
				}
				var eu, ef float64
				var au, af Pair
				return variant{
					alice: func(tr comm.Transport) error { return AliceLinf(tr, aBit, bBit.Cols(), o) },
					updated: func(tr comm.Transport) (err error) {
						eu, au, err = st2.Serve(tr, aBit.Rows())
						return err
					},
					fresh: func(tr comm.Transport) (err error) {
						ef, af, err = fr.Serve(tr, aBit.Rows())
						return err
					},
					outU: func() any { return [2]any{eu, au} },
					outF: func() any { return [2]any{ef, af} },
				}
			},
			"linfkappa": func(t *testing.T) variant {
				o := LinfKappaOpts{Kappa: 4, Seed: 925, Shards: shards}
				st0, err := NewBobLinfKappaState(bBit, o)
				if err != nil {
					t.Fatal(err)
				}
				st1, err := st0.UpdateRows(bBit1, patch1)
				if err != nil {
					t.Fatal(err)
				}
				st2, err := st1.UpdateRows(bBit2, patch2)
				if err != nil {
					t.Fatal(err)
				}
				fr, err := NewBobLinfKappaState(bBit2, o)
				if err != nil {
					t.Fatal(err)
				}
				var eu, ef float64
				var au, af Pair
				return variant{
					alice: func(tr comm.Transport) error { return AliceLinfKappa(tr, aBit, bBit.Cols(), o) },
					updated: func(tr comm.Transport) (err error) {
						eu, au, err = st2.Serve(tr, aBit.Rows())
						return err
					},
					fresh: func(tr comm.Transport) (err error) {
						ef, af, err = fr.Serve(tr, aBit.Rows())
						return err
					},
					outU: func() any { return [2]any{eu, au} },
					outF: func() any { return [2]any{ef, af} },
				}
			},
			"hh": func(t *testing.T) variant {
				// Signed Alice forces the embedded Algorithm 1, and the old
				// state has its nested lp state prebuilt, so the update's
				// nested incremental path is on the transcript too.
				o := HHOpts{Phi: 0.3, Eps: 0.15, Seed: 926, Shards: shards}
				st0, err := NewBobHHState(bPos, o)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := st0.nestedLp(); err != nil {
					t.Fatal(err)
				}
				st1, err := st0.UpdateRows(bPos1, patch1)
				if err != nil {
					t.Fatal(err)
				}
				if !st1.nestedBuilt {
					t.Fatal("nested lp state was not carried through the update")
				}
				st2, err := st1.UpdateRows(bPos2, patch2)
				if err != nil {
					t.Fatal(err)
				}
				fr, err := NewBobHHState(bPos2, o)
				if err != nil {
					t.Fatal(err)
				}
				var ou, of []WeightedPair
				return variant{
					alice: func(tr comm.Transport) error { return AliceHH(tr, aInt, bPos.Cols(), true, o) },
					updated: func(tr comm.Transport) (err error) {
						ou, err = st2.Serve(tr, aInt.Rows(), false)
						return err
					},
					fresh: func(tr comm.Transport) (err error) {
						of, err = fr.Serve(tr, aInt.Rows(), false)
						return err
					},
					outU: func() any { return ou },
					outF: func() any { return of },
				}
			},
		}
		for name, build := range cases {
			suffix := "seq"
			if shards > 1 {
				suffix = "sharded"
			}
			t.Run(name+"/"+suffix, func(t *testing.T) {
				v := build(t)
				inU, outU := runRecorded(t, v.alice, v.updated)
				inF, outF := runRecorded(t, v.alice, v.fresh)
				if !bytes.Equal(inU, inF) {
					t.Errorf("Alice→Bob transcript diverged: updated %d bytes, fresh %d bytes", len(inU), len(inF))
				}
				if !bytes.Equal(outU, outF) {
					t.Errorf("Bob→Alice transcript diverged: updated %d bytes, fresh %d bytes", len(outU), len(outF))
				}
				if !reflect.DeepEqual(v.outU(), v.outF()) {
					t.Errorf("outputs diverged: updated %v, fresh %v", v.outU(), v.outF())
				}
			})
		}
	}
}

// TestUpdateRowsValidation pins the error surface: dimension changes,
// out-of-range rows, and sign violations are rejected, and the
// receiver state is left fully usable.
func TestUpdateRowsValidation(t *testing.T) {
	b := randomInt(930, 12, 12, 0.3, 3, true)
	bBig := randomInt(931, 13, 12, 0.3, 3, true)

	lp, err := NewBobLpState(b, 1, LpOpts{Eps: 0.4, Seed: 932})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lp.UpdateRows(bBig, []int{0}); !errors.Is(err, ErrUpdateShape) {
		t.Fatalf("dimension change: got %v, want ErrUpdateShape", err)
	}
	if _, err := lp.UpdateRows(b, []int{12}); !errors.Is(err, ErrUpdateShape) {
		t.Fatalf("out-of-range row: got %v, want ErrUpdateShape", err)
	}
	if _, err := lp.UpdateRows(b, []int{-1}); !errors.Is(err, ErrUpdateShape) {
		t.Fatalf("negative row: got %v, want ErrUpdateShape", err)
	}

	ex, err := NewBobExactL1State(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	neg := b.Clone()
	neg.Set(4, 4, -7)
	if _, err := ex.UpdateRows(neg, []int{4}); !errors.Is(err, ErrNeedNonNegative) {
		t.Fatalf("negative exact update: got %v, want ErrNeedNonNegative", err)
	}
	l1s, err := NewBobL1SampleState(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l1s.UpdateRows(neg, []int{4}); !errors.Is(err, ErrNeedNonNegative) {
		t.Fatalf("negative l1sample update: got %v, want ErrNeedNonNegative", err)
	}

	// Empty patch: a new state is still returned (it must point at the
	// new matrix) and serves identically.
	same, err := lp.UpdateRows(b.Clone(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(same.round1, lp.round1) {
		t.Fatal("empty patch changed the round-1 payload")
	}

	// Every remaining kind rejects dimension changes and out-of-range
	// rows the same way.
	bb := randomBinary(933, 12, 12, 0.3)
	bbBig := randomBinary(934, 13, 12, 0.3)
	l0, _ := NewBobL0SampleState(b, L0SampleOpts{Eps: 0.5, Seed: 935})
	lf, _ := NewBobLinfState(bb, LinfOpts{Eps: 0.5, Seed: 936})
	lk, _ := NewBobLinfKappaState(bb, LinfKappaOpts{Kappa: 4, Seed: 937})
	hh, _ := NewBobHHState(b, HHOpts{Phi: 0.3, Eps: 0.15, Seed: 938})
	intKinds := map[string]func(*intmat.Dense, []int) error{
		"l0sample": func(m *intmat.Dense, r []int) error { _, err := l0.UpdateRows(m, r); return err },
		"exact":    func(m *intmat.Dense, r []int) error { _, err := ex.UpdateRows(m, r); return err },
		"l1sample": func(m *intmat.Dense, r []int) error { _, err := l1s.UpdateRows(m, r); return err },
		"hh":       func(m *intmat.Dense, r []int) error { _, err := hh.UpdateRows(m, r); return err },
	}
	for name, upd := range intKinds {
		if err := upd(bBig, []int{0}); !errors.Is(err, ErrUpdateShape) {
			t.Errorf("%s dimension change: got %v", name, err)
		}
		if err := upd(b, []int{12}); !errors.Is(err, ErrUpdateShape) {
			t.Errorf("%s out-of-range row: got %v", name, err)
		}
	}
	bitKinds := map[string]func(*bitmat.Matrix, []int) error{
		"linf":      func(m *bitmat.Matrix, r []int) error { _, err := lf.UpdateRows(m, r); return err },
		"linfkappa": func(m *bitmat.Matrix, r []int) error { _, err := lk.UpdateRows(m, r); return err },
	}
	for name, upd := range bitKinds {
		if err := upd(bbBig, []int{0}); !errors.Is(err, ErrUpdateShape) {
			t.Errorf("%s dimension change: got %v", name, err)
		}
		if err := upd(bb, []int{-3}); !errors.Is(err, ErrUpdateShape) {
			t.Errorf("%s out-of-range row: got %v", name, err)
		}
	}
}

// TestUpdateRowsHHSignTransitions pins the three signedness paths of
// the hh update: staying non-negative, turning signed, and losing the
// last negative row (the signed-row count back at zero, no rescan).
func TestUpdateRowsHHSignTransitions(t *testing.T) {
	b := randomInt(940, 10, 10, 0.4, 3, true)
	o := HHOpts{Phi: 0.3, Eps: 0.15, Seed: 941}
	st, err := NewBobHHState(b, o)
	if err != nil {
		t.Fatal(err)
	}
	if st.tot.nSigned != 0 {
		t.Fatal("seed matrix should be non-negative")
	}

	// Turn signed.
	neg := b.Clone()
	neg.Set(2, 3, -5)
	stNeg, err := st.UpdateRows(neg, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if stNeg.tot.nSigned == 0 {
		t.Fatal("update introduced a negative entry but no row counts as signed")
	}
	fr, err := NewBobHHState(neg, o)
	if err != nil {
		t.Fatal(err)
	}
	if fr.tot.nSigned != stNeg.tot.nSigned || fr.tot.abs[2] != stNeg.tot.abs[2] {
		t.Fatal("signed update diverged from rebuild")
	}

	// Lose the last negative row again: the count must fall to zero.
	back, err := stNeg.UpdateRows(b, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if back.tot.nSigned != 0 {
		t.Fatal("removing the only negative row left a row counted as signed")
	}
}

// TestUpdateRowsRandomizedParity is the property-based variant: random
// matrices, random patch sets, random shard counts — incremental and
// rebuilt states of every kind must agree on what they retain and on
// transcripts for every trial; and a signed B that loses its last
// negative row, then regains one, leaves the updated states' signed-row
// count the rebuilt states'.
func TestUpdateRowsRandomizedParity(t *testing.T) {
	rnd := rand.New(rand.NewSource(950))
	for trial := 0; trial < 8; trial++ {
		n := 8 + rnd.Intn(24)
		m := 8 + rnd.Intn(24)
		shards := rnd.Intn(4)
		b := randomInt(uint64(960+trial), n, m, 0.25, 4, false)
		nPatch := 1 + rnd.Intn(4)
		rows := make([]int, nPatch)
		for i := range rows {
			rows[i] = rnd.Intn(n)
		}
		b2 := patchIntRows(uint64(970+trial), b, rows, 4, false)
		a := randomInt(uint64(980+trial), 8, n, 0.3, 3, false)

		o := LpOpts{Eps: 0.4, Seed: uint64(990 + trial), Shards: shards}
		st, err := NewBobLpState(b, 1, o)
		if err != nil {
			t.Fatal(err)
		}
		up, err := st.UpdateRows(b2, rows)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := NewBobLpState(b2, 1, o)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(up.round1, fr.round1) {
			t.Fatalf("trial %d: lp round-1 payload diverged", trial)
		}
		alice := func(tr comm.Transport) error { return AliceLp(tr, a, m, 1, o) }
		inU, outU := runRecorded(t, alice, func(tr comm.Transport) error { _, err := up.Serve(tr); return err })
		inF, outF := runRecorded(t, alice, func(tr comm.Transport) error { _, err := fr.Serve(tr); return err })
		if !bytes.Equal(inU, inF) || !bytes.Equal(outU, outF) {
			t.Fatalf("trial %d: lp transcript diverged", trial)
		}
		// Round 2 multiplies against B's per-row non-zero lists, which
		// UpdateRows rebuilds for the patched rows only: a query whose
		// every row reads every patched row of B (ρ is far above its
		// eight rows, so they are sampled) must get the rebuilt state's
		// estimate, bit for bit, at the same cost — with Alice played
		// once by the updated state's own AliceState (the families it
		// shares with Bob) and once by a fresh AliceLp.
		aHit := a.Clone()
		for i := 0; i < aHit.Rows(); i++ {
			for _, k := range rows {
				aHit.Set(i, k, int64(1+i%3))
			}
		}
		if !up.nz.Equal(fr.nz) || up.Bytes() != fr.Bytes() || up.AliceState().Bytes() != 0 {
			t.Fatalf("trial %d: lp non-zero lists or byte accounting diverged", trial)
		}
		var estU, estF float64
		costU, errU := runPair(
			func(tr comm.Transport) error { return up.AliceState().Serve(tr, aHit) },
			func(tr comm.Transport) (err error) { estU, err = up.Serve(tr); return err })
		costF, errF := runPair(
			func(tr comm.Transport) error { return AliceLp(tr, aHit, m, 1, o) },
			func(tr comm.Transport) (err error) { estF, err = fr.Serve(tr); return err })
		if errU != nil || errF != nil {
			t.Fatalf("trial %d: serve after update: %v / %v", trial, errU, errF)
		}
		if math.Float64bits(estU) != math.Float64bits(estF) || costU.Bits != costF.Bits || costU.Rounds != costF.Rounds {
			t.Fatalf("trial %d: updated state answers %v (%v), rebuilt state %v (%v)", trial, estU, costU, estF, costF)
		}
		// Serving through its own Alice charged the updated state her
		// round-1 view: n rows of reps × width Float24 words, 4 bytes each.
		if view := int64(4 * n * len(up.sketchers) * up.sketchers[0].fl.Dim()); up.Bytes() != fr.Bytes()+view {
			t.Fatalf("trial %d: after a served query the updated state holds %d bytes, the rebuilt one %d and the view %d", trial, up.Bytes(), fr.Bytes(), view)
		}

		so := L0SampleOpts{Eps: 0.5, Seed: uint64(1000 + trial), Shards: shards}
		l0, err := NewBobL0SampleState(b, so)
		if err != nil {
			t.Fatal(err)
		}
		l0up, err := l0.UpdateRows(b2, rows)
		if err != nil {
			t.Fatal(err)
		}
		l0fr, err := NewBobL0SampleState(b2, so)
		if err != nil {
			t.Fatal(err)
		}
		if !l0up.byCol.Equal(l0fr.byCol) {
			t.Fatalf("trial %d: l0sample column index diverged", trial)
		}

		// hh compresses its Lemma 2.5 factor from B's per-row non-zero
		// lists, which UpdateRows re-lists for the patched rows only: the
		// lists, the bytes they account for and the transcript they
		// produce must be the rebuilt state's.
		ho := HHOpts{Phi: 0.2, Eps: 0.1, Seed: uint64(1010 + trial), Shards: shards}
		hh, err := NewBobHHState(b, ho)
		if err != nil {
			t.Fatal(err)
		}
		hhUp, err := hh.UpdateRows(b2, rows)
		if err != nil {
			t.Fatal(err)
		}
		hhFr, err := NewBobHHState(b2, ho)
		if err != nil {
			t.Fatal(err)
		}
		if !hhUp.nz.Equal(hhFr.nz) || hhUp.Bytes() != hhFr.Bytes() || hhUp.Bytes() < int64(8*n) {
			t.Fatalf("trial %d: hh non-zero lists or byte accounting diverged", trial)
		}
		aliceHH := func(tr comm.Transport) error { return AliceHH(tr, aHit, m, false, ho) }
		inU, outU = runRecorded(t, aliceHH, func(tr comm.Transport) error { _, err := hhUp.Serve(tr, aHit.Rows(), false); return err })
		inF, outF = runRecorded(t, aliceHH, func(tr comm.Transport) error { _, err := hhFr.Serve(tr, aHit.Rows(), false); return err })
		if !bytes.Equal(inU, inF) || !bytes.Equal(outU, outF) {
			t.Fatalf("trial %d: hh transcript diverged", trial)
		}

		// The kinds that hold only B's totals (and l1sample its lists):
		// l1sample and exact on a non-negative B, linf and linfkappa on
		// its 0/1 form.
		bPos := randomInt(uint64(1020+trial), n, m, 0.25, 4, true)
		bPos2 := patchIntRows(uint64(1030+trial), bPos, rows, 4, true)
		for _, k := range bobKinds(randomInt(uint64(1040+trial), 8, n, 0.3, 3, true), m) {
			if k.name != "l1sample" && k.name != "exact" && k.name != "linf" && k.name != "linfkappa" {
				continue
			}
			st, err := k.build(bPos)
			if err != nil {
				t.Fatal(err)
			}
			up, err := k.update(st, bPos2, rows)
			if err != nil {
				t.Fatal(err)
			}
			fr, err := k.build(bPos2)
			if err != nil {
				t.Fatal(err)
			}
			if k.retained(up) != k.retained(fr) {
				t.Fatalf("trial %d: %s retains %s, rebuilt %s", trial, k.name, k.retained(up), k.retained(fr))
			}
			inU, outU := runRecorded(t, k.alice, func(tr comm.Transport) error { return k.serve(up, tr) })
			inF, outF := runRecorded(t, k.alice, func(tr comm.Transport) error { return k.serve(fr, tr) })
			if !bytes.Equal(inU, inF) || !bytes.Equal(outU, outF) {
				t.Fatalf("trial %d: %s transcript diverged", trial, k.name)
			}
		}
	}

	bPos := randomInt(1050, 16, 12, 0.3, 4, true)
	a := randomInt(1051, 8, 16, 0.3, 3, true)
	signed := bPos.Clone()
	signed.Set(5, 2, -3)
	cleared := patchIntRows(1052, signed, []int{5}, 4, true)
	regained := cleared.Clone()
	regained.Set(9, 0, -1)
	ho := HHOpts{Phi: 0.2, Eps: 0.1, Seed: 1053}
	lo := LpOpts{Eps: 0.4, Seed: 1054}
	hh, err := NewBobHHState(signed, ho)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := NewBobLpState(signed, 1, lo)
	if err != nil {
		t.Fatal(err)
	}
	for step, c := range []struct {
		next    *intmat.Dense
		rows    []int
		nSigned int
	}{{cleared, []int{5}, 0}, {regained, []int{9}, 1}} {
		if hh, err = hh.UpdateRows(c.next, c.rows); err != nil {
			t.Fatal(err)
		}
		if lp, err = lp.UpdateRows(c.next, c.rows); err != nil {
			t.Fatal(err)
		}
		hhFr, err := NewBobHHState(c.next, ho)
		if err != nil {
			t.Fatal(err)
		}
		lpFr, err := NewBobLpState(c.next, 1, lo)
		if err != nil {
			t.Fatal(err)
		}
		if hh.tot.nSigned != c.nSigned || !reflect.DeepEqual(hh.tot, hhFr.tot) || !reflect.DeepEqual(lp.tot, lpFr.tot) {
			t.Fatalf("sign step %d: %d signed rows, want %d; totals %v / %v, rebuilt %v", step, hh.tot.nSigned, c.nSigned, hh.tot, lp.tot, hhFr.tot)
		}
		// Alice is told B's signedness as the catalog would; a state that
		// misjudged it would take the other scale path than hers.
		aliceHH := func(tr comm.Transport) error { return AliceHH(tr, a, c.next.Cols(), c.nSigned == 0, ho) }
		inU, outU := runRecorded(t, aliceHH, func(tr comm.Transport) error { _, err := hh.Serve(tr, a.Rows(), true); return err })
		inF, outF := runRecorded(t, aliceHH, func(tr comm.Transport) error { _, err := hhFr.Serve(tr, a.Rows(), true); return err })
		if !bytes.Equal(inU, inF) || !bytes.Equal(outU, outF) {
			t.Fatalf("sign step %d: hh transcript diverged", step)
		}
		aliceLp := func(tr comm.Transport) error { return AliceLp(tr, a, c.next.Cols(), 1, lo) }
		inU, outU = runRecorded(t, aliceLp, func(tr comm.Transport) error { _, err := lp.Serve(tr); return err })
		inF, outF = runRecorded(t, aliceLp, func(tr comm.Transport) error { _, err := lpFr.Serve(tr); return err })
		if !bytes.Equal(inU, inF) || !bytes.Equal(outU, outF) {
			t.Fatalf("sign step %d: lp transcript diverged", step)
		}
	}
}
