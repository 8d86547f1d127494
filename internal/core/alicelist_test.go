package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/intmat"
	"repro/internal/rng"
)

// Each Alice driver has one body, on the non-zero lists of her matrix,
// and a Dense-taking name that lists the matrix and calls it. The engine
// hands the body a listing made from wire cells in whatever order they
// came; the harness and the in-process pairs call the Dense name. Both
// must put the same bytes on the wire.

// wireListing lists d the way a request's matrix is listed: from its
// non-zero cells and a few explicit zeros, shuffled.
func wireListing(t *testing.T, seed uint64, d *intmat.Dense) *intmat.Sparse {
	t.Helper()
	r := rng.New(seed)
	var cells [][3]int64
	for i := 0; i < d.Rows(); i++ {
		for j, v := range d.Row(i) {
			if v != 0 || r.Bernoulli(0.05) {
				cells = append(cells, [3]int64{int64(i), int64(j), v})
			}
		}
	}
	for x := len(cells) - 1; x > 0; x-- {
		y := int(r.Int63n(int64(x + 1)))
		cells[x], cells[y] = cells[y], cells[x]
	}
	s, _, _, err := intmat.FromCells(d.Rows(), d.Cols(), cells)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAliceListDriversMatchDenseAdapters runs all seven kinds twice over
// one Bob — Alice through the Dense name, then through the list-taking
// body on a shuffled-cell listing — on a signed matrix, a non-negative
// one with rows and a column emptied, and a 0/1 one, and requires the
// same messages from Alice, the same output at Bob and the same error.
func TestAliceListDriversMatchDenseAdapters(t *testing.T) {
	const m1, n, m2 = 20, 24, 22
	const seed = 5100
	b := randomInt(seed+1, n, m2, 0.25, 3, true)
	bBits := randomBinary(seed+2, n, m2, 0.3)
	aBits := randomBinary(seed+5, m1, n, 0.3)
	emptied := randomInt(seed+4, m1, n, 0.3, 3, true)
	for j := 0; j < n; j++ {
		emptied.Set(0, j, 0)
		emptied.Set(7, j, 0)
		emptied.Set(m1-1, j, 0)
	}
	for i := 0; i < m1; i++ {
		emptied.Set(i, 3, 0)
	}
	lpO := LpOpts{Eps: 0.5, Seed: seed + 10}
	l0O := L0SampleOpts{Eps: 0.5, Seed: seed + 11}
	hhO := HHOpts{Phi: 0.2, Eps: 0.1, P: 1, Seed: seed + 12}
	linfO := LinfOpts{Eps: 0.5, Seed: seed + 13}
	kappaO := LinfKappaOpts{Kappa: 4, Seed: seed + 14}
	lpAlice, err := NewAliceLpState(m2, 1, lpO)
	if err != nil {
		t.Fatal(err)
	}

	type party = func(comm.Transport) error
	type kind struct {
		name          string
		dense, sparse party // Alice through the Dense name, and on the listing
		bob           party
	}
	for _, in := range []struct {
		name           string
		a              *intmat.Dense
		nonNeg, binary bool
	}{
		{"signed", randomInt(seed+3, m1, n, 0.25, 4, false), false, false},
		{"non-negative, empty rows and column", emptied, true, false},
		{"binary", aBits.ToInt(), true, true},
	} {
		a, as := in.a, wireListing(t, seed+6, in.a)
		if !as.Equal(intmat.FromDense(a)) {
			t.Fatalf("%s: the shuffled-cell listing is not FromDense's", in.name)
		}
		var out any // Bob's output of the run in progress
		kinds := []kind{
			{"lp",
				func(tr comm.Transport) error { return lpAlice.Serve(tr, a) },
				func(tr comm.Transport) error { return lpAlice.Serve(tr, as) },
				func(tr comm.Transport) (err error) { out, err = BobLp(tr, b, 1, lpO); return err }},
			{"l0sample",
				func(tr comm.Transport) error { return AliceL0Sample(tr, a, l0O) },
				func(tr comm.Transport) error { return AliceL0Sample(tr, as, l0O) },
				func(tr comm.Transport) error {
					pair, v, err := BobL0Sample(tr, b, m1, l0O)
					out = fmt.Sprint(pair, v)
					return err
				}},
			{"l1sample",
				func(tr comm.Transport) error { return AliceSampleL1(tr, a, seed) },
				func(tr comm.Transport) error { return AliceSampleL1(tr, as, seed) },
				func(tr comm.Transport) error {
					i, j, w, err := BobSampleL1(tr, b, seed)
					out = fmt.Sprint(i, j, w)
					return err
				}},
			{"exact",
				func(tr comm.Transport) error { return AliceExactL1(tr, a) },
				func(tr comm.Transport) error { return AliceExactL1(tr, as) },
				func(tr comm.Transport) (err error) { out, err = BobExactL1(tr, b); return err }},
			{"hh",
				func(tr comm.Transport) error { return AliceHH(tr, a, m2, true, hhO) },
				func(tr comm.Transport) error { return AliceHH(tr, as, m2, true, hhO) },
				func(tr comm.Transport) (err error) { out, err = BobHH(tr, b, m1, in.nonNeg, hhO); return err }},
		}
		if in.binary {
			kinds = append(kinds,
				kind{"linf",
					func(tr comm.Transport) error { return AliceLinf(tr, aBits, m2, linfO) },
					func(tr comm.Transport) error { return AliceLinfSparse(tr, as, m2, linfO) },
					func(tr comm.Transport) error {
						est, arg, err := BobLinf(tr, bBits, m1, linfO)
						out = fmt.Sprint(est, arg)
						return err
					}},
				kind{"linfkappa",
					func(tr comm.Transport) error { return AliceLinfKappa(tr, aBits, m2, kappaO) },
					func(tr comm.Transport) error { return AliceLinfKappaSparse(tr, as, m2, kappaO) },
					func(tr comm.Transport) error {
						est, arg, err := BobLinfKappa(tr, bBits, m1, kappaO)
						out = fmt.Sprint(est, arg)
						return err
					}},
			)
		}
		for _, k := range kinds {
			run := func(alice party) (sent []string, result string, err error) {
				var rec *sendRecorder
				out = nil
				_, err = runPair(func(tr comm.Transport) error {
					rec = &sendRecorder{Transport: tr}
					return alice(rec)
				}, k.bob)
				return rec.sent, fmt.Sprint(out), err
			}
			wantSent, wantOut, wantErr := run(k.dense)
			gotSent, gotOut, gotErr := run(k.sparse)
			if fmt.Sprint(gotSent) != fmt.Sprint(wantSent) || gotOut != wantOut || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("%s, %s: the list-taking driver sent %q → %s (%v), the Dense name %q → %s (%v)",
					in.name, k.name, gotSent, gotOut, gotErr, wantSent, wantOut, wantErr)
			}
			needsNonNeg := k.name == "exact" || k.name == "l1sample"
			switch {
			case needsNonNeg && !in.nonNeg:
				if !errors.Is(gotErr, ErrNeedNonNegative) || len(gotSent) != 0 {
					t.Errorf("%s, %s: a signed matrix sent %d messages, err %v", in.name, k.name, len(gotSent), gotErr)
				}
			case gotErr != nil && !errors.Is(gotErr, ErrSampleFailed):
				t.Errorf("%s, %s: %v", in.name, k.name, gotErr)
			case len(gotSent) == 0:
				t.Errorf("%s, %s: Alice sent nothing", in.name, k.name)
			}
		}
	}
}

// denseAliceL1Messages is what Alice's two ℓ1 drivers sent while they
// read the dense matrix cell by cell — the column sums of Remark 2, and
// Remark 3's sums with a value-weighted row pick per column, 2·rows·cols
// a.Get calls — kept as the reference the list walks must reproduce,
// private coins included.
func denseAliceL1Messages(a *intmat.Dense, seed uint64) (exact, sample []byte) {
	ex, sm := comm.NewMessage(), comm.NewMessage()
	alicePriv := rng.New(seed).Derive("alice-private", "l1sample")
	for k := 0; k < a.Cols(); k++ {
		var sum int64
		for i := 0; i < a.Rows(); i++ {
			sum += a.Get(i, k)
		}
		ex.PutUvarint(uint64(sum))
		sm.PutUvarint(uint64(sum))
		pick := -1
		if sum > 0 {
			target := alicePriv.Int63n(sum)
			var acc int64
			for i := 0; i < a.Rows(); i++ {
				acc += a.Get(i, k)
				if acc > target {
					pick = i
					break
				}
			}
		}
		sm.PutVarint(int64(pick))
	}
	return ex.Bytes(), sm.Bytes()
}

// TestAliceL1ListWalksMatchDenseScans: exact's column sums and
// l1sample's picks, read off the lists (l1sample's off the transposed
// one), are byte for byte the dense scans' — over seeds, shapes, a
// matrix with empty columns and one with none.
func TestAliceL1ListWalksMatchDenseScans(t *testing.T) {
	for c, shape := range []struct {
		m1, n   int
		density float64
		maxAbs  int64
	}{
		{20, 24, 0.25, 3}, {1, 30, 0.5, 9}, {30, 1, 0.5, 9}, {16, 16, 1, 2}, {12, 40, 0.03, 1 << 40},
	} {
		for s := uint64(0); s < 8; s++ {
			seed := 5200 + 16*uint64(c) + s
			a := randomInt(seed, shape.m1, shape.n, shape.density, shape.maxAbs, true)
			as := wireListing(t, seed+8, a)
			wantExact, wantSample := denseAliceL1Messages(a, seed)
			for _, k := range []struct {
				name  string
				alice func(comm.Transport) error
				want  []byte
			}{
				{"exact", func(tr comm.Transport) error { return AliceExactL1(tr, as) }, wantExact},
				{"l1sample", func(tr comm.Transport) error { return AliceSampleL1(tr, as, seed) }, wantSample},
			} {
				var got []byte
				_, err := runPair(k.alice, func(tr comm.Transport) error {
					got = tr.Recv(comm.AliceToBob).Bytes()
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(k.want) {
					t.Fatalf("%s, %d×%d seed %d: the list walk's message differs from the dense scan's", k.name, shape.m1, shape.n, seed)
				}
			}
		}
	}
}
