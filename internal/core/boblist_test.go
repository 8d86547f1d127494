package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/comm"
	"repro/internal/intmat"
)

// A Bob state has one build, on B's non-zero lists; a caller that holds B
// dense gets it listed on entry. These tests pin "replaced, not forked":
// a state built from lists the way a serving tier makes them — FromCells
// of shuffled wire cells, explicit zeros among them, advanced by Patch —
// and one built from the *Dense of the same matrix are the same state.

// bobKind drives one kind's Bob state through the test: build, the
// state's retained precomputation rendered for comparison, its advance
// to a successor matrix, a served run, and the list it retains (nil for
// a kind that keeps none of B's).
type bobKind struct {
	name     string
	build    func(b intmat.Matrix) (any, error)
	retained func(st any) string
	update   func(st any, nb intmat.Matrix, rows []int) (any, error)
	alice    func(tr comm.Transport) error
	serve    func(st any, tr comm.Transport) error
	borrowed func(st any) []*intmat.Sparse
}

func bobKinds(a *intmat.Dense, m2 int) []bobKind {
	m1 := a.Rows()
	aBits := bitmat.FromSparse(intmat.FromDense(a))
	lpO := LpOpts{Eps: 0.4, Seed: 7100, Shards: 2}
	l0O := L0SampleOpts{Eps: 0.5, Seed: 7101}
	hhO := HHOpts{Phi: 0.2, Eps: 0.1, P: 1, Seed: 7102}
	linfO := LinfOpts{Eps: 0.5, Seed: 7103}
	kappaO := LinfKappaOpts{Kappa: 4, Seed: 7104}
	bits := func(b intmat.Matrix) *bitmat.Matrix { return bitmat.FromSparse(b.List()) }
	return []bobKind{
		{"lp",
			func(b intmat.Matrix) (any, error) { return NewBobLpState(b, 1, lpO) },
			func(st any) string { s := st.(*BobLpState); return fmt.Sprintf("%x %d", s.round1, s.Bytes()) },
			func(st any, nb intmat.Matrix, rows []int) (any, error) { return st.(*BobLpState).UpdateRows(nb, rows) },
			func(tr comm.Transport) error { return AliceLp(tr, a, m2, 1, lpO) },
			func(st any, tr comm.Transport) error { _, err := st.(*BobLpState).Serve(tr); return err },
			func(st any) []*intmat.Sparse { return []*intmat.Sparse{st.(*BobLpState).nz} }},
		{"l0sample",
			func(b intmat.Matrix) (any, error) { return NewBobL0SampleState(b, l0O) },
			func(st any) string {
				s := st.(*BobL0SampleState)
				return fmt.Sprint(s.byCol.Entries(), s.Bytes())
			},
			func(st any, nb intmat.Matrix, rows []int) (any, error) {
				return st.(*BobL0SampleState).UpdateRows(nb, rows)
			},
			func(tr comm.Transport) error { return AliceL0Sample(tr, a, l0O) },
			func(st any, tr comm.Transport) error {
				_, _, err := st.(*BobL0SampleState).Serve(tr, m1)
				if errors.Is(err, ErrSampleFailed) {
					err = nil // an outcome, played identically by both states
				}
				return err
			},
			func(any) []*intmat.Sparse { return nil }},
		{"l1sample",
			func(b intmat.Matrix) (any, error) { return NewBobL1SampleState(b, 2) },
			func(st any) string { s := st.(*BobL1SampleState); return fmt.Sprint(s.rowSums, s.Bytes()) },
			func(st any, nb intmat.Matrix, rows []int) (any, error) {
				return st.(*BobL1SampleState).UpdateRows(nb, rows)
			},
			func(tr comm.Transport) error { return AliceSampleL1(tr, a, 7105) },
			func(st any, tr comm.Transport) error {
				_, _, _, err := st.(*BobL1SampleState).Serve(tr, 7105)
				if errors.Is(err, ErrSampleFailed) {
					err = nil
				}
				return err
			},
			func(st any) []*intmat.Sparse { return []*intmat.Sparse{st.(*BobL1SampleState).b} }},
		{"exact",
			func(b intmat.Matrix) (any, error) { return NewBobExactL1State(b, 2) },
			func(st any) string { s := st.(*BobExactL1State); return fmt.Sprint(s.rowSums, s.Bytes()) },
			func(st any, nb intmat.Matrix, rows []int) (any, error) {
				return st.(*BobExactL1State).UpdateRows(nb, rows)
			},
			func(tr comm.Transport) error { return AliceExactL1(tr, a) },
			func(st any, tr comm.Transport) error { _, err := st.(*BobExactL1State).Serve(tr); return err },
			func(any) []*intmat.Sparse { return nil }},
		{"hh",
			func(b intmat.Matrix) (any, error) { return NewBobHHState(b, hhO) },
			func(st any) string {
				s := st.(*BobHHState)
				return fmt.Sprint(s.absRowSums, s.bNonNeg, s.Bytes())
			},
			func(st any, nb intmat.Matrix, rows []int) (any, error) { return st.(*BobHHState).UpdateRows(nb, rows) },
			// Alice is told B is signed, so every run takes the nested
			// Algorithm 1 and the state builds (then carries) it.
			func(tr comm.Transport) error { return AliceHH(tr, a, m2, false, hhO) },
			func(st any, tr comm.Transport) error { _, err := st.(*BobHHState).Serve(tr, m1, false); return err },
			func(st any) []*intmat.Sparse {
				s := st.(*BobHHState)
				if s.nested == nil {
					return []*intmat.Sparse{s.nz}
				}
				return []*intmat.Sparse{s.nz, s.nested.nz}
			}},
		{"linf",
			func(b intmat.Matrix) (any, error) { return NewBobLinfState(bits(b), linfO) },
			func(st any) string { s := st.(*BobLinfState); return fmt.Sprint(s.vk, s.Bytes()) },
			func(st any, nb intmat.Matrix, rows []int) (any, error) {
				return st.(*BobLinfState).UpdateRows(bits(nb), rows)
			},
			func(tr comm.Transport) error { return AliceLinf(tr, aBits, m2, linfO) },
			func(st any, tr comm.Transport) error { _, _, err := st.(*BobLinfState).Serve(tr, m1); return err },
			func(any) []*intmat.Sparse { return nil }},
		{"linfkappa",
			func(b intmat.Matrix) (any, error) { return NewBobLinfKappaState(bits(b), kappaO) },
			func(st any) string { s := st.(*BobLinfKappaState); return fmt.Sprint(s.vk, s.Bytes()) },
			func(st any, nb intmat.Matrix, rows []int) (any, error) {
				return st.(*BobLinfKappaState).UpdateRows(bits(nb), rows)
			},
			func(tr comm.Transport) error { return AliceLinfKappa(tr, aBits, m2, kappaO) },
			func(st any, tr comm.Transport) error {
				_, _, err := st.(*BobLinfKappaState).Serve(tr, m1)
				return err
			},
			func(any) []*intmat.Sparse { return nil }},
	}
}

// TestBobStatesFromListsMatchDense: for all seven kinds, on a signed, a
// non-negative and a 0/1 matrix, each with emptied rows, the state built
// from serving-tier lists and the one built from the *Dense retain the
// same precomputation (round-1 bytes, totals, Bytes()) and play
// byte-identical transcripts — as built, and after each of three
// UpdateRows, the list-built state advanced with Patch successors of its
// own lists (which it must borrow, not copy) and the dense-built one
// with the successor dense. A kind that refuses the matrix refuses it
// from both forms alike.
func TestBobStatesFromListsMatchDense(t *testing.T) {
	const n, m2 = 22, 20
	a := randomBinary(7000, 18, n, 0.3).ToInt()
	for _, in := range []struct {
		name   string
		b      *intmat.Dense
		maxAbs int64
		nonNeg bool
	}{
		{"signed", randomInt(7001, n, m2, 0.25, 3, false), 3, false},
		{"non-negative", randomInt(7002, n, m2, 0.25, 3, true), 3, true},
		{"0/1", randomBinary(7003, n, m2, 0.3).ToInt(), 1, true},
	} {
		clear(in.b.Row(5)) // an empty row from the start
		for _, k := range bobKinds(a, m2) {
			binaryKind := k.name == "linf" || k.name == "linfkappa"
			if binaryKind && in.maxAbs != 1 {
				continue // the bit form of a non-0/1 matrix is not that matrix
			}
			curD, curL := in.b, wireListing(t, 7010, in.b)
			stD, errD := k.build(curD)
			stL, errL := k.build(curL)
			if fmt.Sprint(errD) != fmt.Sprint(errL) {
				t.Fatalf("%s, %s: built from the dense form: %v, from its lists: %v", in.name, k.name, errD, errL)
			}
			if errD != nil {
				if in.nonNeg || (k.name != "exact" && k.name != "l1sample") {
					t.Fatalf("%s, %s: %v", in.name, k.name, errD)
				}
				continue
			}
			check := func(when string) {
				t.Helper()
				if d, l := k.retained(stD), k.retained(stL); d != l {
					t.Fatalf("%s, %s, %s: the list-built state retains\n%s\nthe dense-built one\n%s", in.name, k.name, when, l, d)
				}
				inD, outD := runRecorded(t, k.alice, func(tr comm.Transport) error { return k.serve(stD, tr) })
				inL, outL := runRecorded(t, k.alice, func(tr comm.Transport) error { return k.serve(stL, tr) })
				if !bytes.Equal(inD, inL) || !bytes.Equal(outD, outL) {
					t.Fatalf("%s, %s, %s: the two states' transcripts differ", in.name, k.name, when)
				}
				for _, l := range k.borrowed(stL) {
					if l != curL {
						t.Fatalf("%s, %s, %s: the state copied the lists it was given", in.name, k.name, when)
					}
				}
			}
			check("as built")
			for step, rows := range [][]int{{3}, {0, 19}, {3, 3, 7}} {
				nextD := patchIntRows(uint64(7020+step), curD, rows, in.maxAbs, in.nonNeg)
				if step == 1 {
					clear(nextD.Row(0)) // a row emptied by the update; row 5 refilled below
					for j := 0; j < m2; j += 3 {
						nextD.Set(5, j, 1)
					}
					rows = append(rows, 5)
				}
				var patches []intmat.RowPatch
				for x, r := range rows {
					if x > 0 && r == rows[x-1] {
						continue // Patch takes a row once; UpdateRows takes the caller's list as it is
					}
					p := intmat.RowPatch{Row: r}
					for j, v := range nextD.Row(r) {
						if v != 0 || j%7 == 0 { // with explicit zeros
							p.Cells = append(p.Cells, [2]int64{int64(j), v})
						}
					}
					patches = append(patches, p)
				}
				nextL := curL.Patch(patches, false)
				var err error
				if stD, err = k.update(stD, nextD, rows); err != nil {
					t.Fatalf("%s, %s, step %d: %v", in.name, k.name, step, err)
				}
				if stL, err = k.update(stL, nextL, rows); err != nil {
					t.Fatalf("%s, %s, step %d: %v", in.name, k.name, step, err)
				}
				curD, curL = nextD, nextL
				check(fmt.Sprintf("after update %d", step))
			}
		}
	}
}
