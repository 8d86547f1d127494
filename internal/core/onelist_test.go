package core

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/comm"
)

// What the one-list refactor must leave alone, checked where the edits
// are: AliceHH reads one listing of A where it used to scan the dense A
// four times, and an hh state's nested Algorithm 1 state borrows the hh
// state's lists of B.

// sendRecorder is a party's transport that keeps a digest of every
// message the party sends.
type sendRecorder struct {
	comm.Transport
	sent []string
}

func (r *sendRecorder) Send(dir comm.Direction, msg *comm.Message) *comm.Message {
	r.sent = append(r.sent, fmt.Sprintf("%x", sha256.Sum256(msg.Bytes()))[:16])
	return r.Transport.Send(dir, msg)
}

// TestAliceHHMessagesMatchDenseScans: every message AliceHH sends is
// byte-equal to the one the four dense scans produced — the digests were
// printed by this test run against that implementation — on a signed A
// (column sums, the nested Algorithm 1 sample, candidates), on a
// non-negative pair that takes the exact-scale shortcut, and on a
// product heavy enough that β < 1 and the private coins decide what is
// recovered.
func TestAliceHHMessagesMatchDenseScans(t *testing.T) {
	for _, c := range []struct {
		name       string
		seedA      uint64
		m1, n, m2  int
		density    float64
		maxAbs     int64
		nonNeg     bool
		o          HHOpts
		wantDigest []string
	}{
		{"signed-nested-lp", 4000, 28, 24, 30, 0.2, 3, false, HHOpts{Phi: 0.2, Eps: 0.1, P: 1, Seed: 4100},
			[]string{"36dca3d48a2afcb7", "21f66a59b7a9697e", "ee1834ffbc0b9353"}},
		{"nonneg-shortcut", 4002, 24, 24, 24, 0.25, 3, true, HHOpts{Phi: 0.1, Eps: 0.05, P: 1, Seed: 4101},
			[]string{"949bf35e916cd27a", "0e9e436eaf03f105"}},
		{"sampled-beta-below-1", 4004, 32, 32, 32, 0.5, 40, true, HHOpts{Phi: 0.05, Eps: 0.05, P: 1, Seed: 4102},
			[]string{"39157c5372a07251", "6e340b9cffb37a98"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			a := randomInt(c.seedA, c.m1, c.n, c.density, c.maxAbs, c.nonNeg)
			b := randomInt(c.seedA+1, c.n, c.m2, c.density, c.maxAbs, c.nonNeg)
			var rec *sendRecorder
			_, err := runPair(
				func(tr comm.Transport) error {
					rec = &sendRecorder{Transport: tr}
					return AliceHH(rec, a, c.m2, c.nonNeg, c.o)
				},
				func(tr comm.Transport) error {
					_, err := BobHH(tr, b, c.m1, c.nonNeg, c.o)
					return err
				})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(rec.sent) != fmt.Sprint(c.wantDigest) {
				t.Fatalf("Alice's messages digest to %q, the dense scans' to %q", rec.sent, c.wantDigest)
			}
		})
	}
}

// TestBobHHNestedStateBorrowsList: the nested Algorithm 1 state of an hh
// state multiplies against the hh state's own lists — built, and carried
// through UpdateRows — so B is listed once however many states read it
// and Bytes leaves the lists to their owner, as a state rebuilt on the
// updated matrix does.
func TestBobHHNestedStateBorrowsList(t *testing.T) {
	b := randomInt(4200, 20, 22, 0.2, 3, false)
	o := HHOpts{Phi: 0.2, Eps: 0.1, Seed: 4201}
	st, err := NewBobHHState(b, o)
	if err != nil {
		t.Fatal(err)
	}
	bare := st.Bytes()
	nested, err := st.nestedLp()
	if err != nil {
		t.Fatal(err)
	}
	if nested.nz != st.nz {
		t.Fatal("the nested state listed B again")
	}
	if got, want := st.Bytes(), bare+nested.Bytes(); got != want {
		t.Fatalf("Bytes() = %d with the nested state built, want %d: the borrowed lists are their owner's", got, want)
	}
	cur := b
	for step, rows := range [][]int{{3}, {0, 19}, {3, 3, 7}} {
		next := patchIntRows(uint64(4210+step), cur, rows, 3, false)
		if step == 1 {
			for j := 0; j < next.Cols(); j++ {
				next.Set(0, j, 0) // a row emptied
			}
		}
		if st, err = st.UpdateRows(next, rows); err != nil {
			t.Fatal(err)
		}
		if st.nested == nil || st.nested.nz != st.nz {
			t.Fatalf("step %d: the updated nested state does not share the updated hh state's lists", step)
		}
		fresh, err := NewBobHHState(next, o)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.nestedLp(); err != nil {
			t.Fatal(err)
		}
		if !st.nz.Equal(fresh.nz) || st.Bytes() != fresh.Bytes() {
			t.Fatalf("step %d: updated state %d bytes, rebuilt %d", step, st.Bytes(), fresh.Bytes())
		}
		cur = next
	}
}
