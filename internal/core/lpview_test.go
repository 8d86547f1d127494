package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/intmat"
	"repro/internal/rng"
)

// refGroupAndSample is Algorithm 1's group-and-sample step as a map of
// (1+β)-geometric groups keyed by level, visited in sorted key order:
// the reference groupAndSample's counting sort must match pick for pick
// and coin for coin.
func refGroupAndSample(rowEst []float64, beta, rho float64, priv *rng.RNG) []weightedPick {
	total := 0.0
	for _, e := range rowEst {
		total += e
	}
	type group struct {
		members []int
		sum     float64
	}
	groups := map[int]*group{}
	logBase := math.Log(1 + beta)
	for i, e := range rowEst {
		if e <= 0 {
			continue
		}
		ell := int(math.Floor(math.Log(math.Max(e, 1)) / logBase))
		g := groups[ell]
		if g == nil {
			g = &group{}
			groups[ell] = g
		}
		g.members = append(g.members, i)
		g.sum += e
	}
	keys := make([]int, 0, len(groups))
	for ell := range groups {
		keys = append(keys, ell)
	}
	sort.Ints(keys)
	var picks []weightedPick
	for _, key := range keys {
		g := groups[key]
		pl := 1.0
		if total > 0 {
			pl = math.Min(1, rho/float64(len(g.members))*(g.sum/total))
		}
		for _, i := range g.members {
			if priv.Bernoulli(pl) {
				picks = append(picks, weightedPick{i: i, weight: 1 / pl})
			}
		}
	}
	return picks
}

// TestGroupAndSampleMatchesMapGrouping: grouping by a counting sort over
// the levels rowNorms computes picks the rows, with the weights, that
// the map of groups picked, and leaves Alice's private stream where the
// map left it — on estimates with zeros, values below 1, ties, a spread
// over 300 orders of magnitude and a single level, at four β.
func TestGroupAndSampleMatchesMapGrouping(t *testing.T) {
	rnd := rand.New(rand.NewSource(3100))
	for trial := 0; trial < 400; trial++ {
		beta := []float64{0.1, 0.5, 1, math.Sqrt(0.01)}[trial%4]
		est := make([]float64, 1+rnd.Intn(600))
		for i := range est {
			switch rnd.Intn(6) {
			case 0: // an empty row
			case 1:
				est[i] = rnd.Float64()
			case 2:
				est[i] = est[rnd.Intn(i+1)]
			case 3:
				est[i] = math.Pow(10, 300*rnd.Float64())
			default:
				est[i] = math.Floor(1 + 1000*rnd.ExpFloat64())
			}
		}
		if trial%50 == 0 {
			clear(est) // no row to sample
		}
		logBase := math.Log(1 + beta)
		level := make([]int, len(est))
		for i, e := range est {
			level[i] = int(math.Floor(math.Log(math.Max(e, 1)) / logBase))
		}
		rho := 10 + 300*rnd.Float64()
		gotPriv, wantPriv := rng.New(uint64(trial)), rng.New(uint64(trial))
		got := groupAndSample(est, level, rho, gotPriv)
		want := refGroupAndSample(est, beta, rho, wantPriv)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d picks, the map grouping's %d", trial, len(got), len(want))
		}
		for x := range got {
			if got[x].i != want[x].i || math.Float64bits(got[x].weight) != math.Float64bits(want[x].weight) {
				t.Fatalf("trial %d pick %d: %+v, the map grouping's %+v", trial, x, got[x], want[x])
			}
		}
		if g, w := gotPriv.Uint64(), wantPriv.Uint64(); g != w {
			t.Fatalf("trial %d: private stream left at %x, the map grouping's at %x", trial, g, w)
		}
	}
}

// lpRun is one Algorithm 1 run's outcome: Bob's estimate and the bytes
// Alice sent in round 2.
type lpRun struct {
	est    uint64
	round2 string
}

// serveLp runs alice against bob over an in-process pair.
func serveLp(alice *AliceLpState, bob *BobLpState, a *intmat.Sparse) (lpRun, error) {
	var run lpRun
	_, err := runPair(
		func(tr comm.Transport) error { return alice.Serve(&round2Tap{Transport: tr, sent: &run.round2}, a) },
		func(tr comm.Transport) error {
			est, err := bob.Serve(tr)
			run.est = math.Float64bits(est)
			return err
		})
	return run, err
}

// round2Tap records the payload Alice sends.
type round2Tap struct {
	comm.Transport
	sent *string
}

func (r *round2Tap) Send(dir comm.Direction, msg *comm.Message) *comm.Message {
	*r.sent = string(msg.Bytes())
	return r.Transport.Send(dir, msg)
}

// TestAliceLpViewConcurrentServes: a Bob state and its UpdateRows
// successor each hand out one Alice state, and both Alices serve both
// Bobs from many goroutines at once — every query a view hit or a
// miss that replaces the view under the others — with every estimate
// and every round 2 those of fresh states built from scratch on the
// matrix that Bob serves. The successor's Alice starts without a view.
func TestAliceLpViewConcurrentServes(t *testing.T) {
	const n = 48
	b := randomInt(3110, n, 40, 0.3, 3, false)
	as := []*intmat.Sparse{
		randomInt(3111, 30, n, 0.2, 3, false).List(),
		randomInt(3112, 20, n, 0.3, 3, true).List(),
	}
	rows := []int{1, 7, 30}
	after := patchIntRows(3113, b, rows, 3, false)
	for _, p := range []float64{0, 1, 2} {
		t.Run(fmt.Sprintf("p=%g", p), func(t *testing.T) {
			o := LpOpts{Eps: 0.3, Seed: 3114, Shards: 2}
			parent, err := NewBobLpState(b, p, o)
			if err != nil {
				t.Fatal(err)
			}
			child, err := parent.UpdateRows(after, rows)
			if err != nil {
				t.Fatal(err)
			}
			if child.AliceState() == parent.AliceState() || child.AliceState().view.Load() != nil {
				t.Fatal("the successor shares its parent's Alice or starts with a view")
			}
			bobs := []*BobLpState{parent, child}
			want := map[[2]int]lpRun{} // (Bob, A) → the from-scratch run
			for bi, m := range []*intmat.Dense{b, after} {
				for ai, a := range as {
					bob, err := NewBobLpState(m, p, o)
					if err != nil {
						t.Fatal(err)
					}
					alice, err := NewAliceLpState(m.Cols(), p, o)
					if err != nil {
						t.Fatal(err)
					}
					if want[[2]int{bi, ai}], err = serveLp(alice, bob, a); err != nil {
						t.Fatal(err)
					}
				}
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for q := 0; q < 12; q++ {
						bi, ai := (g+q)%2, (g/2+q)%2
						alice := bobs[(g+q/3)%2].AliceState()
						got, err := serveLp(alice, bobs[bi], as[ai])
						if err != nil {
							t.Error(err)
							return
						}
						if got != want[[2]int{bi, ai}] {
							t.Errorf("goroutine %d query %d: Bob %d, A %d: a run differs from the from-scratch one", g, q, bi, ai)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestBobLpRefusesMalformedRound2: Bob steps over each sample's row and
// decodes each distinct row once, in the sharded pass, so a row whose
// columns repeat or leave B is refused there — sent once or repeated
// across repetitions, after 40 well-formed rows, at every shard count —
// and a row past the 2⁶³ overflow bound earlier in the same shard does
// not turn the refusal into ErrOverflow.
func TestBobLpRefusesMalformedRound2(t *testing.T) {
	const (
		inner = 30
		reps  = 3
	)
	b := randomInt(3120, inner, 20, 0.3, 3, true)
	b.Set(0, 0, 1<<61) // row 0's total passes 2⁶¹
	nz := b.List()
	tot := newRowTotals(nz.Rows(), 1, listTotal(nz))
	a := randomInt(3121, 40, inner, 0.2, 3, true).List()
	type raw struct{ gaps, vals []int64 }
	bad := map[string]raw{
		"a repeated column": {[]int64{2, 0}, []int64{1, 1}},
		"a column past B":   {[]int64{3, inner}, []int64{1, 1}},
	}
	for name, row := range bad {
		for _, copies := range []int{1, reps} {
			for _, overflow := range []bool{false, true} {
				msg := comm.NewMessage()
				for rep := 0; rep < reps; rep++ {
					n := a.Rows()
					if rep < copies {
						n++
					}
					if overflow {
						n++
					}
					msg.PutUvarint(uint64(n))
					if overflow { // first: 8·2⁶¹ reaches 2⁶³
						msg.PutUvarint(1000)
						msg.PutFloat64(1)
						putSparseRow(msg, []int32{0}, []int64{8})
					}
					for i := 0; i < a.Rows(); i++ {
						msg.PutUvarint(uint64(i))
						msg.PutFloat64(2)
						cols, vals := a.Row(i)
						putSparseRow(msg, cols, vals)
					}
					if rep < copies {
						msg.PutUvarint(1001)
						msg.PutFloat64(1)
						msg.PutUvarint(uint64(len(row.gaps)))
						for x, d := range row.gaps {
							msg.PutUvarint(uint64(d))
							msg.PutVarint(row.vals[x])
						}
					}
				}
				for _, shards := range []int{1, 2, 4} {
					err := func() (err error) {
						defer recoverDecodeError(&err)
						_, err = sampledRowSums(nz, tot, comm.FromBytes(msg.Bytes()), reps, 1, shards)
						return err
					}()
					if err == nil || !strings.Contains(err.Error(), "core: malformed protocol message") {
						t.Errorf("%s, %d copies, overflow %v, shards %d: %v, want a malformed-message error", name, copies, overflow, shards, err)
					}
				}
			}
		}
	}
}
