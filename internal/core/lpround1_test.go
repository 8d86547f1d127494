package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/comm"
	"repro/internal/intmat"
	"repro/internal/rng"
)

// The reference for round 1's Float24 words: Algorithm 1 with Bob's row
// sketches kept at full float64 precision, as the 8-byte layout carried
// them — the same sketch families, the same float sums in the same
// order, Alice's same private coins and Bob's same round 2.

// refSketches returns Bob's unrounded sketch of every row of b for every
// repetition: ys[rep][k]. It adds each coordinate as v times the sketch
// of the unit vector, drawn once per column: AddCoord adds v·s or ±v for
// a word s of that sketch, so every sum is the one AddCoord makes, bit
// for bit, for one hash evaluation a column instead of one a non-zero.
func refSketches(sketchers []rowSketcher, b *intmat.Sparse) [][][]float64 {
	ys := make([][][]float64, len(sketchers))
	for rep, rs := range sketchers {
		units := make([][]float64, b.Cols())
		ys[rep] = make([][]float64, b.Rows())
		for k := range ys[rep] {
			y := make([]float64, rs.fl.Dim())
			cols, vals := b.Row(k)
			for x, j := range cols {
				if units[j] == nil {
					units[j] = make([]float64, len(y))
					rs.fl.AddCoord(units[j], int(j), 1)
				}
				for r, u := range units[j] {
					y[r] += float64(vals[x]) * u
				}
			}
			ys[rep][k] = y
		}
	}
	return ys
}

// refCombine is the float64 sketch of row (cols, vals) of A times B in
// one repetition: Σ_k a_k·y_k, each word its own sum in column order.
func refCombine(ys [][]float64, cols []int32, vals []int64) []float64 {
	acc := make([]float64, len(ys[0]))
	for t, k := range cols {
		for j, y := range ys[k] {
			acc[j] += float64(vals[t]) * y
		}
	}
	return acc
}

// refRowNorms is rowNorms over the unrounded sketches.
func refRowNorms(sketchers []rowSketcher, ys [][][]float64, a *intmat.Sparse) [][]float64 {
	est := make([][]float64, len(sketchers))
	for rep, rs := range sketchers {
		est[rep] = make([]float64, a.Rows())
		for i := range est[rep] {
			if cols, vals := a.Row(i); len(cols) > 0 {
				est[rep][i] = max(rs.fl.EstimatePowInPlace(refCombine(ys[rep], cols, vals)), 0)
			}
		}
	}
	return est
}

// refEstimateLp is EstimateLp with round 1 at full float64 precision,
// on Bob's sketch families. Bob's round 2 reads the exact row norms of
// C = A·B from rowNorms, each the float his kernels compute for the row.
func refEstimateLp(a, b *intmat.Sparse, o LpOpts, sketchers []rowSketcher, rowNorms []float64) float64 {
	if err := o.setDefaults(); err != nil {
		panic(err)
	}
	priv := rng.New(o.Seed).Derive("alice-private", "lp")
	perRep := make([]float64, o.Reps)
	for rep, est := range refRowNorms(sketchers, refSketches(sketchers, b), a) {
		for _, pick := range refGroupAndSample(est, math.Sqrt(o.Eps), o.RhoC/o.Eps, priv) {
			perRep[rep] += float64(pick.weight * rowNorms[pick.i])
		}
	}
	return median(perRep)
}

// lpRowNorms returns ‖C_i‖p^p for every row of c: rowLpPow's fold, with
// |v|^p computed once for each |v| the matrix holds.
func lpRowNorms(c *intmat.Dense, p float64) []float64 {
	norms := make([]float64, c.Rows())
	if p == 1 || p == 2 {
		for i := range norms {
			norms[i] = rowLpPow(c.Row(i), p)
		}
		return norms
	}
	var pow []float64
	for i := range norms {
		for _, v := range c.Row(i) {
			v = max(v, -v)
			for int64(len(pow)) <= v {
				pow = append(pow, math.Pow(float64(len(pow)), p))
			}
			if v != 0 {
				norms[i] += pow[v]
			}
		}
	}
	return norms
}

// TestAxpyFloat24 adds a multiple of Float24 words into float64
// accumulators, through the unrolled body and the tail.
func TestAxpyFloat24(t *testing.T) {
	msg := comm.NewMessage()
	msg.PutFloat24s([]float64{10, -1, 0.5, 3, -2})
	x := make([]uint32, 5)
	msg.Float24sInto(x)
	y := []float64{1, 2, 0, 0, 5}
	axpyFloat24(y, 3, x)
	if !slices.Equal(y, []float64{31, -1, 1.5, 9, -1}) {
		t.Fatalf("axpyFloat24 = %v", y)
	}
}

// TestRound1WordsWithinRoundingBound: every word of the sketches Alice
// combines from Float24 words lies within 2⁻¹²·Σ_k |a_ik|·|y_kj| of the
// float64 combination — twice the per-word rounding bound of 2⁻¹³, so
// the float sums' own error fits beside it — at p from 0.1, whose words
// span dozens of orders of magnitude, to 2, on signed inputs. And a row
// whose reference estimate is positive keeps a positive estimate.
func TestRound1WordsWithinRoundingBound(t *testing.T) {
	a := randomInt(2700, 60, 48, 0.2, 5, false).List()
	b := randomInt(2701, 48, 40, 0.3, 5, false).List()
	for _, p := range []float64{0.1, 0.5, 1, 1.5, 2} {
		bob, err := NewBobLpState(b, p, LpOpts{Eps: 0.25, Seed: 2702})
		if err != nil {
			t.Fatal(err)
		}
		blk := readSketchBlock(comm.FromBytes(bob.round1), bob.sketchers, b.Rows())
		ys := refSketches(bob.sketchers, b)
		w, stripe := blk.width, len(bob.sketchers)*blk.width
		acc := make([]float64, stripe)
		for i := 0; i < a.Rows(); i++ {
			cols, vals := a.Row(i)
			clear(acc)
			for x, k := range cols {
				axpyFloat24(acc, float64(vals[x]), blk.floatSk[int(k)*stripe:][:stripe])
			}
			for rep := range bob.sketchers {
				ref := refCombine(ys[rep], cols, vals)
				for j := range ref {
					var scale float64
					for x, k := range cols {
						scale += math.Abs(float64(vals[x]) * ys[rep][k][j])
					}
					if d := math.Abs(acc[rep*w+j] - ref[j]); d > 0x1p-12*scale {
						t.Fatalf("p %g row %d rep %d word %d: %v against %v, off by %g > 2⁻¹²·%g", p, i, rep, j, acc[rep*w+j], ref[j], d, scale)
					}
				}
			}
		}
		est, _ := blk.rowNorms(a, 1, 0)
		refEst := refRowNorms(bob.sketchers, ys, a)
		for rep := range est {
			for i, e := range refEst[rep] {
				if e > 0 && !(est[rep][i] > 0) {
					t.Fatalf("p %g rep %d row %d: estimate %v where the reference's is %v", p, rep, i, est[rep][i], e)
				}
			}
		}
	}
}

// TestRound1RoundingKeepsAccuracy: over 60 seeds per p, on signed
// inputs (A 2048×256 at density 0.03, B 256×256 at 0.2, ε = 0.25),
// Algorithm 1's mean relative error stays within 0.002 of the
// float64-round-1 reference's and its 90th percentile within 0.01. At
// p = 2 the AMS words are small integers, which Float24 words hold
// exactly, so every estimate is the reference's to the bit.
func TestRound1RoundingKeepsAccuracy(t *testing.T) {
	const seeds = 60
	ps := []float64{0.25, 0.5, 1, 1.5, 2}
	type input struct {
		a, b     *intmat.Sparse
		rowNorms [][]float64 // ‖(AB)_i‖p^p, one list per p
	}
	inputs := make([]input, seeds)
	for s := range inputs {
		in := input{a: randomInt(2710+2*uint64(s), 2048, 256, 0.03, 3, false).List(), b: randomInt(2711+2*uint64(s), 256, 256, 0.2, 3, false).List()}
		c := in.a.Mul(in.b)
		for _, p := range ps {
			in.rowNorms = append(in.rowNorms, lpRowNorms(c, p))
		}
		inputs[s] = in
	}
	for x, p := range ps {
		t.Run(fmt.Sprintf("p=%g", p), func(t *testing.T) {
			t.Parallel()
			var relErr [2][]float64 // the reference's, Float24 words'
			for s, in := range inputs {
				var truth float64
				for _, norm := range in.rowNorms[x] {
					truth += norm
				}
				o := LpOpts{Eps: 0.25, Seed: 2800 + uint64(s)}
				bob, err := NewBobLpState(in.b, p, o)
				if err != nil {
					t.Fatal(err)
				}
				var got float64
				if _, err := runPair(
					func(tr comm.Transport) error { return bob.AliceState().Serve(tr, in.a) },
					func(tr comm.Transport) (err error) { got, err = bob.Serve(tr); return err },
				); err != nil {
					t.Fatal(err)
				}
				ref := refEstimateLp(in.a, in.b, o, bob.sketchers, in.rowNorms[x])
				if p == 2 && math.Float64bits(got) != math.Float64bits(ref) {
					t.Errorf("seed %d: estimate %v, the reference's %v", s, got, ref)
				}
				relErr[0] = append(relErr[0], math.Abs(ref-truth)/truth)
				relErr[1] = append(relErr[1], math.Abs(got-truth)/truth)
			}
			var mean, p90 [2]float64
			for side, errs := range relErr {
				for _, e := range errs {
					mean[side] += e / seeds
				}
				sort.Float64s(errs)
				p90[side] = errs[seeds*9/10]
			}
			t.Logf("mean relative error %.4f (reference %.4f), p90 %.4f (reference %.4f)", mean[1], mean[0], p90[1], p90[0])
			if math.Abs(mean[1]-mean[0]) > 0.002 || math.Abs(p90[1]-p90[0]) > 0.01 {
				t.Errorf("mean relative error %.4f, p90 %.4f; the reference's %.4f and %.4f", mean[1], p90[1], mean[0], p90[0])
			}
		})
	}
}

// TestBobLpStateBytesFollowRound1: a float-word round 1 is exactly
// reps·n·width Float24 words — 3/(8 + 1/width) of the prefixed float64
// rows it replaced, 99/265 at width 33 — and the state's Bytes(), which
// the sketch cache sums as its resident bytes, is that plus the row sums
// and the sketch families. Field rows at p = 0 keep their prefix. Once
// the state's Alice has served, Bytes() counts her round-1 view too:
// n·reps·width words of 4 bytes (8 at p = 0) over an in-process pair,
// whose payload is the state's own round 1, and the payload as well
// over a socket, where it is a frame of its own.
func TestBobLpStateBytesFollowRound1(t *testing.T) {
	b := randomInt(2720, 64, 40, 0.3, 3, true)
	a := randomInt(2724, 20, 64, 0.2, 3, true).List()
	for _, p := range []float64{0, 0.5, 1, 2} {
		for _, socket := range []bool{false, true} {
			st, err := NewBobLpState(b, p, LpOpts{Eps: 0.25, Seed: 2721})
			if err != nil {
				t.Fatal(err)
			}
			reps, n := len(st.sketchers), b.Rows()
			var want, block int
			if rs := st.sketchers[0]; p == 0 {
				want = reps * n * (uvarintLen(uint64(rs.l0.Dim())) + 8*rs.l0.Dim())
				block = reps * n * 8 * rs.l0.Dim()
			} else {
				want = reps * n * 3 * rs.fl.Dim()
				block = reps * n * 4 * rs.fl.Dim()
			}
			if len(st.round1) != want {
				t.Errorf("p %g: round 1 is %d bytes, want %d", p, len(st.round1), want)
			}
			cold := st.Bytes()
			if cold != int64(want)+st.tot.Bytes()+st.famBytes {
				t.Errorf("p %g: Bytes() = %d, round 1 %d + row totals %d + families %d", p, cold, want, st.tot.Bytes(), st.famBytes)
			}
			alice := func(tr comm.Transport) error { return st.AliceState().Serve(tr, a) }
			bob := func(tr comm.Transport) (err error) { _, err = st.Serve(tr); return err }
			if socket {
				runRecorded(t, alice, bob)
				block += want
			} else if _, err := runPair(alice, bob); err != nil {
				t.Fatal(err)
			}
			if got := st.Bytes() - cold; got != int64(block) {
				t.Errorf("p %g, socket %v: serving grew Bytes() by %d, the view holds %d", p, socket, got, block)
			}
		}
	}
}

// TestLpFamilyBytesAreRetained: the sketch families an lp state is
// charged for are what they hold — a Stable family its width × n
// variates (the odd width, one word past ⌈SketchC/ε⌉), ℓ0's and AMS's
// families their hash coefficients (2 per pairwise hash, 4 per AMS
// measurement), a few kB where Reps × ⌈SketchC/ε⌉ × n words would be
// 655 kB at n = 512.
func TestLpFamilyBytesAreRetained(t *testing.T) {
	const n = 512
	b := randomInt(2722, 8, n, 0.3, 3, true)
	for _, p := range []float64{0, 0.5, 1, 2} {
		st, err := NewBobLpState(b, p, LpOpts{Eps: 0.25, Seed: 2723})
		if err != nil {
			t.Fatal(err)
		}
		var perRep int64
		switch rs := st.sketchers[0]; p {
		case 0:
			perRep = 8 * 2 * int64(1+2*rs.l0.Levels())
		case 2:
			perRep = 8 * 4 * int64(rs.fl.Dim())
		default:
			perRep = 8 * 33 * n
		}
		if want := int64(len(st.sketchers)) * perRep; st.famBytes != want {
			t.Errorf("p %g: families charged %d bytes, they hold %d", p, st.famBytes, want)
		}
		if alice, _ := NewAliceLpState(n, p, LpOpts{Eps: 0.25, Seed: 2723}); alice.Bytes() != st.famBytes {
			t.Errorf("p %g: Alice's families charged %d bytes, Bob's %d", p, alice.Bytes(), st.famBytes)
		}
	}
}
