package core

import (
	"crypto/sha256"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/intmat"
)

// TestLpTranscriptsPinned pins Algorithm 1's wire bytes and outputs, and
// those of the one-round baseline and the batched multi-p run: no
// rewrite of Alice's estimate pass, Bob's round 2 or the median may move
// a transcript byte, a bit count or an output float. The p = 0 digests
// are the ones the per-repetition implementation printed; the p > 0
// ones were re-pinned when round 1's float words became Float24 words.
// Every digest must come out the same at every shard count.
func TestLpTranscriptsPinned(t *testing.T) {
	inputs := map[string][2]*intmat.Dense{
		"signed": {randomInt(2200, 40, 36, 0.2, 3, false), randomInt(2201, 36, 44, 0.25, 3, false)},
		"nonneg": {randomInt(2202, 40, 36, 0.2, 3, true), randomInt(2203, 36, 44, 0.3, 9, true)},
	}
	twoRound := []struct {
		input string
		p     float64
		want  string
	}{
		{"signed", 0, "5a28abdca387c943"},
		{"signed", 0.5, "1d76f1895339c0a0"},
		{"signed", 1, "bcd64203aa5b1aec"},
		{"signed", 2, "9decf907e4a65a16"},
		{"nonneg", 0, "953bea5c94c04859"},
		{"nonneg", 0.5, "aae62ff5d68d0ca2"},
		{"nonneg", 1, "b71648d7361ec7a1"},
		{"nonneg", 2, "629c2bbfe5b6f36a"},
	}
	for _, c := range twoRound {
		a, b := inputs[c.input][0], inputs[c.input][1]
		for _, shards := range []int{1, 4} {
			o := LpOpts{Eps: 0.3, Seed: 2210, Shards: shards}
			st, err := NewBobLpState(b, c.p, o)
			if err != nil {
				t.Fatal(err)
			}
			var est float64
			in, sent := runRecorded(t,
				func(tr comm.Transport) error { return AliceLp(tr, a, b.Cols(), c.p, o) },
				func(tr comm.Transport) (err error) { est, err = st.Serve(tr); return err })
			got := digest(math.Float64bits(est), sha256.Sum256(in), sha256.Sum256(sent))
			if got != c.want {
				t.Errorf("EstimateLp %s p %g shards %d: digest %s, pinned %s", c.input, c.p, shards, got, c.want)
			}
		}
	}

	a, b := inputs["signed"][0], inputs["signed"][1]
	oneRound := map[float64]string{0: "1bf726f5e4901200", 0.5: "e567aa36a232be7d", 1: "55550968b7db8bd6", 2: "01248d8c8a80d5dc"}
	for _, shards := range []int{1, 4} {
		for p, want := range oneRound {
			est, cost, err := OneRoundLp(a, b, p, LpOpts{Eps: 0.5, Seed: 2211, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(math.Float64bits(est), cost.Bits); got != want {
				t.Errorf("OneRoundLp p %g shards %d: digest %s, pinned %s", p, shards, got, want)
			}
		}
		ests, cost, err := EstimateLpMulti(a, b, []float64{0, 0.5, 1, 2}, LpOpts{Eps: 0.3, Seed: 2212, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		var bits []uint64
		for _, e := range ests {
			bits = append(bits, math.Float64bits(e))
		}
		if got, want := digest(bits, cost.Bits), "de633336f22e4026"; got != want {
			t.Errorf("EstimateLpMulti shards %d: digest %s, pinned %s", shards, got, want)
		}
	}
}

// BenchmarkLpPrecompute prices a cold Bob state of each kind that
// holds B's row totals, on one shard, on the repo benchmark's lp_cached
// shape (n = 512, B 0.2 full) and kinds_uncached's (n = 256, B 0.004
// full), Boolean. lp's is at p = 1, ε = 0.25 — drawing the five
// p-stable families and sketching every row of B; the p = 1
// calibration is process-wide and paid before the timer starts. The
// other kinds' states are B's row totals (hh's nested lp state is built
// on a query's first need, not here).
func BenchmarkLpPrecompute(b *testing.B) {
	for _, c := range []struct {
		name    string
		n       int
		density float64
	}{
		{"lp_cached", 512, 0.2},
		{"kinds_uncached", 256, 0.004},
	} {
		bits := randomBinary(3010, c.n, c.n, c.density)
		bm := bits.ToInt().List()
		for _, k := range []struct {
			name  string
			build func() error
		}{
			{"lp", func() error { _, err := NewBobLpState(bm, 1, LpOpts{Eps: 0.25, Seed: 3011, Shards: 1}); return err }},
			{"exact", func() error { _, err := NewBobExactL1State(bm, 1); return err }},
			{"l1sample", func() error { _, err := NewBobL1SampleState(bm, 1); return err }},
			{"linf", func() error { _, err := NewBobLinfState(bits, LinfOpts{Eps: 0.5, Seed: 3012, Shards: 1}); return err }},
			{"linfkappa", func() error {
				_, err := NewBobLinfKappaState(bits, LinfKappaOpts{Kappa: 4, Seed: 3013, Shards: 1})
				return err
			}},
			{"hh", func() error {
				_, err := NewBobHHState(bm, HHOpts{Phi: 0.2, Eps: 0.1, Seed: 3014, Shards: 1})
				return err
			}},
		} {
			b.Run(c.name+"/"+k.name, func(b *testing.B) {
				if err := k.build(); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := k.build(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkLpServe prices one cached Algorithm 1 query — Serve on a
// built Bob state against the Alice state it hands out, over an
// in-process pair — on the repo benchmark's lp_cached shape (n = 512,
// B 0.2 full and A 0.02 full, ε = 0.25, Boolean), and on signed inputs
// of the same shape at p = 0.5 and p = 2, which Bob's exact p = 1
// row-sum path never takes. Every query after the first finds round 1
// in that Alice's view; the cold case serves each query through a fresh
// Alice on the same families, so it pays the view miss — reading round
// 1 into a new block — every time.
func BenchmarkLpServe(b *testing.B) {
	const n = 512
	for _, c := range []struct {
		name   string
		p      float64
		signed bool
		cold   bool
	}{
		{"p=1/boolean", 1, false, false},
		{"p=1/boolean/cold", 1, false, true},
		{"p=0.5/signed", 0.5, true, false},
		{"p=2/signed", 2, true, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			bm, am := randomBinary(3000, n, n, 0.2).ToInt(), randomBinary(3001, n, n, 0.02).ToInt()
			if c.signed {
				bm, am = randomInt(3000, n, n, 0.2, 3, false), randomInt(3001, n, n, 0.02, 3, false)
			}
			bob, err := NewBobLpState(bm, c.p, LpOpts{Eps: 0.25, Seed: 3002, Shards: 2})
			if err != nil {
				b.Fatal(err)
			}
			alice, a := bob.AliceState(), am.List()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.cold {
					alice = &AliceLpState{p: bob.p, opts: bob.opts, sketchers: bob.sketchers}
				}
				_, err := runPair(
					func(tr comm.Transport) error { return alice.Serve(tr, a) },
					func(tr comm.Transport) error { _, err := bob.Serve(tr); return err })
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
