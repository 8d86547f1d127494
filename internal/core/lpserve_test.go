package core

import (
	"crypto/sha256"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/intmat"
)

// TestLpTranscriptsPinned pins Algorithm 1's wire bytes and outputs, and
// those of the one-round baseline and the batched multi-p run, to the
// digests the per-repetition implementation printed: Alice's estimate
// pass, Bob's round 2 and the median are rewritten for speed, and none
// of them may move a transcript byte, a bit count or an output float.
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
		{"signed", 0.5, "131dfb03a286de76"},
		{"signed", 1, "b73710004d5c903e"},
		{"signed", 2, "9c3a8633aa9d0eb4"},
		{"nonneg", 0, "953bea5c94c04859"},
		{"nonneg", 0.5, "31044f830dcb2804"},
		{"nonneg", 1, "fec95f247ec28983"},
		{"nonneg", 2, "a20349579b2b824d"},
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
	oneRound := map[float64]string{0: "1bf726f5e4901200", 0.5: "746802736c83c73c", 1: "938eb4c9395e3764", 2: "5731e43fcb4f5414"}
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
		if got, want := digest(bits, cost.Bits), "43e6658439f89ff6"; got != want {
			t.Errorf("EstimateLpMulti shards %d: digest %s, pinned %s", shards, got, want)
		}
	}
}

// BenchmarkLpServe prices one cached Algorithm 1 query — Serve on a
// built Bob state against Alice's Serve over an in-process pair — on
// the repo benchmark's lp_cached shape (n = 512, B 0.2 full and A 0.02
// full, ε = 0.25, Boolean), and on signed inputs of the same shape at
// p = 0.5 and p = 2, which Bob's exact p = 1 row-sum path never takes.
func BenchmarkLpServe(b *testing.B) {
	const n = 512
	for _, c := range []struct {
		name   string
		p      float64
		signed bool
	}{
		{"p=1/boolean", 1, false},
		{"p=0.5/signed", 0.5, true},
		{"p=2/signed", 2, true},
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
