package core

import (
	"crypto/sha256"
	"testing"

	"repro/internal/comm"
)

// TestLinfTranscriptsPinned pins Algorithms 2 and 3 (with and without
// universe sampling) and the Boolean heavy hitters over 40 seeds and
// rectangular shapes from light (ℓ* = 0) to dense (ℓ* > 0) products.
// For the two ℓ∞ kinds one digest a protocol covers every byte Bob
// received and sent, his output — the witnessing pair too, which the
// exchange's first-strict-max rule over its partial products picks and
// Alice's share of which travels — and each message's bit count. The
// heavy hitters run on one in-process connection, so their digest covers
// the output set, the round shape and every message's bits.
func TestLinfTranscriptsPinned(t *testing.T) {
	want := map[string]string{
		"linf":                "6610ac1e07b965c6",
		"linfkappa":           "51c87f4719eedd6c",
		"linfkappa/universe0": "cdb0b820e63c6add",
		"hhbinary":            "4d60a01547e4c883",
	}
	got := map[string][]any{}
	for s := uint64(0); s < 40; s++ {
		m1, n, m2 := 14+int(s%5), 18+int(s%3), 12+int(s%7)
		density := []float64{0.08, 0.25, 0.5, 0.8}[s%4]
		a := randomBinary(7000+s, m1, n, density)
		b := randomBinary(7100+s, n, m2, density)
		for k := 0; k < n; k += 1 + int(s%3) { // a heavy entry for the heavy hitters to find
			a.Set(int(s)%m1, k, true)
			b.Set(k, int(s)%m2, true)
		}

		lo := LinfOpts{Eps: 0.5, GammaC: []float64{1, 0.3}[s%2], Seed: 7200 + s}
		var est float64
		var arg Pair
		in, sent := runRecorded(t,
			func(tr comm.Transport) error { return AliceLinf(tr, a, m2, lo) },
			func(tr comm.Transport) (err error) { est, arg, err = BobLinf(tr, b, m1, lo); return err })
		_, _, cost, err := EstimateLinfBinary(a, b, lo)
		if err != nil {
			t.Fatal(err)
		}
		shape, bits := costShape(cost)
		got["linf"] = append(got["linf"], est, arg, shape, bits, sha256.Sum256(in), sha256.Sum256(sent))

		for _, noUniverse := range []bool{false, true} {
			name := "linfkappa"
			if noUniverse {
				name += "/universe0"
			}
			ko := LinfKappaOpts{Kappa: float64(4 + s%5), AlphaC: []float64{4, 0.5}[s%2], Seed: 7300 + s, DisableUniverseSampling: noUniverse}
			in, sent := runRecorded(t,
				func(tr comm.Transport) error { return AliceLinfKappa(tr, a, m2, ko) },
				func(tr comm.Transport) (err error) { est, arg, err = BobLinfKappa(tr, b, m1, ko); return err })
			_, _, cost, err := linfKappaPair(a, b, ko)
			if err != nil {
				t.Fatal(err)
			}
			shape, bits := costShape(cost)
			got[name] = append(got[name], est, arg, shape, bits, sha256.Sum256(in), sha256.Sum256(sent))
		}

		out, cost, err := HeavyHittersBinary(a, b, HHBinaryOpts{Phi: 0.1, Eps: 0.05, Seed: 7400 + s})
		if err != nil {
			t.Fatal(err)
		}
		shape, bits = costShape(cost)
		got["hhbinary"] = append(got["hhbinary"], out, shape, bits)
	}
	for name, w := range want {
		if d := digest(got[name]...); d != w {
			t.Errorf("%s: digest %s over 40 seeds, pinned %s", name, d, w)
		}
	}
}
