package core

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/intmat"
)

// Transcripts of the protocols whose Serve runs on sparse forms — hh and
// DistributedProduct through the Lemma 2.5 exchange, l0sample through
// its column sketches — pinned to what the dense implementation before
// them put on the wire: the digests below were printed by this same
// file run against that implementation. A digest covers every byte Bob
// received and sent (frame headers included), his output, and the cost.

func digest(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%v|", p)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// scaleInt multiplies every entry by f, to push compressed words past
// one varint byte.
func scaleInt(m *intmat.Dense, f int64) *intmat.Dense {
	o := m.Clone()
	for i := 0; i < o.Rows(); i++ {
		for j, v := range o.Row(i) {
			o.Set(i, j, v*f)
		}
	}
	return o
}

func TestTranscriptsMatchDenseImplementation(t *testing.T) {
	aInt := randomInt(2000, 28, 24, 0.2, 3, false) // signed, rectangular
	bInt := randomInt(2001, 24, 30, 0.2, 3, false)
	aPos := randomInt(2002, 24, 24, 0.25, 3, true)
	bPos := randomInt(2003, 24, 24, 0.25, 3, true)
	aHeavy := randomInt(2004, 32, 32, 0.5, 40, true) // a product heavy enough that β < 1
	bHeavy := randomInt(2005, 32, 32, 0.5, 40, true)
	aDense := randomInt(2006, 20, 16, 1, 2, false)
	aHoles := aInt.Clone() // columns 0, 5 and the last all zero
	for i := 0; i < aHoles.Rows(); i++ {
		aHoles.Set(i, 0, 0)
		aHoles.Set(i, 5, 0)
		aHoles.Set(i, aHoles.Cols()-1, 0)
	}
	bWide := randomInt(2007, 16, 22, 0.3, 3, false)

	hh := func(a, b *intmat.Dense, o HHOpts) func(*testing.T) string {
		return func(t *testing.T) string {
			aNonNeg, bNonNeg := requireNonNegative(a) == nil, requireNonNegative(b) == nil
			var out []WeightedPair
			in, sent := runRecorded(t,
				func(tr comm.Transport) error { return AliceHH(tr, a, b.Cols(), bNonNeg, o) },
				func(tr comm.Transport) (err error) { out, err = BobHH(tr, b, a.Rows(), aNonNeg, o); return err })
			_, cost, err := HeavyHitters(a, b, o)
			if err != nil {
				t.Fatal(err)
			}
			return digest(sha256.Sum256(in), sha256.Sum256(sent), out, cost.Bits, cost.Rounds, cost.Trace)
		}
	}
	l0 := func(a, b *intmat.Dense, o L0SampleOpts) func(*testing.T) string {
		return func(t *testing.T) string {
			var first string
			for _, shards := range []int{1, 2, 4} {
				o.Shards = shards
				var p Pair
				var v int64
				in, sent := runRecorded(t,
					func(tr comm.Transport) error { return AliceL0Sample(tr, a, o) },
					func(tr comm.Transport) (err error) { p, v, err = BobL0Sample(tr, b, a.Rows(), o); return err })
				d := digest(sha256.Sum256(in), sha256.Sum256(sent), p, v)
				if first == "" {
					first = d
				} else if d != first {
					t.Fatalf("shards %d: digest %s, sequential %s", shards, d, first)
				}
			}
			return first
		}
	}
	product := func(a, b *intmat.Dense, o MatMulOpts) func(*testing.T) string {
		return func(t *testing.T) string {
			ca, cb, cost, err := DistributedProduct(a, b, o)
			if err != nil {
				return digest("error", err, cost.Bits, cost.Rounds, cost.Trace)
			}
			return digest(ca.NonZeros(), cb.L0(), cost.Bits, cost.Rounds, cost.Trace)
		}
	}

	cases := []struct {
		name string
		run  func(*testing.T) string
		want string
	}{
		{"hh/signed-p1-nested-lp", hh(aInt, bInt, HHOpts{Phi: 0.2, Eps: 0.1, P: 1, Seed: 2100}), "111ca2fd612daea5"},
		{"hh/signed-p2", hh(aInt, bInt, HHOpts{Phi: 0.2, Eps: 0.1, P: 2, Seed: 2101}), "e930d7c308798ccd"},
		{"hh/nonneg-p1-shortcut", hh(aPos, bPos, HHOpts{Phi: 0.1, Eps: 0.05, P: 1, Seed: 2102}), "4779c92016f41f69"},
		{"hh/nonneg-p1-sharded", hh(aPos, bPos, HHOpts{Phi: 0.1, Eps: 0.05, P: 1, Seed: 2102, Shards: 3}), "4779c92016f41f69"},
		{"hh/sampled-beta-below-1", hh(aHeavy, bHeavy, HHOpts{Phi: 0.05, Eps: 0.05, P: 1, Seed: 2103}), "2589e653521c3222"},
		{"hh/multi-byte-words-even-reps", hh(scaleInt(aInt, 90), scaleInt(bInt, 1000), HHOpts{Phi: 0.2, Eps: 0.1, P: 1, Reps: 4, Seed: 2104}), "171d6e7a89bd4a26"},
		{"l0sample/signed-eps0.5", l0(aInt, bInt, L0SampleOpts{Eps: 0.5, Seed: 2110}), "fc61bb94cf23e02f"},
		{"l0sample/signed-eps0.25", l0(aInt, bInt, L0SampleOpts{Eps: 0.25, Seed: 2111}), "80be35e50d12d443"},
		{"l0sample/dense-a", l0(aDense, bWide, L0SampleOpts{Eps: 0.5, Seed: 2112}), "a34493021ce4f53f"},
		{"l0sample/zero-columns", l0(aHoles, bInt, L0SampleOpts{Eps: 0.5, Seed: 2113}), "f7fe595cf8c29e5c"},
		{"product/signed", product(aInt, bInt, MatMulOpts{Sparsity: 400, Seed: 2120}), "5263e0310bca649b"},
		{"product/verified", product(aInt, bInt, MatMulOpts{Sparsity: 400, Verify: true, Seed: 2121}), "a4512f0d31c96f1f"},
		{"product/undersized-verified", product(aInt, bInt, MatMulOpts{Sparsity: 2, Reps: 5, Verify: true, Seed: 2122}), "317b384f39fb1e8b"},
		{"product/undersized", product(aInt, bInt, MatMulOpts{Sparsity: 2, Reps: 4, Seed: 2123}), "10c5616890e29501"},
		{"product/auto-sparsity", product(aPos, bPos, MatMulOpts{Seed: 2124}), "0e890e05f3056134"},
		{"product/multi-byte-words", product(scaleInt(aInt, 90), scaleInt(bInt, 1000), MatMulOpts{Sparsity: 400, Seed: 2125}), "97a160df85dc66b8"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.run(t); got != c.want {
				t.Fatalf("digest %s, the dense implementation's is %s", got, c.want)
			}
		})
	}
}
