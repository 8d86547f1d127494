package core

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/intmat"
)

// Transcripts of the protocols that run on sparse forms — hh and
// DistributedProduct through the Lemma 2.5 exchange, l0sample through
// its column sketches — pinned in two halves. The *output* digest covers
// what no encoding may move: the party's output, the round count, and
// every message's direction, round and label. It was printed by this
// file run against the dense implementation that preceded the sparse
// Serve, and again against the dense wire layout that preceded the
// (gap, word) forms; it has never changed. The *wire* digest covers
// every byte Bob received and sent (frame headers included) and each
// message's bit count, and is re-pinned, with the case's total bits
// beside it, whenever a message layout changes on purpose.

func digest(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%v|", p)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// transcript is one golden case's reading.
type transcript struct {
	out  string // output digest
	wire string // bytes-and-bits digest
	bits int64
}

// costShape is the part of a Cost an encoding cannot move; costBits the
// part it can.
func costShape(c Cost) (shape []any, bits []int64) {
	shape = append(shape, c.Rounds, c.Stats.Messages, len(c.Trace))
	for _, m := range c.Trace {
		shape = append(shape, m.Direction, m.Round, m.Label)
		bits = append(bits, m.Bits)
	}
	return shape, append(bits, c.Stats.BitsAliceToBob, c.Stats.BitsBobToAlice, c.Bits)
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

	hh := func(a, b *intmat.Dense, o HHOpts) func(*testing.T) transcript {
		return func(t *testing.T) transcript {
			aNonNeg, bNonNeg := requireNonNegative(a) == nil, requireNonNegative(b) == nil
			var out []WeightedPair
			in, sent := runRecorded(t,
				func(tr comm.Transport) error { return AliceHH(tr, a, b.Cols(), bNonNeg, o) },
				func(tr comm.Transport) (err error) { out, err = BobHH(tr, b, a.Rows(), aNonNeg, o); return err })
			_, cost, err := HeavyHitters(a, b, o)
			if err != nil {
				t.Fatal(err)
			}
			shape, bits := costShape(cost)
			return transcript{digest(out, shape), digest(sha256.Sum256(in), sha256.Sum256(sent), bits), cost.Bits}
		}
	}
	l0 := func(a, b *intmat.Dense, o L0SampleOpts) func(*testing.T) transcript {
		return func(t *testing.T) transcript {
			var first transcript
			for _, shards := range []int{1, 2, 4} {
				o.Shards = shards
				var p Pair
				var v int64
				in, sent := runRecorded(t,
					func(tr comm.Transport) error { return AliceL0Sample(tr, a, o) },
					func(tr comm.Transport) (err error) { p, v, err = BobL0Sample(tr, b, a.Rows(), o); return err })
				_, _, cost, err := SampleL0(a, b, o)
				if err != nil {
					t.Fatal(err)
				}
				shape, bits := costShape(cost)
				d := transcript{digest(p, v, shape), digest(sha256.Sum256(in), sha256.Sum256(sent), bits), cost.Bits}
				if shards == 1 {
					first = d
				} else if d != first {
					t.Fatalf("shards %d: %+v, sequential %+v", shards, d, first)
				}
			}
			return first
		}
	}
	product := func(a, b *intmat.Dense, o MatMulOpts) func(*testing.T) transcript {
		return func(t *testing.T) transcript {
			ca, cb, cost, err := DistributedProduct(a, b, o)
			shape, bits := costShape(cost)
			if err != nil {
				return transcript{digest("error", err, shape), digest(bits), cost.Bits}
			}
			return transcript{digest(ca.NonZeros(), cb.L0(), shape), digest(bits), cost.Bits}
		}
	}

	cases := []struct {
		name string
		run  func(*testing.T) transcript
		want transcript
	}{
		{"hh/signed-p1-nested-lp", hh(aInt, bInt, HHOpts{Phi: 0.2, Eps: 0.1, P: 1, Seed: 2100}), transcript{"1cdf4daceb4be653", "786911d71e5eea24", 234736}},
		{"hh/signed-p2", hh(aInt, bInt, HHOpts{Phi: 0.2, Eps: 0.1, P: 2, Seed: 2101}), transcript{"1cdf4daceb4be653", "f854d053067412fb", 241664}},
		{"hh/nonneg-p1-shortcut", hh(aPos, bPos, HHOpts{Phi: 0.1, Eps: 0.05, P: 1, Seed: 2102}), transcript{"5fa61ac901dc1ec5", "4c05a126cf734a45", 24632}},
		{"hh/nonneg-p1-sharded", hh(aPos, bPos, HHOpts{Phi: 0.1, Eps: 0.05, P: 1, Seed: 2102, Shards: 3}), transcript{"5fa61ac901dc1ec5", "4c05a126cf734a45", 24632}},
		{"hh/sampled-beta-below-1", hh(aHeavy, bHeavy, HHOpts{Phi: 0.05, Eps: 0.05, P: 1, Seed: 2103}), transcript{"a199bb3cbd8b1d31", "2a919552f25899a7", 88104}},
		{"hh/multi-byte-words-even-reps", hh(scaleInt(aInt, 90), scaleInt(bInt, 1000), HHOpts{Phi: 0.2, Eps: 0.1, P: 1, Reps: 4, Seed: 2104}), transcript{"1cdf4daceb4be653", "98616ae125e9fa3c", 228168}},
		{"l0sample/signed-eps0.5", l0(aInt, bInt, L0SampleOpts{Eps: 0.5, Seed: 2110}), transcript{"9c115dfc40bce963", "2dab589595010650", 183512}},
		{"l0sample/signed-eps0.25", l0(aInt, bInt, L0SampleOpts{Eps: 0.25, Seed: 2111}), transcript{"c98505657eb21746", "e1224f684a59aac7", 195632}},
		{"l0sample/dense-a", l0(aDense, bWide, L0SampleOpts{Eps: 0.5, Seed: 2112}), transcript{"733c0f6b6e5597ec", "589f506529d94500", 295872}},
		{"l0sample/zero-columns", l0(aHoles, bInt, L0SampleOpts{Eps: 0.5, Seed: 2113}), transcript{"34bd0b46f4353ae7", "93c606d2f287023e", 177784}},
		{"product/signed", product(aInt, bInt, MatMulOpts{Sparsity: 400, Seed: 2120}), transcript{"8ca08033a167bf4a", "fa6839b9eecfe552", 24568}},
		{"product/verified", product(aInt, bInt, MatMulOpts{Sparsity: 400, Verify: true, Seed: 2121}), transcript{"8ca08033a167bf4a", "251118031cab4596", 26232}},
		{"product/undersized-verified", product(aInt, bInt, MatMulOpts{Sparsity: 2, Reps: 5, Verify: true, Seed: 2122}), transcript{"bb38e2aa792b7418", "812cd5184b1c6d7e", 11064}},
		{"product/undersized", product(aInt, bInt, MatMulOpts{Sparsity: 2, Reps: 4, Seed: 2123}), transcript{"caf22eda27763912", "550dd5f7032c4d2c", 7600}},
		{"product/auto-sparsity", product(aPos, bPos, MatMulOpts{Seed: 2124}), transcript{"f992efc38d80b248", "a547640712eb5a58", 783672}},
		{"product/multi-byte-words", product(scaleInt(aInt, 90), scaleInt(bInt, 1000), MatMulOpts{Sparsity: 400, Seed: 2125}), transcript{"44a8035f55610368", "434d749ec197a878", 37704}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := c.run(t)
			if got.out != c.want.out {
				t.Errorf("output digest %s, pinned %s: an output, a round or a label moved", got.out, c.want.out)
			}
			if got.wire != c.want.wire || got.bits != c.want.bits {
				t.Errorf("wire digest %s at %d bits, pinned %s at %d", got.wire, got.bits, c.want.wire, c.want.bits)
			}
		})
	}
}
