package sketch

import (
	"testing"

	"repro/internal/intmat"
	"repro/internal/rng"
)

// Micro-benchmarks for the sketch kernels: these dominate the local
// compute time of the protocols (communication is the model's cost, but
// the harness has to run in real time).

func benchVector(n int) []int64 {
	r := rng.New(42)
	x := make([]int64, n)
	for i := range x {
		if r.Bernoulli(0.2) {
			x[i] = r.Int63n(9) - 4
		}
	}
	return x
}

func BenchmarkAMSApply(b *testing.B) {
	s := NewAMS(rng.New(1), 1024, 5, 32)
	x := benchVector(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Apply(x)
	}
}

func BenchmarkStableApply(b *testing.B) {
	s := NewStable(rng.New(2), 1024, 1, 101)
	x := benchVector(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Apply(x)
	}
}

func BenchmarkL0Apply(b *testing.B) {
	s := NewL0(rng.New(3), 1024, 64)
	x := benchVector(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Apply(x)
	}
}

func BenchmarkL0Estimate(b *testing.B) {
	s := NewL0(rng.New(4), 1024, 64)
	sk := s.Apply(benchVector(1024))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Estimate(sk)
	}
}

func BenchmarkAxpyField(b *testing.B) {
	s := NewL0(rng.New(5), 1024, 64)
	sk := s.Apply(benchVector(1024))
	acc := make([]uint64, len(sk))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AxpyField(acc, 3, sk)
	}
}

// BenchmarkTensorCSDecode times Alice's half of the Lemma 2.5 exchange
// as the protocols run it: completing the sketch from the factor's
// non-zero words and decoding it (Recover), hash tables included.
func BenchmarkTensorCSDecode(b *testing.B) {
	n := 64
	r := rng.New(6)
	c := intmat.NewDense(n, n)
	for i := 0; i < 200; i++ {
		c.Set(r.Intn(n), r.Intn(n), 1+r.Int63n(5))
	}
	id := intmat.NewDense(n, n)
	for i := 0; i < n; i++ {
		id.Set(i, i, 1)
	}
	ts := NewTensorCS(rng.New(7), n, n, n, c.L0(), 7)
	a, f := intmat.FromDense(c), factorOf(ts, ts.ColCompress(id))
	if got := len(ts.Recover(a, f)); got != c.L0() {
		b.Fatalf("recovered %d entries of %d", got, c.L0())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.Recover(a, f)
	}
}

func BenchmarkL0SamplerDecode(b *testing.B) {
	s := NewL0Sampler(rng.New(8), 1024, 4)
	sk := s.Apply(benchVector(1024))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Decode(sk)
	}
}
