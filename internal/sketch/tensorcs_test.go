package sketch

import (
	"testing"

	"repro/internal/intmat"
	"repro/internal/rng"
)

func randomSparseProduct(seed uint64, n, density int) (*intmat.Dense, *intmat.Dense, *intmat.Dense) {
	r := rng.New(seed)
	a := intmat.NewDense(n, n)
	b := intmat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for k := 0; k < density; k++ {
			a.Set(i, r.Intn(n), r.Int63n(5)+1)
			b.Set(r.Intn(n), i, r.Int63n(5)+1)
		}
	}
	return a, b, a.Mul(b)
}

func TestTensorCSDistributedEqualsDirect(t *testing.T) {
	a, b, c := randomSparseProduct(400, 40, 2)
	ts := NewTensorCS(rng.New(401), 40, 40, 40, c.L0(), 5)
	direct := ts.SketchDirect(c)
	distributed := ts.SketchFromCompressed(a, ts.ColCompress(b))
	if len(direct) != len(distributed) {
		t.Fatal("sketch length mismatch")
	}
	for i := range direct {
		if direct[i] != distributed[i] {
			t.Fatalf("sketch mismatch at %d: %d vs %d", i, direct[i], distributed[i])
		}
	}
}

func TestTensorCSExactRecovery(t *testing.T) {
	a, b, c := randomSparseProduct(402, 48, 2)
	ts := NewTensorCS(rng.New(403), 48, 48, 48, c.L0(), 7)
	sk := ts.SketchFromCompressed(a, ts.ColCompress(b))
	got := intmat.NewSparse(48, 48, ts.Decode(sk)).ToDense()
	if !got.Equal(c) {
		diff := 0
		for i := 0; i < 48; i++ {
			for j := 0; j < 48; j++ {
				if got.Get(i, j) != c.Get(i, j) {
					diff++
				}
			}
		}
		t.Fatalf("decode differs from C in %d cells (‖C‖0=%d)", diff, c.L0())
	}
}

func TestTensorCSPointQueryOnKnownEntries(t *testing.T) {
	a, b, c := randomSparseProduct(404, 32, 3)
	ts := NewTensorCS(rng.New(405), 32, 32, 32, c.L0(), 7)
	sk := ts.SketchFromCompressed(a, ts.ColCompress(b))
	wrong := 0
	for _, e := range c.NonZeros() {
		if got := ts.PointQuery(sk, e.I, e.J); got != e.V {
			wrong++
		}
	}
	if wrong > 0 {
		t.Fatalf("%d/%d point queries wrong", wrong, c.L0())
	}
}

func TestTensorCSNegativeEntries(t *testing.T) {
	a := intmat.NewDense(10, 10)
	b := intmat.NewDense(10, 10)
	a.Set(0, 0, -3)
	a.Set(5, 2, 7)
	b.Set(0, 1, 4)
	b.Set(2, 9, -2)
	c := a.Mul(b)
	ts := NewTensorCS(rng.New(406), 10, 10, 10, 4, 7)
	sk := ts.SketchFromCompressed(a, ts.ColCompress(b))
	got := intmat.NewSparse(10, 10, ts.Decode(sk)).ToDense()
	if !got.Equal(c) {
		t.Fatal("negative-entry recovery failed")
	}
}

func TestTensorCSZeroMatrix(t *testing.T) {
	a := intmat.NewDense(8, 8)
	b := intmat.NewDense(8, 8)
	ts := NewTensorCS(rng.New(407), 8, 8, 8, 1, 5)
	sk := ts.SketchFromCompressed(a, ts.ColCompress(b))
	if entries := ts.Decode(sk); len(entries) != 0 {
		t.Fatalf("decoded %d entries from zero product", len(entries))
	}
}

func TestTensorCSRectangular(t *testing.T) {
	// A is 20×30, B is 30×12 — the Section 6 rectangular case.
	r := rng.New(408)
	a := intmat.NewDense(20, 30)
	b := intmat.NewDense(30, 12)
	for i := 0; i < 20; i++ {
		a.Set(i, r.Intn(30), 1+r.Int63n(3))
	}
	for j := 0; j < 12; j++ {
		b.Set(r.Intn(30), j, 1+r.Int63n(3))
	}
	c := a.Mul(b)
	ts := NewTensorCS(rng.New(409), 20, 30, 12, c.L0()+1, 7)
	sk := ts.SketchFromCompressed(a, ts.ColCompress(b))
	got := intmat.NewSparse(20, 12, ts.Decode(sk)).ToDense()
	if !got.Equal(c) {
		t.Fatal("rectangular recovery failed")
	}
}

func TestTensorCSGridSizing(t *testing.T) {
	ts := NewTensorCS(rng.New(410), 100, 100, 100, 25, 5)
	if side := ts.GridSide(); side*side < 16*25 {
		t.Fatalf("grid side %d too small for s=25", side)
	}
	if ts.Reps() != 5 {
		t.Fatal("reps wrong")
	}
	if got, want := ts.CompressedSize(), 5*100*ts.GridSide(); got != want {
		t.Fatalf("CompressedSize = %d, want %d", got, want)
	}
}

func TestBlockAMSMaxEstimate(t *testing.T) {
	r := rng.New(413)
	n := 256
	kappa := 4
	x := make([]int64, n)
	for i := range x {
		x[i] = r.Int63n(5)
	}
	x[130] = 100 // dominant entry
	b := NewBlockAMS(r, n, kappa*kappa, 5, 24)
	est := b.EstimateMax(b.Apply(x))
	// Estimate must lie in [‖x‖∞, κ·‖x‖∞] up to AMS error.
	if est < 80 || est > float64(kappa)*130 {
		t.Fatalf("BlockAMS estimate %v for ‖x‖∞=100, κ=%d", est, kappa)
	}
}

func TestBlockAMSUnevenLastBlock(t *testing.T) {
	// n not divisible by blockSize must still work.
	b := NewBlockAMS(rng.New(414), 100, 16, 3, 8)
	if len(b.blocks) != 7 {
		t.Fatalf("%d blocks, want 7", len(b.blocks))
	}
	x := make([]int64, 100)
	x[99] = 50
	est := b.EstimateMax(b.Apply(x))
	if est < 25 || est > 100 {
		t.Fatalf("estimate %v for single spike 50", est)
	}
}

func TestBlockAMSLinearity(t *testing.T) {
	b := NewBlockAMS(rng.New(415), 64, 16, 2, 8)
	x := sparseVector(rng.New(12), 64, 10, 9)
	sx := b.Apply(x)
	x2 := make([]int64, 64)
	for i := range x {
		x2[i] = -3 * x[i]
	}
	s2 := b.Apply(x2)
	for i := range sx {
		if -3*sx[i] != s2[i] {
			t.Fatal("BlockAMS not linear")
		}
	}
}
