package service

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/workload"
)

// testMatrix is a signed integer matrix (valid for lp/l0sample/hh,
// rejected by the non-negative-only kinds).
func testMatrix(seed uint64, n int, density float64) Matrix {
	return MatrixFromDense(workload.Integer(seed, n, n, density, 3, true))
}

func testBinaryMatrix(seed uint64, n int, density float64) Matrix {
	return MatrixFromBool(workload.Binary(seed, n, n, density))
}

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := NewEngine(cfg)
	t.Cleanup(e.Close)
	return e
}

func TestRegistryLRUEviction(t *testing.T) {
	e := newTestEngine(t, Config{MaxMatrices: 2})
	for _, name := range []string{"a", "b"} {
		if _, _, err := e.PutMatrix(name, testMatrix(1, 8, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" via a query so "b" becomes least recently used.
	if _, err := e.Estimate(context.Background(), Request{Matrix: "a", Kind: "lp", P: 1, A: testMatrix(2, 8, 0.5)}); err != nil {
		t.Fatal(err)
	}
	_, evicted, err := e.PutMatrix("c", testMatrix(3, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted %v, want [b]", evicted)
	}
	names := func() []string {
		var out []string
		for _, mi := range e.Matrices() {
			out = append(out, mi.Name)
		}
		return out
	}()
	if len(names) != 2 || names[0] != "c" || names[1] != "a" {
		t.Fatalf("registry = %v, want [c a]", names)
	}
	if e.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", e.Stats().Evictions)
	}
	// Replacing an existing name must not evict.
	if _, evicted, err := e.PutMatrix("c", testMatrix(4, 8, 0.5)); err != nil || len(evicted) != 0 {
		t.Fatalf("replace: evicted=%v err=%v", evicted, err)
	}
}

func TestEstimateKindsEndToEnd(t *testing.T) {
	e := newTestEngine(t, Config{})
	if _, _, err := e.PutMatrix("int", testMatrix(10, 24, 0.3)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.PutMatrix("bool", testBinaryMatrix(11, 24, 0.3)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := []Request{
		{Matrix: "int", Kind: "lp", P: 1, Eps: 0.3, A: testMatrix(12, 24, 0.3)},
		{Matrix: "int", Kind: "lp", P: 0, Eps: 0.4, A: testBinaryMatrix(13, 24, 0.3)},
		{Matrix: "bool", Kind: "l0sample", Eps: 0.5, A: testBinaryMatrix(14, 24, 0.3)},
		{Matrix: "bool", Kind: "l1sample", A: testBinaryMatrix(15, 24, 0.3)},
		{Matrix: "bool", Kind: "exact", A: testBinaryMatrix(16, 24, 0.3)},
		{Matrix: "bool", Kind: "linf", Eps: 0.5, A: testBinaryMatrix(17, 24, 0.3)},
		{Matrix: "bool", Kind: "linfkappa", Kappa: 4, A: testBinaryMatrix(18, 24, 0.3)},
		{Matrix: "bool", Kind: "hh", Phi: 0.3, Eps: 0.15, A: testBinaryMatrix(19, 24, 0.3)},
	}
	for _, req := range cases {
		res, err := e.Estimate(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", req.Kind, err)
		}
		if res.Bits <= 0 || res.Rounds <= 0 {
			t.Fatalf("%s: cost not accounted: %+v", req.Kind, res)
		}
	}
	st := e.Stats()
	if st.Requests != int64(len(cases))+0 || st.Errors != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.PerKind["lp"].Requests != 2 {
		t.Fatalf("per-kind lp = %+v", st.PerKind["lp"])
	}
	if st.LatencyP50 <= 0 || st.LatencyP99 < st.LatencyP50 {
		t.Fatalf("latency percentiles %v %v", st.LatencyP50, st.LatencyP99)
	}
}

func TestSeedReproducibilityAndTransportParity(t *testing.T) {
	seed := uint64(99)
	a := testMatrix(20, 32, 0.2)
	run := func(cfg Config) *Result {
		e := newTestEngine(t, cfg)
		if _, _, err := e.PutMatrix("b", testMatrix(21, 32, 0.2)); err != nil {
			t.Fatal(err)
		}
		res, err := e.Estimate(context.Background(), Request{
			Matrix: "b", Kind: "lp", P: 1, Eps: 0.3, Seed: &seed, A: a,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	inproc1 := run(Config{Transport: InProcess})
	inproc2 := run(Config{Transport: InProcess})
	tcp := run(Config{Transport: TCPLoopback})
	if inproc1.Estimate != inproc2.Estimate || inproc1.Bits != inproc2.Bits {
		t.Fatalf("same seed, different answers: %+v vs %+v", inproc1, inproc2)
	}
	if tcp.Estimate != inproc1.Estimate {
		t.Fatalf("TCP estimate %v != in-process %v", tcp.Estimate, inproc1.Estimate)
	}
	if tcp.Bits != inproc1.Bits || tcp.Rounds != inproc1.Rounds {
		t.Fatalf("TCP cost (%d, %d) != in-process (%d, %d)",
			tcp.Bits, tcp.Rounds, inproc1.Bits, inproc1.Rounds)
	}
}

func TestConcurrentQueries(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 4, QueueDepth: 256})
	if _, _, err := e.PutMatrix("b", testBinaryMatrix(30, 24, 0.3)); err != nil {
		t.Fatal(err)
	}
	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a := testMatrix(uint64(100+i), 24, 0.3)
			for j := 0; j < 4; j++ {
				kind := []string{"lp", "l0sample", "exact", "l1sample"}[j%4]
				req := Request{Matrix: "b", Kind: kind, P: 1, Eps: 0.4, A: a}
				if kind == "exact" || kind == "l1sample" {
					req.A = testBinaryMatrix(uint64(100+i), 24, 0.3)
				}
				if _, err := e.Estimate(context.Background(), req); err != nil && !errors.Is(err, ErrOverloaded) {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := e.Stats().Requests; got == 0 {
		t.Fatal("no requests recorded")
	}
}

func TestBadRequests(t *testing.T) {
	e := newTestEngine(t, Config{})
	if _, _, err := e.PutMatrix("b", testMatrix(40, 16, 0.3)); err != nil {
		t.Fatal(err)
	}
	// ‖AB‖₁ = 2³²·2³¹ + 2³²·2³¹ = 2⁶⁴: every kind that folds Remark 2's
	// totals refuses it rather than answering a wrapped int64.
	if _, _, err := e.PutMatrix("wide", Matrix{Rows: 2, Cols: 1, Entries: [][3]int64{{0, 0, 1 << 31}, {1, 0, 1 << 31}}}); err != nil {
		t.Fatal(err)
	}
	wideA := Matrix{Rows: 1, Cols: 2, Entries: [][3]int64{{0, 0, 1 << 32}, {0, 1, 1 << 32}}}
	ctx := context.Background()
	cases := []struct {
		name string
		req  Request
		want error
	}{
		{"unknown matrix", Request{Matrix: "nope", Kind: "lp", A: testMatrix(41, 16, 0.3)}, ErrMatrixNotFound},
		{"unknown kind", Request{Matrix: "b", Kind: "median", A: testMatrix(41, 16, 0.3)}, ErrBadRequest},
		{"dimension mismatch", Request{Matrix: "b", Kind: "lp", A: testMatrix(41, 8, 0.3)}, ErrBadRequest},
		{"bad p", Request{Matrix: "b", Kind: "lp", P: 7, A: testMatrix(41, 16, 0.3)}, ErrBadRequest},
		{"linf on integer matrix", Request{Matrix: "b", Kind: "linf", A: testBinaryMatrix(41, 16, 0.3)}, ErrBadRequest},
		{"exact on signed matrix", Request{Matrix: "b", Kind: "exact", A: testBinaryMatrix(41, 16, 0.3)}, ErrBadRequest},
		{"out-of-range entry", Request{Matrix: "b", Kind: "lp", A: Matrix{Rows: 16, Cols: 16, Entries: [][3]int64{{20, 0, 1}}}}, ErrBadRequest},
		{"hh phi < eps", Request{Matrix: "b", Kind: "hh", Phi: 0.1, Eps: 0.5, A: testMatrix(41, 16, 0.3)}, ErrBadRequest},
		{"overflow exact", Request{Matrix: "wide", Kind: "exact", A: wideA}, ErrBadRequest},
		{"overflow l1sample", Request{Matrix: "wide", Kind: "l1sample", A: wideA}, ErrBadRequest},
		{"overflow hh", Request{Matrix: "wide", Kind: "hh", A: wideA}, ErrBadRequest},
		{"overflow lp", Request{Matrix: "wide", Kind: "lp", P: 1, A: wideA}, ErrBadRequest},
	}
	for _, tc := range cases {
		_, err := e.Estimate(ctx, tc.req)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err=%v, want %v", tc.name, err, tc.want)
		}
		if strings.HasPrefix(tc.name, "overflow") && (err == nil || !strings.Contains(err.Error(), core.ErrOverflow.Error())) {
			t.Errorf("%s: err=%v, want it to carry %v", tc.name, err, core.ErrOverflow)
		}
	}
	// Bad uploads.
	if _, _, err := e.PutMatrix("", testMatrix(42, 4, 0.5)); !errors.Is(err, ErrBadRequest) {
		t.Errorf("empty name: %v", err)
	}
	if _, _, err := e.PutMatrix("x", Matrix{Rows: -1, Cols: 4}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("negative rows: %v", err)
	}
	// Errors are visible in stats: every query of a known kind counts,
	// however it failed.
	if st := e.Stats(); st.Errors != int64(len(cases))-1 {
		t.Errorf("stats should record protocol errors: %+v", st)
	}
}

func TestClosedEngineRejects(t *testing.T) {
	e := NewEngine(Config{})
	if _, _, err := e.PutMatrix("b", testMatrix(50, 8, 0.5)); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if _, err := e.Estimate(context.Background(), Request{Matrix: "b", Kind: "lp", A: testMatrix(51, 8, 0.5)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("estimate after close: %v", err)
	}
	if _, _, err := e.PutMatrix("c", testMatrix(52, 8, 0.5)); !errors.Is(err, ErrClosed) {
		t.Fatalf("upload after close: %v", err)
	}
	e.Close() // idempotent
}

func TestDeleteMatrix(t *testing.T) {
	e := newTestEngine(t, Config{})
	if _, _, err := e.PutMatrix("b", testMatrix(60, 8, 0.5)); err != nil {
		t.Fatal(err)
	}
	if err := e.DeleteMatrix("b"); err != nil {
		t.Fatal(err)
	}
	if err := e.DeleteMatrix("b"); !errors.Is(err, ErrMatrixNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

// forgedRound1 hands Alice a forged round 1 in place of Bob's on the
// first job only: Bob's Float24 words, as floats, re-encoded through
// forge.
type forgedRound1 struct {
	comm.Transport
	forge func([]float64) []float64
}

func (f *forgedRound1) Recv(dir comm.Direction) *comm.Message {
	msg := f.Transport.Recv(dir)
	if dir != comm.BobToAlice {
		return msg
	}
	words := make([]uint32, msg.Remaining()/3)
	msg.Float24sInto(words)
	v := make([]float64, len(words))
	for i, w := range words {
		v[i] = comm.Float24(w)
	}
	out := comm.NewMessage()
	out.PutFloat24s(f.forge(v))
	return comm.FromBytes(out.Bytes())
}

// TestEngineRefusesForgedRound1: an lp round 1 a word short of the
// sketch family's rows, or carrying a NaN or an infinite word, fails the
// request with a malformed-message error instead of being estimated
// from; the engine goes on serving.
func TestEngineRefusesForgedRound1(t *testing.T) {
	ctx := context.Background()
	for name, forge := range map[string]func([]float64) []float64{
		"a word short": func(v []float64) []float64 { return v[:len(v)-1] },
		"a NaN word":   func(v []float64) []float64 { v[0] = math.NaN(); return v },
		"an Inf word":  func(v []float64) []float64 { v[len(v)-1] = math.Inf(-1); return v },
	} {
		var jobs atomic.Int64
		factory := func() (core.Endpoint, core.Endpoint, func(), error) {
			alice, bob, cleanup, err := InProcess()
			if jobs.Add(1) == 1 {
				alice.T = &forgedRound1{Transport: alice.T, forge: forge}
			}
			return alice, bob, cleanup, err
		}
		e := newTestEngine(t, Config{Transport: factory})
		if _, _, err := e.PutMatrix("b", testBinaryMatrix(170, 64, 0.2)); err != nil {
			t.Fatal(err)
		}
		req := Request{Matrix: "b", Kind: "lp", P: 1, Eps: 0.25, A: testBinaryMatrix(171, 64, 0.05)}
		if _, err := e.Estimate(ctx, req); err == nil || !strings.Contains(err.Error(), "core: malformed protocol message") {
			t.Fatalf("%s: %v, want a malformed-message error", name, err)
		}
		if res, err := e.Estimate(ctx, req); err != nil || res.Estimate <= 0 {
			t.Fatalf("%s: the next query got %+v, %v", name, res, err)
		}
	}
}
