package service

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
)

// The query's matrix never goes dense on the request path: it is
// validated from its wire cells straight into the row lists the drivers
// read, after the refusals that need no listing at all. These tests pin
// what that buys in bytes.

// allocatedBy is the heap f allocates, live or not, in bytes per run.
func allocatedBy(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestMismatchedQueryRefusedBeforeListing: a request of a few bytes whose
// A cannot multiply the served matrix, or whose kind does not exist, is
// answered 400 before A is converted. The conversion used to come first:
// {rows: 4096, cols: 4096, entries: []} zeroed a 128 MiB dense A and a
// 2 MiB cell set against any matrix before the column count was looked
// at.
func TestMismatchedQueryRefusedBeforeListing(t *testing.T) {
	e := newTestEngine(t, Config{})
	if _, _, err := e.PutMatrix("b", testMatrix(50, 16, 0.3)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range []struct {
		name, want string
		req        Request
	}{
		{"columns do not match", `A is 4096x4096 but "b" has 16 rows`,
			Request{Matrix: "b", Kind: "lp", A: Matrix{Rows: 4096, Cols: 4096}}},
		{"unknown kind", `unknown kind "median"`,
			Request{Matrix: "b", Kind: "median", A: Matrix{Rows: 1 << 20, Cols: 16}}},
	} {
		var err error
		got := allocatedBy(1, func() { _, err = e.Estimate(ctx, c.req) })
		if !errors.Is(err, ErrBadRequest) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want a bad request saying %q", c.name, err, c.want)
		}
		if got >= 1<<20 {
			t.Errorf("%s: the refusal allocated %d bytes", c.name, got)
		}
	}
}

// TestSparseQueryAllocationFollowsNonZeros: a valid ten-entry query of
// the largest shape the dimension rule admits costs its rows and its
// non-zeros, not its 2²⁴ cells (128 MiB dense), and is answered right.
func TestSparseQueryAllocationFollowsNonZeros(t *testing.T) {
	const n = 4096
	e := newTestEngine(t, Config{})
	b := Matrix{Rows: n, Cols: 2}
	for k := 0; k < n; k++ {
		b.Entries = append(b.Entries, [3]int64{int64(k), int64(k % 2), int64(k%7 + 1)})
	}
	if _, _, err := e.PutMatrix("b", b); err != nil {
		t.Fatal(err)
	}
	a := Matrix{Rows: n, Cols: n}
	var want int64 // ‖AB‖1 = Σ_k colsum_A(k)·rowsum_B(k) for non-negative matrices
	for x := 0; x < 10; x++ {
		i, k, v := int64(n-1-400*x), int64(409*x+3), int64(x+1)
		a.Entries = append(a.Entries, [3]int64{i, k, v})
		want += v * (k%7 + 1)
	}
	req := Request{Matrix: "b", Kind: "exact", A: a}
	ctx := context.Background()
	if _, err := e.Estimate(ctx, req); err != nil { // Bob's state is built and cached here
		t.Fatal(err)
	}
	var res *Result
	var err error
	got := allocatedBy(1, func() { res, err = e.Estimate(ctx, req) })
	if err != nil || res.Estimate != float64(want) {
		t.Fatalf("estimate %v (%v), want %d", res, err, want)
	}
	// 4 B of row count and 48 B of list header a row, 12 B a non-zero,
	// and the protocol's own n-word vectors on both sides: ~0.5 MiB.
	if got >= 1<<20 {
		t.Fatalf("a %d-entry %dx%d query allocated %d bytes", len(a.Entries), n, n, got)
	}
}

// TestCachedLpQueryAllocation is the acceptance bound of the listing
// change on the benchmark's shape: a cached lp query at n = 512 (B 0.2
// full, A 0.02 full, ε = 0.25) allocated 3.81 MB while A went through a
// dense matrix and a cell set, and 1.58 MB listed directly. Alice's
// round-2 message grown once to its exact size, and Bob keeping each
// distinct sampled row as its bytes on the wire instead of a growing
// copy, brought it to 1.12 MB; the budget is that reading plus 15 %.
func TestCachedLpQueryAllocation(t *testing.T) {
	const n = 512
	e := newTestEngine(t, Config{})
	if _, _, err := e.PutMatrix("b", testBinaryMatrix(60, n, 0.2)); err != nil {
		t.Fatal(err)
	}
	req := Request{Matrix: "b", Kind: "lp", P: 1, Eps: 0.25, A: testBinaryMatrix(61, n, 0.02)}
	ctx := context.Background()
	if _, err := e.Estimate(ctx, req); err != nil { // warms the sketch cache
		t.Fatal(err)
	}
	got := allocatedBy(10, func() {
		if _, err := e.Estimate(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("cached lp query at n = %d: %d bytes allocated", n, got)
	if got > 1_285_000 {
		t.Fatalf("a cached lp query at n = %d allocated %d bytes, budget 1.285 MB", n, got)
	}
}
