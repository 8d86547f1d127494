package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
)

// twinEngines returns a cache-enabled engine and a cache-disabled
// reference engine with otherwise identical configuration.
func twinEngines(t *testing.T, cfg Config) (cached, fresh *Engine) {
	t.Helper()
	cached = newTestEngine(t, cfg)
	ref := cfg
	ref.DisableCache = true
	fresh = newTestEngine(t, ref)
	return cached, fresh
}

// TestCacheHitMatchesFreshRun is the service-level half of the parity
// guarantee: for every kind, a cache-hit answer must be identical —
// estimate, witnesses, bits, rounds — to the uncached engine's answer
// for the same seed, and repeat queries must actually hit.
func TestCacheHitMatchesFreshRun(t *testing.T) {
	cached, fresh := twinEngines(t, Config{})
	served := testBinaryMatrix(70, 24, 0.3)
	for _, e := range []*Engine{cached, fresh} {
		if _, _, err := e.PutMatrix("b", served); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	seed := uint64(71)
	reqs := []Request{
		{Matrix: "b", Kind: "lp", P: 1, Eps: 0.3, Seed: &seed, A: testMatrix(72, 24, 0.3)},
		{Matrix: "b", Kind: "l0sample", Eps: 0.5, Seed: &seed, A: testBinaryMatrix(73, 24, 0.3)},
		{Matrix: "b", Kind: "l1sample", Seed: &seed, A: testBinaryMatrix(74, 24, 0.3)},
		{Matrix: "b", Kind: "exact", Seed: &seed, A: testBinaryMatrix(74, 24, 0.3)},
		{Matrix: "b", Kind: "linf", Eps: 0.5, Seed: &seed, A: testBinaryMatrix(75, 24, 0.3)},
		{Matrix: "b", Kind: "linfkappa", Kappa: 4, Seed: &seed, A: testBinaryMatrix(75, 24, 0.3)},
		{Matrix: "b", Kind: "hh", Phi: 0.3, Eps: 0.15, Seed: &seed, A: testMatrix(76, 24, 0.3)},
	}
	for _, req := range reqs {
		want, err := fresh.Estimate(ctx, req)
		if err != nil {
			t.Fatalf("%s fresh: %v", req.Kind, err)
		}
		first, err := cached.Estimate(ctx, req) // miss: builds the state
		if err != nil {
			t.Fatalf("%s miss: %v", req.Kind, err)
		}
		hit, err := cached.Estimate(ctx, req) // hit: serves the cached state
		if err != nil {
			t.Fatalf("%s hit: %v", req.Kind, err)
		}
		for _, got := range []*Result{first, hit} {
			if got.Estimate != want.Estimate || got.I != want.I || got.J != want.J ||
				got.Witness != want.Witness || got.Bits != want.Bits || got.Rounds != want.Rounds ||
				len(got.Entries) != len(want.Entries) {
				t.Fatalf("%s: cached answer %+v != fresh %+v", req.Kind, got, want)
			}
		}
	}
	cs := cached.Stats().Cache
	if cs.Hits < int64(len(reqs)) {
		t.Fatalf("cache hits = %d, want ≥ %d (%+v)", cs.Hits, len(reqs), cs)
	}
	if cs.Entries == 0 || cs.Bytes <= 0 {
		t.Fatalf("cache retained nothing: %+v", cs)
	}
	if fs := fresh.Stats().Cache; fs != (CacheStats{}) {
		t.Fatalf("disabled cache reported stats %+v", fs)
	}
}

// TestCacheBytesCountLpView: an lp entry's bytes are summed live, so
// once a query has served, CacheStats.Bytes holds the state's Alice's
// round-1 view beside the state — n·reps·width words of 4 bytes at
// p = 1, ε = 0.25 (5 repetitions of 33 words) — and a cache hit, which
// reuses the view, adds nothing.
func TestCacheBytesCountLpView(t *testing.T) {
	const n = 64
	e := newTestEngine(t, Config{})
	served := testBinaryMatrix(86, n, 0.3)
	if _, _, err := e.PutMatrix("b", served); err != nil {
		t.Fatal(err)
	}
	b, _, _, err := served.List()
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(87)
	st, err := core.NewBobLpState(b, 1, core.LpOpts{Eps: 0.25, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	want := st.Bytes() + 5*n*33*4
	req := Request{Matrix: "b", Kind: "lp", P: 1, Eps: 0.25, Seed: &seed, A: testBinaryMatrix(88, n, 0.1)}
	for q := 0; q < 2; q++ {
		if _, err := e.Estimate(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		if got := e.Stats().Cache.Bytes; got != want {
			t.Fatalf("query %d: cache holds %d bytes, the state %d and the view %d", q, got, st.Bytes(), want-st.Bytes())
		}
	}
}

// TestCacheUnpinnedSeedsShareEpoch pins the epoch-seed policy: without
// a pinned seed, repeat queries on a cache-enabled engine share the
// epoch's seed (and therefore the cached transcript), while the
// uncached engine strides its per-job sequence.
func TestCacheUnpinnedSeedsShareEpoch(t *testing.T) {
	cached, fresh := twinEngines(t, Config{})
	for _, e := range []*Engine{cached, fresh} {
		if _, _, err := e.PutMatrix("b", testBinaryMatrix(80, 16, 0.4)); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	req := Request{Matrix: "b", Kind: "lp", P: 1, Eps: 0.3, A: testBinaryMatrix(81, 16, 0.4)}
	c1, _ := cached.Estimate(ctx, req)
	c2, _ := cached.Estimate(ctx, req)
	if c1 == nil || c2 == nil || c1.Seed != c2.Seed || c1.Estimate != c2.Estimate {
		t.Fatalf("cached unpinned queries diverged: %+v vs %+v", c1, c2)
	}
	f1, _ := fresh.Estimate(ctx, req)
	f2, _ := fresh.Estimate(ctx, req)
	if f1 == nil || f2 == nil || f1.Seed == f2.Seed {
		t.Fatalf("uncached unpinned queries shared a seed: %+v vs %+v", f1, f2)
	}
}

// TestSeedEpochRotation pins the rotation knob: after SeedRotateEvery
// cached-path lookups the epoch advances, unpinned queries draw fresh
// coins, and the cache flushes.
func TestSeedEpochRotation(t *testing.T) {
	e := newTestEngine(t, Config{SeedRotateEvery: 2})
	if _, _, err := e.PutMatrix("b", testBinaryMatrix(85, 16, 0.4)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := Request{Matrix: "b", Kind: "lp", P: 1, Eps: 0.3, A: testBinaryMatrix(86, 16, 0.4)}
	r1, err := e.Estimate(ctx, req) // lookup 1 (miss), epoch 0
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Estimate(ctx, req) // lookup 2 (hit), rotation fires after it
	if err != nil {
		t.Fatal(err)
	}
	if r1.Seed != r2.Seed {
		t.Fatalf("same-epoch seeds differ: %d vs %d", r1.Seed, r2.Seed)
	}
	st := e.Stats().Cache
	if st.SeedEpoch != 1 {
		t.Fatalf("epoch = %d after rotation, want 1", st.SeedEpoch)
	}
	if st.Entries != 0 {
		t.Fatalf("rotation left %d cache entries", st.Entries)
	}
	r3, err := e.Estimate(ctx, req) // epoch 1: fresh coins
	if err != nil {
		t.Fatal(err)
	}
	if r3.Seed == r1.Seed {
		t.Fatalf("post-rotation seed %d unchanged", r3.Seed)
	}
}

// TestCacheInvalidation pins the three invalidation paths: replacing a
// matrix, deleting it, and losing it to registry LRU eviction must all
// drop its cached states — and after a replace, answers must reflect
// the new matrix, never a cached sketch of the old one.
func TestCacheInvalidation(t *testing.T) {
	ctx := context.Background()
	seed := uint64(90)

	t.Run("replace", func(t *testing.T) {
		cached, fresh := twinEngines(t, Config{})
		old := testBinaryMatrix(91, 16, 0.4)
		next := testBinaryMatrix(92, 16, 0.6)
		req := Request{Matrix: "b", Kind: "lp", P: 1, Eps: 0.3, Seed: &seed, A: testBinaryMatrix(93, 16, 0.4)}

		if _, _, err := cached.PutMatrix("b", old); err != nil {
			t.Fatal(err)
		}
		if _, err := cached.Estimate(ctx, req); err != nil { // populate the cache
			t.Fatal(err)
		}
		if _, _, err := cached.PutMatrix("b", next); err != nil {
			t.Fatal(err)
		}
		if st := cached.Stats().Cache; st.Entries != 0 {
			t.Fatalf("replace left %d cache entries", st.Entries)
		}
		if _, _, err := fresh.PutMatrix("b", next); err != nil {
			t.Fatal(err)
		}
		got, err := cached.Estimate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Estimate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if got.Estimate != want.Estimate || got.Bits != want.Bits {
			t.Fatalf("post-replace answer %+v served stale state (fresh: %+v)", got, want)
		}
	})

	t.Run("delete", func(t *testing.T) {
		e := newTestEngine(t, Config{})
		if _, _, err := e.PutMatrix("b", testBinaryMatrix(94, 16, 0.4)); err != nil {
			t.Fatal(err)
		}
		req := Request{Matrix: "b", Kind: "exact", A: testBinaryMatrix(95, 16, 0.4)}
		if _, err := e.Estimate(ctx, req); err != nil {
			t.Fatal(err)
		}
		if err := e.DeleteMatrix("b"); err != nil {
			t.Fatal(err)
		}
		if st := e.Stats().Cache; st.Entries != 0 {
			t.Fatalf("delete left %d cache entries", st.Entries)
		}
		if _, err := e.Estimate(ctx, req); !errors.Is(err, ErrMatrixNotFound) {
			t.Fatalf("query after delete: %v", err)
		}
	})

	t.Run("lru-eviction", func(t *testing.T) {
		e := newTestEngine(t, Config{MaxMatrices: 1})
		if _, _, err := e.PutMatrix("a", testBinaryMatrix(96, 16, 0.4)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Estimate(ctx, Request{Matrix: "a", Kind: "exact", A: testBinaryMatrix(97, 16, 0.4)}); err != nil {
			t.Fatal(err)
		}
		if st := e.Stats().Cache; st.Entries == 0 {
			t.Fatal("expected a cached entry for a")
		}
		if _, evicted, err := e.PutMatrix("b", testBinaryMatrix(98, 16, 0.4)); err != nil || len(evicted) != 1 {
			t.Fatalf("evicted %v err=%v", evicted, err)
		}
		if st := e.Stats().Cache; st.Entries != 0 {
			t.Fatalf("eviction left %d cache entries", st.Entries)
		}
	})
}

// TestCacheCapacityEviction pins the cache's own LRU bound.
func TestCacheCapacityEviction(t *testing.T) {
	e := newTestEngine(t, Config{CacheCapacity: 2})
	if _, _, err := e.PutMatrix("b", testBinaryMatrix(100, 16, 0.4)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a := testBinaryMatrix(101, 16, 0.4)
	// Three distinct lp fingerprints (different seeds) against capacity 2.
	for i := uint64(0); i < 3; i++ {
		seed := 200 + i
		if _, err := e.Estimate(ctx, Request{Matrix: "b", Kind: "lp", P: 1, Eps: 0.3, Seed: &seed, A: a}); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats().Cache; st.Entries != 2 {
		t.Fatalf("cache holds %d entries, capacity 2 (%+v)", st.Entries, st)
	}
}

// TestCacheConcurrentMutation races cached queries against matrix
// replacement and deletion (run under -race). Afterwards a final
// reference comparison proves no stale cached state survived the
// churn.
func TestCacheConcurrentMutation(t *testing.T) {
	cached, fresh := twinEngines(t, Config{Workers: 8, QueueDepth: 1024, SeedRotateEvery: 16})
	ctx := context.Background()
	seed := uint64(110)
	kinds := []string{"lp", "exact", "l1sample", "l0sample"}
	query := func(e *Engine, name string, i int) (*Result, error) {
		req := Request{
			Matrix: name, Kind: kinds[i%len(kinds)], P: 1, Eps: 0.4,
			A: testBinaryMatrix(uint64(120+i%4), 16, 0.4),
		}
		if i%2 == 0 {
			req.Seed = &seed
		}
		return e.Estimate(ctx, req)
	}

	if _, _, err := cached.PutMatrix("a", testBinaryMatrix(111, 16, 0.4)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, err := query(cached, "a", w*40+i); err != nil &&
					!errors.Is(err, ErrMatrixNotFound) && !errors.Is(err, ErrOverloaded) {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if i%5 == 4 {
				_ = cached.DeleteMatrix("a")
			}
			if _, _, err := cached.PutMatrix("a", testBinaryMatrix(uint64(130+i%3), 16, 0.4)); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Stale-state check: pin the final upload and compare every kind
	// against the uncached reference engine.
	final := testBinaryMatrix(140, 16, 0.4)
	if _, _, err := cached.PutMatrix("a", final); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fresh.PutMatrix("a", final); err != nil {
		t.Fatal(err)
	}
	for i := range kinds {
		got, err := query(cached, "a", i*2) // even i: pinned seed
		if err != nil {
			t.Fatal(err)
		}
		want, err := query(fresh, "a", i*2)
		if err != nil {
			t.Fatal(err)
		}
		if got.Estimate != want.Estimate || got.Bits != want.Bits {
			t.Fatalf("%s: post-churn answer %+v != reference %+v", kinds[i], got, want)
		}
	}
}
