package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/workload"
)

// nonNegMatrix is a non-negative integer matrix (valid for every kind
// but the Boolean-only ones).
func nonNegMatrix(seed uint64, n int, density float64) Matrix {
	return MatrixFromDense(workload.Integer(seed, n, n, density, 3, false))
}

// patchedWire applies a replace-mode row update to a wire matrix
// client-side — the oracle the re-upload comparison engine ingests.
func patchedWire(m Matrix, ups []RowUpdate) Matrix {
	replaced := make(map[int64][][2]int64, len(ups))
	for _, u := range ups {
		replaced[int64(u.Row)] = u.Entries
	}
	out := Matrix{Rows: m.Rows, Cols: m.Cols}
	for _, ent := range m.Entries {
		if _, hit := replaced[ent[0]]; !hit {
			out.Entries = append(out.Entries, ent)
		}
	}
	for _, u := range ups {
		for _, ent := range u.Entries {
			if ent[1] != 0 {
				out.Entries = append(out.Entries, [3]int64{int64(u.Row), ent[0], ent[1]})
			}
		}
	}
	return out
}

// randRowPatch builds a random replace-mode patch for one row.
func randRowPatch(rnd *rand.Rand, row, cols int, nonneg bool) RowUpdate {
	u := RowUpdate{Row: row}
	for j := 0; j < cols; j++ {
		if rnd.Float64() < 0.3 {
			v := rnd.Int63n(3) + 1
			if !nonneg && rnd.Intn(2) == 0 {
				v = -v
			}
			u.Entries = append(u.Entries, [2]int64{int64(j), v})
		}
	}
	return u
}

// TestUpdateRowsMatchesReupload is the engine-level parity test: after
// an incremental update, every kind's estimate — answered from the
// revalidated sketch cache — is identical (same value, same exact bit
// count) to a second engine that ingested the patched matrix through a
// full PutMatrix, for pinned seeds.
func TestUpdateRowsMatchesReupload(t *testing.T) {
	const n = 20
	wire := nonNegMatrix(50, n, 0.3)
	alice := nonNegMatrix(51, n, 0.3)
	seed := uint64(7)

	upd := newTestEngine(t, Config{Shards: 1})
	ref := newTestEngine(t, Config{Shards: 1})
	if _, _, err := upd.PutMatrix("m", wire); err != nil {
		t.Fatal(err)
	}

	kinds := []Request{
		{Matrix: "m", Kind: "lp", P: 1, Eps: 0.4, A: alice, Seed: &seed},
		{Matrix: "m", Kind: "l0sample", Eps: 0.5, A: alice, Seed: &seed},
		{Matrix: "m", Kind: "l1sample", A: alice, Seed: &seed},
		{Matrix: "m", Kind: "exact", A: alice, Seed: &seed},
		{Matrix: "m", Kind: "hh", Phi: 0.3, Eps: 0.15, A: alice, Seed: &seed},
	}
	// Warm the updating engine's cache on the pre-update matrix so the
	// post-update answers exercise the revalidation path, not a cold
	// rebuild.
	for _, req := range kinds {
		if _, err := upd.Estimate(context.Background(), req); err != nil {
			t.Fatalf("warm %s: %v", req.Kind, err)
		}
	}

	rnd := rand.New(rand.NewSource(52))
	ups := []RowUpdate{randRowPatch(rnd, 4, n, true), randRowPatch(rnd, 11, n, true)}
	rep, err := upd.UpdateRows("m", UpdateRequest{Updates: ups})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sub != 1 || rep.RowsApplied != 2 {
		t.Fatalf("update reply: sub %d rows %d, want 1 and 2", rep.Sub, rep.RowsApplied)
	}
	if rep.CacheRefreshed == 0 {
		t.Fatal("no cached states were revalidated")
	}
	if _, _, err := ref.PutMatrix("m", patchedWire(wire, ups)); err != nil {
		t.Fatal(err)
	}

	pre := upd.Stats().Cache
	for _, req := range kinds {
		got, err := upd.Estimate(context.Background(), req)
		if err != nil {
			t.Fatalf("updated %s: %v", req.Kind, err)
		}
		want, err := ref.Estimate(context.Background(), req)
		if err != nil {
			t.Fatalf("reuploaded %s: %v", req.Kind, err)
		}
		if got.Estimate != want.Estimate || got.I != want.I || got.J != want.J || got.Witness != want.Witness {
			t.Errorf("%s: updated answer %+v diverged from reupload %+v", req.Kind, got, want)
		}
		if got.Bits != want.Bits || got.Rounds != want.Rounds {
			t.Errorf("%s: updated cost %d bits/%d rounds, reupload %d/%d", req.Kind, got.Bits, got.Rounds, want.Bits, want.Rounds)
		}
	}
	post := upd.Stats().Cache
	if post.Misses != pre.Misses {
		t.Errorf("post-update queries missed the cache %d times; revalidation should have kept it warm", post.Misses-pre.Misses)
	}
	if post.Hits != pre.Hits+int64(len(kinds)) {
		t.Errorf("post-update hits %d, want %d", post.Hits-pre.Hits, len(kinds))
	}
	ru := upd.Stats().RowUpdates
	if ru.Requests != 1 || ru.Rows != 2 || ru.StatesRefreshed == 0 {
		t.Errorf("row-update stats %+v not recorded", ru)
	}
}

// TestUpdateRowsBinaryKinds: a binary matrix stays binary across an
// update (the ℓ∞ states advance on bit rows derived from the patched
// lists, and answer as after a reupload) and loses its ℓ∞ eligibility
// when an update makes it non-binary.
func TestUpdateRowsBinaryKinds(t *testing.T) {
	const n = 20
	wire := MatrixFromBool(workload.Binary(60, n, n, 0.3))
	alice := MatrixFromBool(workload.Binary(61, n, n, 0.3))
	seed := uint64(9)

	upd := newTestEngine(t, Config{Shards: 1})
	ref := newTestEngine(t, Config{Shards: 1})
	if _, _, err := upd.PutMatrix("b", wire); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"linf", "linfkappa"} {
		req := Request{Matrix: "b", Kind: kind, Eps: 0.5, Kappa: 4, A: alice, Seed: &seed}
		if _, err := upd.Estimate(context.Background(), req); err != nil {
			t.Fatalf("warm %s: %v", kind, err)
		}
	}

	ups := []RowUpdate{{Row: 3, Entries: [][2]int64{{0, 1}, {5, 1}, {17, 1}}}}
	rep, err := upd.UpdateRows("b", UpdateRequest{Updates: ups})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Binary {
		t.Fatal("0/1 update lost the binary flag")
	}
	if rep.CacheRefreshed < 2 {
		t.Fatalf("ℓ∞ states not revalidated: %+v", rep)
	}
	if _, _, err := ref.PutMatrix("b", patchedWire(wire, ups)); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"linf", "linfkappa"} {
		req := Request{Matrix: "b", Kind: kind, Eps: 0.5, Kappa: 4, A: alice, Seed: &seed}
		got, err := upd.Estimate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Estimate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if got.Estimate != want.Estimate || got.Bits != want.Bits {
			t.Errorf("%s: updated %v/%d bits, reupload %v/%d bits", kind, got.Estimate, got.Bits, want.Estimate, want.Bits)
		}
	}

	// Now break binarity: the ℓ∞ states must be dropped and the kind
	// must start rejecting.
	rep, err = upd.UpdateRows("b", UpdateRequest{Updates: []RowUpdate{{Row: 0, Entries: [][2]int64{{0, 5}}}}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Binary {
		t.Fatal("value-5 update kept the binary flag")
	}
	if rep.CacheDropped == 0 {
		t.Fatal("ℓ∞ states survived a binarity-breaking update")
	}
	req := Request{Matrix: "b", Kind: "linf", Eps: 0.5, A: alice, Seed: &seed}
	if _, err := upd.Estimate(context.Background(), req); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("linf against non-binary matrix: got %v, want ErrBadRequest", err)
	}
}

// TestUpdateRowsSignTransition pins the non-negative kinds across a
// sign-breaking update: their cached states are dropped and the kinds
// reject, exactly as they would against a fresh upload of the signed
// matrix.
func TestUpdateRowsSignTransition(t *testing.T) {
	const n = 16
	e := newTestEngine(t, Config{Shards: 1})
	if _, _, err := e.PutMatrix("m", nonNegMatrix(70, n, 0.3)); err != nil {
		t.Fatal(err)
	}
	alice := nonNegMatrix(71, n, 0.3)
	seed := uint64(3)
	if _, err := e.Estimate(context.Background(), Request{Matrix: "m", Kind: "exact", A: alice, Seed: &seed}); err != nil {
		t.Fatal(err)
	}
	rep, err := e.UpdateRows("m", UpdateRequest{Updates: []RowUpdate{{Row: 2, Entries: [][2]int64{{1, -4}}}}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NonNeg {
		t.Fatal("negative update kept the non-negative flag")
	}
	if rep.CacheDropped == 0 {
		t.Fatal("exact state survived a sign-breaking update")
	}
	if _, err := e.Estimate(context.Background(), Request{Matrix: "m", Kind: "exact", A: alice, Seed: &seed}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("exact against signed matrix: got %v, want ErrBadRequest", err)
	}
}

// TestUpdateRowsDeltaAndShorthand covers delta mode and the
// single-patch shorthand body.
func TestUpdateRowsDeltaAndShorthand(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 1})
	wire := Matrix{Rows: 4, Cols: 4, Entries: [][3]int64{{0, 0, 2}, {1, 1, 3}, {2, 2, 1}}}
	if _, _, err := e.PutMatrix("m", wire); err != nil {
		t.Fatal(err)
	}
	row := 1
	// Delta: (1,1) 3 → 5, (1,2) 0 → 7.
	rep, err := e.UpdateRows("m", UpdateRequest{Row: &row, Entries: [][2]int64{{1, 2}, {2, 7}}, Delta: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NNZ != 4 {
		t.Fatalf("NNZ after delta = %d, want 4", rep.NNZ)
	}
	// Delta cancelling a cell to zero: (1,1) 5 → 0.
	rep, err = e.UpdateRows("m", UpdateRequest{Row: &row, Entries: [][2]int64{{1, -5}}, Delta: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NNZ != 3 {
		t.Fatalf("NNZ after cancelling delta = %d, want 3", rep.NNZ)
	}
	if rep.Sub != 2 {
		t.Fatalf("sub-version %d after two updates, want 2", rep.Sub)
	}
	// Exact check through the protocol: C = A·B with A = identity and
	// B's row 1 now (0, 0, 7, 0): ‖AB‖1 = 2+7+1 = 10.
	ident := Matrix{Rows: 4, Cols: 4, Entries: [][3]int64{{0, 0, 1}, {1, 1, 1}, {2, 2, 1}, {3, 3, 1}}}
	res, err := e.Estimate(context.Background(), Request{Matrix: "m", Kind: "exact", A: ident})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 10 {
		t.Fatalf("exact after deltas = %v, want 10", res.Estimate)
	}
}

// TestUpdateRowsValidationAndErrors covers the request-validation
// surface and the conflict primitive.
func TestUpdateRowsValidationAndErrors(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 1})
	if _, _, err := e.PutMatrix("m", nonNegMatrix(80, 8, 0.3)); err != nil {
		t.Fatal(err)
	}
	row := 1
	cases := []struct {
		name string
		req  UpdateRequest
		want error
	}{
		{"empty", UpdateRequest{}, ErrBadRequest},
		{"dup-row", UpdateRequest{Updates: []RowUpdate{{Row: 1}, {Row: 1}}}, ErrBadRequest},
		{"dup-row-shorthand", UpdateRequest{Updates: []RowUpdate{{Row: 1}}, Row: &row}, ErrBadRequest},
		{"row-high", UpdateRequest{Updates: []RowUpdate{{Row: 8}}}, ErrBadRequest},
		{"row-negative", UpdateRequest{Updates: []RowUpdate{{Row: -1}}}, ErrBadRequest},
		{"col-high", UpdateRequest{Updates: []RowUpdate{{Row: 0, Entries: [][2]int64{{8, 1}}}}}, ErrBadRequest},
		{"col-negative", UpdateRequest{Updates: []RowUpdate{{Row: 0, Entries: [][2]int64{{-1, 1}}}}}, ErrBadRequest},
		{"dup-col", UpdateRequest{Updates: []RowUpdate{{Row: 0, Entries: [][2]int64{{2, 1}, {2, 2}}}}}, ErrBadRequest},
	}
	for _, tc := range cases {
		if _, err := e.UpdateRows("m", tc.req); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, err := e.UpdateRows("nope", UpdateRequest{Updates: []RowUpdate{{Row: 0}}}); !errors.Is(err, ErrMatrixNotFound) {
		t.Errorf("unknown matrix: got %v", err)
	}
	if got := e.Stats().RowUpdates; got.Errors != int64(len(cases))+1 {
		t.Errorf("error counter %d, want %d", got.Errors, len(cases)+1)
	}

	// The conflict primitive: replaceIf refuses once the entry changed.
	sm, _ := e.reg.get("m")
	if _, _, err := e.PutMatrix("m", nonNegMatrix(81, 8, 0.3)); err != nil {
		t.Fatal(err)
	}
	if e.reg.replaceIf("m", sm, sm) {
		t.Fatal("replaceIf accepted a stale predecessor")
	}

	e.Close()
	if _, err := e.UpdateRows("m", UpdateRequest{Updates: []RowUpdate{{Row: 0}}}); !errors.Is(err, ErrClosed) {
		t.Errorf("closed engine: got %v", err)
	}
}

// fakeState is a trivially sized bobState for cache-unit tests.
type fakeState struct{ n int64 }

func (f fakeState) Bytes() int64 { return f.n }

// TestSketchCacheRefreshMatrix unit-tests the revalidation sweep: only
// entries of the named matrix at the expected (gen, sub) are advanced;
// stale generations/sub-versions and failed advances are dropped;
// other matrices' entries are untouched.
func TestSketchCacheRefreshMatrix(t *testing.T) {
	c := newSketchCache(16, -1)
	k := func(m string, gen, sub uint64, kind string) cacheKey {
		return cacheKey{matrix: m, gen: gen, sub: sub, kind: kind}
	}
	c.put(k("m", 1, 0, "lp"), fakeState{1})
	c.put(k("m", 1, 0, "exact"), fakeState{2})
	c.put(k("m", 1, 0, "linf"), fakeState{3}) // advance will fail
	c.put(k("m", 0, 0, "lp"), fakeState{4})   // stale generation
	c.put(k("m", 1, 9, "lp"), fakeState{5})   // stale sub-version
	c.put(k("m", 1, 1, "hh"), fakeState{7})   // fresh build already at the new sub
	c.put(k("m", 1, 0, "hh"), fakeState{8})   // migration collides with it
	c.put(k("other", 1, 0, "lp"), fakeState{6})

	refreshed, dropped := c.refreshMatrix("m", 1, 0, 1, func(_ string, st bobState) (bobState, bool) {
		if st.(fakeState).n == 3 {
			return nil, false
		}
		return fakeState{st.(fakeState).n + 100}, true
	})
	if refreshed != 2 || dropped != 4 {
		t.Fatalf("refreshed %d dropped %d, want 2 and 4", refreshed, dropped)
	}
	// The concurrent fresh build at the new sub-version survives intact
	// and the colliding migration was dropped, not orphaned.
	if st, ok := c.tickAndGet(k("m", 1, 1, "hh")); !ok || st.(fakeState).n != 7 {
		t.Fatalf("fresh new-sub entry lost: %v %v", st, ok)
	}
	if c.lru.Len() != len(c.m) {
		t.Fatalf("LRU list (%d) and map (%d) diverged — orphaned element", c.lru.Len(), len(c.m))
	}
	if st, ok := c.tickAndGet(k("m", 1, 1, "lp")); !ok || st.(fakeState).n != 101 {
		t.Fatalf("lp entry not migrated: %v %v", st, ok)
	}
	if st, ok := c.tickAndGet(k("m", 1, 1, "exact")); !ok || st.(fakeState).n != 102 {
		t.Fatalf("exact entry not migrated: %v %v", st, ok)
	}
	for _, stale := range []cacheKey{
		k("m", 1, 0, "lp"), k("m", 1, 0, "linf"), k("m", 0, 0, "lp"), k("m", 1, 9, "lp"), k("m", 1, 1, "linf"),
	} {
		if _, ok := c.tickAndGet(stale); ok {
			t.Fatalf("stale entry survived: %+v", stale)
		}
	}
	if st, ok := c.tickAndGet(k("other", 1, 0, "lp")); !ok || st.(fakeState).n != 6 {
		t.Fatal("unrelated matrix's entry was touched")
	}
}

// TestUpdateRowsHTTP drives the PATCH route end to end through the
// typed client, including the error statuses.
func TestUpdateRowsHTTP(t *testing.T) {
	_, client := newTestServer(t, Config{Shards: 1})
	ctx := context.Background()
	if _, err := client.UploadMatrix(ctx, "m", nonNegMatrix(90, 8, 0.3)); err != nil {
		t.Fatal(err)
	}
	rep, err := client.ReplaceRow(ctx, "m", 2, [][2]int64{{0, 3}, {4, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sub != 1 || rep.RowsApplied != 1 {
		t.Fatalf("reply %+v", rep)
	}
	var apiErr *APIError
	if _, err := client.ReplaceRow(ctx, "m", 99, nil); !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("out-of-range row over HTTP: %v", err)
	}
	if _, err := client.ReplaceRow(ctx, "ghost", 0, nil); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("unknown matrix over HTTP: %v", err)
	}
}

// TestUpdateRowsConcurrentChurn hammers one matrix with concurrent
// updates, estimates, and full replacements under the race detector:
// every estimate must succeed or fail with a recognized condition
// (never a protocol corruption), and the engine must stay consistent.
func TestUpdateRowsConcurrentChurn(t *testing.T) {
	const n = 12
	e := newTestEngine(t, Config{Workers: 8, Shards: 2})
	if _, _, err := e.PutMatrix("m", nonNegMatrix(100, n, 0.3)); err != nil {
		t.Fatal(err)
	}
	alice := nonNegMatrix(101, n, 0.3)
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(200 + w)))
			for i := 0; i < 30; i++ {
				_, err := e.UpdateRows("m", UpdateRequest{Updates: []RowUpdate{randRowPatch(rnd, rnd.Intn(n), n, true)}})
				if err != nil && !errors.Is(err, ErrConflict) {
					errCh <- fmt.Errorf("update: %w", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, _, err := e.PutMatrix("m", nonNegMatrix(uint64(300+i), n, 0.3)); err != nil {
				errCh <- fmt.Errorf("put: %w", err)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				kind := []string{"lp", "exact", "l0sample"}[i%3]
				_, err := e.Estimate(context.Background(), Request{Matrix: "m", Kind: kind, P: 1, Eps: 0.5, A: alice})
				if err != nil && !errors.Is(err, ErrOverloaded) {
					errCh <- fmt.Errorf("estimate %s: %w", kind, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// checkServedAgainstScan holds a served matrix's incrementally kept
// tallies and catalog flags to a fresh scan of its dense form.
func checkServedAgainstScan(t *testing.T, when string, sm *servedMatrix) {
	t.Helper()
	dense := sm.list.ToDense()
	want := scanDense(dense)
	if sm.cells != want {
		t.Fatalf("%s: tallies %+v, a scan counts %+v", when, sm.cells, want)
	}
	if sm.info.NNZ != want.nnz || sm.info.Binary != (want.nonBinary == 0) || sm.info.NonNeg != (want.negative == 0) {
		t.Fatalf("%s: info %+v disagrees with the scan %+v", when, sm.info, want)
	}
}

// TestUpdateRowsFlagsFollowTouchedRows: NNZ, Binary and NonNeg are
// adjusted from the rows an update touches (old row out, new row in),
// never rescanned — so they must equal a scan after every step of a
// randomized replace/delta history that walks the matrix binary →
// integer → binary and non-negative → signed → non-negative, the flags
// turning exactly with the last offending cell, and again after the
// history is replayed from the WAL.
func TestUpdateRowsFlagsFollowTouchedRows(t *testing.T) {
	const n = 12
	rnd := rand.New(rand.NewSource(4100))
	dir := t.TempDir()
	d := openPersistDisk(t, dir, nil)
	e := NewEngine(Config{Store: d, SnapshotEvery: -1, Shards: 1}) // every update stays in the WAL
	if _, _, err := e.PutMatrix("m", testBinaryMatrix(4101, n, 0.3)); err != nil {
		t.Fatal(err)
	}
	served := func() *servedMatrix {
		sm, ok := e.reg.peek("m")
		if !ok {
			t.Fatal("matrix gone")
		}
		return sm
	}
	checkServedAgainstScan(t, "install", served())

	var binarySeen, nonNegSeen []bool // the flags' values, in order of change
	note := func(seen *[]bool, v bool) {
		if len(*seen) == 0 || (*seen)[len(*seen)-1] != v {
			*seen = append(*seen, v)
		}
	}
	step := 0
	apply := func(delta bool, ups ...RowUpdate) {
		t.Helper()
		step++
		rep, err := e.UpdateRows("m", UpdateRequest{Updates: ups, Delta: delta})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		sm := served()
		checkServedAgainstScan(t, fmt.Sprintf("step %d", step), sm)
		if rep.MatrixInfo != sm.info {
			t.Fatalf("step %d: reply carries %+v, the registry %+v", step, rep.MatrixInfo, sm.info)
		}
		note(&binarySeen, sm.info.Binary)
		note(&nonNegSeen, sm.info.NonNeg)
	}
	// palette draws a row patch with values from lo..hi (zero excluded
	// in replace mode means an absent entry; in delta mode it is a
	// no-op entry, which is legal).
	palette := func(row int, lo, hi int64) RowUpdate {
		u := RowUpdate{Row: row}
		for j := 0; j < n; j++ {
			if rnd.Float64() < 0.35 {
				u.Entries = append(u.Entries, [2]int64{int64(j), lo + rnd.Int63n(hi-lo+1)})
			}
		}
		return u
	}
	// cleanse replaces, one row a step, every row holding a cell that
	// bad rejects: the flag may turn only with the last of them.
	cleanse := func(bad func(int64) bool, lo, hi int64) {
		for k := 0; k < n; k++ {
			for _, v := range served().list.ToDense().Row(k) {
				if bad(v) {
					apply(false, palette(k, lo, hi))
					break
				}
			}
		}
	}

	for i := 0; i < 6; i++ { // binary rows, two a batch
		apply(false, palette(rnd.Intn(n/2), 1, 1), palette(n/2+rnd.Intn(n/2), 1, 1))
	}
	for i := 0; i < 6; i++ { // integer rows and integer deltas
		apply(i%2 == 1, palette(rnd.Intn(n), 0, 3))
	}
	cleanse(func(v int64) bool { return v != 0 && v != 1 }, 1, 1)
	for i := 0; i < 6; i++ { // signed rows and signed deltas
		apply(i%2 == 1, palette(rnd.Intn(n), -3, 3))
	}
	cleanse(func(v int64) bool { return v < 0 }, 0, 2)
	cleanse(func(v int64) bool { return v != 0 && v != 1 }, 1, 1)
	// One cell there and back by deltas: 1 → 2 → 1 and 0 → −1 → 0.
	row := RowUpdate{Row: 3, Entries: [][2]int64{{0, 1}, {1, 0}}}
	apply(false, row)
	apply(true, RowUpdate{Row: 3, Entries: [][2]int64{{0, 1}}})
	apply(true, RowUpdate{Row: 3, Entries: [][2]int64{{0, -1}}})
	apply(true, RowUpdate{Row: 3, Entries: [][2]int64{{1, -1}}})
	apply(true, RowUpdate{Row: 3, Entries: [][2]int64{{1, 1}}})

	// Binary is lost to the integer rows, the signed rows, the 2 and
	// the −1, and regained after each; NonNeg to the signed rows and the
	// −1.
	if want := []bool{true, false, true, false, true, false, true, false, true}; fmt.Sprint(binarySeen) != fmt.Sprint(want) {
		t.Fatalf("Binary went through %v, want %v", binarySeen, want)
	}
	if want := []bool{true, false, true, false, true}; fmt.Sprint(nonNegSeen) != fmt.Sprint(want) {
		t.Fatalf("NonNeg went through %v, want %v", nonNegSeen, want)
	}

	// Crash-free restart: the snapshot is the install, every update
	// above is replayed through the same patchServed.
	final := served()
	e.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rd := openPersistDisk(t, dir, nil)
	re := NewEngine(Config{Store: rd, SnapshotEvery: -1, Shards: 1})
	defer re.Close()
	defer rd.Close()
	got, ok := re.reg.peek("m")
	if !ok {
		t.Fatal("matrix not recovered")
	}
	if st := re.Stats().Store; st.ReplayedRecords != int64(step) || st.RecoveryErrors != 0 {
		t.Fatalf("recovery replayed %d records with %d errors, want %d and none", st.ReplayedRecords, st.RecoveryErrors, step)
	}
	checkServedAgainstScan(t, "after WAL replay", got)
	if !got.list.Equal(final.list) || got.cells != final.cells || got.sub != final.sub {
		t.Fatalf("recovered sub %d tallies %+v, live sub %d tallies %+v", got.sub, got.cells, final.sub, final.cells)
	}
}
