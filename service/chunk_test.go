package service

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// chunkEntries builds the sparse entries of a small test matrix whose
// values identify their cells, split-friendly by row.
func chunkEntries(n int) [][3]int64 {
	var out [][3]int64
	for i := 0; i < n; i++ {
		out = append(out, [3]int64{int64(i), int64(i % n), int64(i + 1)})
		if i+1 < n {
			out = append(out, [3]int64{int64(i), int64((i + 1) % n), 1})
		}
	}
	return out
}

// TestChunkedUploadLifecycle drives the begin/append/commit path over
// the real HTTP surface and checks the committed matrix serves queries
// exactly like its single-body twin: same catalog info, same estimate
// and bits for a pinned seed.
func TestChunkedUploadLifecycle(t *testing.T) {
	e := newTestEngine(t, Config{})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()
	client := New(srv.URL)
	ctx := context.Background()

	const n = 24
	m := Matrix{Rows: n, Cols: n, Entries: chunkEntries(n)}

	// Single-body twin for reference.
	refInfo, _, err := e.PutMatrix("ref", m)
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(99)
	query := Request{Matrix: "ref", Kind: "lp", P: 1, Eps: 0.3, Seed: &seed, A: testMatrix(5, n, 0.4)}
	refRes, err := e.Estimate(ctx, query)
	if err != nil {
		t.Fatal(err)
	}

	info, err := client.UploadMatrixChunked(ctx, "chunked", m, 7)
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != refInfo.Rows || info.Cols != refInfo.Cols || info.NNZ != refInfo.NNZ ||
		info.Binary != refInfo.Binary || info.NonNeg != refInfo.NonNeg {
		t.Fatalf("chunked catalog %+v differs from single-body %+v", info, refInfo)
	}
	query.Matrix = "chunked"
	res, err := client.Estimate(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != refRes.Estimate || res.Bits != refRes.Bits || res.Rounds != refRes.Rounds {
		t.Fatalf("chunked-upload answer (%v, %d bits) differs from single-body (%v, %d bits)",
			res.Estimate, res.Bits, refRes.Estimate, refRes.Bits)
	}

	st := e.Stats()
	if st.Uploads.Begun != 1 || st.Uploads.Committed != 1 || st.Uploads.Active != 0 {
		t.Fatalf("upload stats %+v, want one begun+committed, none active", st.Uploads)
	}
	if st.Uploads.Chunks == 0 {
		t.Fatalf("upload stats recorded no chunks: %+v", st.Uploads)
	}
	if st.Shard.Shards < 1 {
		t.Fatalf("shard stats missing configured count: %+v", st.Shard)
	}
}

// TestChunkedUploadValidation pins the per-chunk validation rules and
// the token lifecycle errors.
func TestChunkedUploadValidation(t *testing.T) {
	e := newTestEngine(t, Config{})
	up, err := e.BeginUpload("v", 10, 10)
	if err != nil {
		t.Fatal(err)
	}

	badRequest := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrBadRequest) {
			t.Fatalf("%s: got %v, want ErrBadRequest", what, err)
		}
	}
	// Entry outside the declared row range.
	_, err = e.AppendChunk("v", up.Upload, 0, 5, [][3]int64{{7, 0, 1}})
	badRequest("row outside chunk range", err)
	// Column out of bounds.
	_, err = e.AppendChunk("v", up.Upload, 0, 5, [][3]int64{{1, 10, 1}})
	badRequest("column out of bounds", err)
	// Inverted/overflowing ranges.
	_, err = e.AppendChunk("v", up.Upload, 5, 5, nil)
	badRequest("empty range", err)
	_, err = e.AppendChunk("v", up.Upload, 0, 11, nil)
	badRequest("range beyond matrix", err)
	// Duplicate inside one chunk.
	_, err = e.AppendChunk("v", up.Upload, 0, 5, [][3]int64{{1, 1, 1}, {1, 1, 2}})
	badRequest("duplicate within chunk", err)
	// A rejected chunk must not have staged anything: the same cell is
	// still free.
	if _, err := e.AppendChunk("v", up.Upload, 0, 5, [][3]int64{{1, 1, 3}}); err != nil {
		t.Fatalf("append after rejected chunk: %v", err)
	}
	// Duplicate across chunks.
	_, err = e.AppendChunk("v", up.Upload, 0, 5, [][3]int64{{1, 1, 4}})
	badRequest("duplicate across chunks", err)

	// Unknown and consumed tokens.
	if _, err := e.AppendChunk("v", "no-such-token", 0, 1, nil); !errors.Is(err, ErrUploadNotFound) {
		t.Fatalf("unknown token: got %v, want ErrUploadNotFound", err)
	}
	if _, _, err := e.CommitUpload("v", up.Upload); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.CommitUpload("v", up.Upload); !errors.Is(err, ErrUploadNotFound) {
		t.Fatalf("double commit: got %v, want ErrUploadNotFound", err)
	}
	if err := e.AbortUpload("v", up.Upload); !errors.Is(err, ErrUploadNotFound) {
		t.Fatalf("abort after commit: got %v, want ErrUploadNotFound", err)
	}

	// NNZ is counted from the dense form: explicit zeros don't count.
	up2, err := e.BeginUpload("v2", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AppendChunk("v2", up2.Upload, 0, 4, [][3]int64{{0, 0, 5}, {1, 1, 0}}); err != nil {
		t.Fatal(err)
	}
	info, _, err := e.CommitUpload("v2", up2.Upload)
	if err != nil {
		t.Fatal(err)
	}
	if info.NNZ != 1 {
		t.Fatalf("NNZ = %d, want 1 (explicit zeros excluded)", info.NNZ)
	}

	// Dimension and capacity validation at begin.
	if _, err := e.BeginUpload("v3", 0, 4); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("zero rows: got %v, want ErrBadRequest", err)
	}
	if _, err := e.BeginUpload("", 4, 4); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("empty name: got %v, want ErrBadRequest", err)
	}
	if _, err := e.BeginUpload("v4", 1<<13, 1<<13); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("oversized matrix: got %v, want ErrBadRequest", err)
	}
	// Dimensions whose product wraps int64 must be rejected, not panic
	// the dense allocation.
	if _, err := e.BeginUpload("v5", 3037000500, 3037000500); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("overflowing dims: got %v, want ErrBadRequest", err)
	}

	// A token is bound to the name it was begun for: operating on it
	// through another matrix's URL is not-found, and the stage survives.
	up3, err := e.BeginUpload("v6", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AppendChunk("other", up3.Upload, 0, 4, [][3]int64{{0, 0, 1}}); !errors.Is(err, ErrUploadNotFound) {
		t.Fatalf("append via wrong name: got %v, want ErrUploadNotFound", err)
	}
	if _, _, err := e.CommitUpload("other", up3.Upload); !errors.Is(err, ErrUploadNotFound) {
		t.Fatalf("commit via wrong name: got %v, want ErrUploadNotFound", err)
	}
	if err := e.AbortUpload("other", up3.Upload); !errors.Is(err, ErrUploadNotFound) {
		t.Fatalf("abort via wrong name: got %v, want ErrUploadNotFound", err)
	}
	if _, _, err := e.CommitUpload("v6", up3.Upload); err != nil {
		t.Fatalf("commit via right name after wrong-name attempts: %v", err)
	}
}

// TestChunkedUploadGC pins the partial-upload GC: an idle staged upload
// expires after the TTL and frees its MaxUploads slot, and its token is
// dead afterwards.
func TestChunkedUploadGC(t *testing.T) {
	e := newTestEngine(t, Config{UploadTTL: 20 * time.Millisecond, MaxUploads: 1})
	up, err := e.BeginUpload("gc", 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	// The single slot is taken.
	if _, err := e.BeginUpload("gc2", 8, 8); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second begin: got %v, want ErrOverloaded", err)
	}
	time.Sleep(40 * time.Millisecond)
	// The lazy GC on the next operation reclaims the slot…
	if _, err := e.BeginUpload("gc3", 8, 8); err != nil {
		t.Fatalf("begin after TTL: %v", err)
	}
	// …and the expired token is gone.
	if _, err := e.AppendChunk("gc", up.Upload, 0, 1, nil); !errors.Is(err, ErrUploadNotFound) {
		t.Fatalf("append on expired upload: got %v, want ErrUploadNotFound", err)
	}
	if got := e.Stats().Uploads.Expired; got != 1 {
		t.Fatalf("expired count = %d, want 1", got)
	}
}

// TestChunkedUploadStagingBudget pins the staged-element budget: begin
// allocates rows×cols up front, so cheap begin requests cannot pin
// memory past MaxStagedElems, and commits/aborts return their elements
// to the budget.
func TestChunkedUploadStagingBudget(t *testing.T) {
	e := newTestEngine(t, Config{MaxStagedElems: 300, MaxUploads: 8})
	up1, err := e.BeginUpload("b1", 16, 16) // 256 elems
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.BeginUpload("b2", 8, 8); !errors.Is(err, ErrOverloaded) { // 256+64 > 300
		t.Fatalf("begin past budget: got %v, want ErrOverloaded", err)
	}
	if got := e.Stats().Uploads.StagedElems; got != 256 {
		t.Fatalf("staged elems = %d, want 256", got)
	}
	if err := e.AbortUpload("b1", up1.Upload); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Uploads.StagedElems; got != 0 {
		t.Fatalf("staged elems after abort = %d, want 0", got)
	}
	up3, err := e.BeginUpload("b3", 8, 8)
	if err != nil {
		t.Fatalf("begin after budget freed: %v", err)
	}
	if _, _, err := e.CommitUpload("b3", up3.Upload); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Uploads.StagedElems; got != 0 {
		t.Fatalf("staged elems after commit = %d, want 0", got)
	}
}

// TestChunkedUploadConcurrentChurn races chunked uploads of one name
// against estimates and deletes of the same name (run under -race in
// CI): uploads must stay isolated until commit, committed generations
// must never serve a stale cache entry, and every estimate must either
// succeed or fail with "matrix not found" — never a torn matrix.
func TestChunkedUploadConcurrentChurn(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 8, UploadTTL: time.Minute})
	ctx := context.Background()
	const n = 16
	m := Matrix{Rows: n, Cols: n, Entries: chunkEntries(n)}
	query := testMatrix(11, n, 0.4)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < 20; it++ {
				up, err := e.BeginUpload("churn", n, n)
				if err != nil {
					continue // MaxUploads contention is fine
				}
				ok := true
				for lo := 0; lo < n; lo += 4 {
					var entries [][3]int64
					for _, ent := range m.Entries {
						if ent[0] >= int64(lo) && ent[0] < int64(lo+4) {
							entries = append(entries, ent)
						}
					}
					if _, err := e.AppendChunk("churn", up.Upload, lo, lo+4, entries); err != nil {
						ok = false
						break
					}
				}
				if !ok || it%5 == w {
					_ = e.AbortUpload("churn", up.Upload)
					continue
				}
				if _, _, err := e.CommitUpload("churn", up.Upload); err != nil {
					t.Errorf("worker %d: commit: %v", w, err)
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for it := 0; it < 60; it++ {
			seed := uint64(it)
			res, err := e.Estimate(ctx, Request{Matrix: "churn", Kind: "lp", P: 1, Eps: 0.3, Seed: &seed, A: query})
			if err != nil && !errors.Is(err, ErrMatrixNotFound) {
				t.Errorf("estimate: %v", err)
			}
			if err == nil && res.Estimate < 0 {
				t.Errorf("negative estimate %v", res.Estimate)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for it := 0; it < 15; it++ {
			_ = e.DeleteMatrix("churn")
		}
	}()
	wg.Wait()
}

// TestChunkedUploadsConcurrentSameName runs several complete chunked
// uploads of the same name concurrently: each upload stages privately
// under its own token, so all must commit cleanly and the survivor must
// be a complete, valid matrix.
func TestChunkedUploadsConcurrentSameName(t *testing.T) {
	e := newTestEngine(t, Config{MaxUploads: 8})
	ctx := context.Background()
	const n = 16
	m := Matrix{Rows: n, Cols: n, Entries: chunkEntries(n)}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			up, err := e.BeginUpload("same", n, n)
			if err != nil {
				t.Errorf("worker %d: begin: %v", w, err)
				return
			}
			for lo := 0; lo < n; lo += 8 {
				var entries [][3]int64
				for _, ent := range m.Entries {
					if ent[0] >= int64(lo) && ent[0] < int64(lo+8) {
						entries = append(entries, ent)
					}
				}
				if _, err := e.AppendChunk("same", up.Upload, lo, lo+8, entries); err != nil {
					t.Errorf("worker %d: append: %v", w, err)
					return
				}
			}
			if _, _, err := e.CommitUpload("same", up.Upload); err != nil {
				t.Errorf("worker %d: commit: %v", w, err)
			}
		}(w)
	}
	wg.Wait()

	infos := e.Matrices()
	if len(infos) != 1 || infos[0].Name != "same" {
		t.Fatalf("registry %v, want exactly [same]", infos)
	}
	wantNNZ := 0
	for _, ent := range m.Entries {
		if ent[2] != 0 {
			wantNNZ++
		}
	}
	if infos[0].NNZ != wantNNZ {
		t.Fatalf("NNZ = %d, want %d", infos[0].NNZ, wantNNZ)
	}
	seed := uint64(3)
	if _, err := e.Estimate(ctx, Request{Matrix: "same", Kind: "lp", P: 1, Eps: 0.3, Seed: &seed, A: testMatrix(7, n, 0.4)}); err != nil {
		t.Fatalf("estimate after concurrent commits: %v", err)
	}
}

// TestCellSet drives the duplicate detector directly on a matrix whose
// cells straddle word boundaries: every cell is fresh once and a repeat
// after, and a refused chunk unmarks exactly the cells it marked.
func TestCellSet(t *testing.T) {
	const rows, cols = 7, 19 // 133 cells: three words, the last partial
	var s CellSet
	s.Reset(rows, cols)
	for pass, want := range []bool{false, true} {
		for i := int64(0); i < rows; i++ {
			for j := int64(0); j < cols; j++ {
				if got := s.Add(i, j); got != want {
					t.Fatalf("pass %d: Add(%d, %d) = %v, want %v", pass, i, j, got, want)
				}
			}
		}
	}
	s.Reset(rows, cols)
	if s.Add(3, 7) {
		t.Fatal("Reset left a cell marked")
	}
	// (3, 7) is cell 64, the first bit of the second word. The chunk
	// repeats it after marking both neighbours, which must be rolled back.
	err := s.AddAll([][3]int64{{3, 6, 1}, {3, 8, 1}, {3, 7, 1}})
	if !errors.Is(err, ErrBadRequest) || !strings.Contains(err.Error(), "duplicate entry (3, 7)") {
		t.Fatalf("AddAll over a marked cell: %v", err)
	}
	if s.Add(3, 6) || s.Add(3, 8) {
		t.Fatal("a refused chunk left its cells marked")
	}
	if !s.Add(3, 7) {
		t.Fatal("the roll-back cleared a cell marked before the chunk")
	}
}
