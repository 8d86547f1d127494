package gateway

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/service"
)

// assertNoBackendStaging pins that chunked uploads stage at the
// gateway: no backend ever saw a begin.
func assertNoBackendStaging(t *testing.T, backends ...*testBackend) {
	t.Helper()
	for _, b := range backends {
		if st := b.engine.Stats().Uploads; st.Begun != 0 {
			t.Fatalf("backend %s staged a chunked upload: %+v", b.addr, st)
		}
	}
}

func TestChunkedUploadFanout(t *testing.T) {
	n := 8
	b1, b2, b3 := startBackend(t), startBackend(t), startBackend(t)
	byAddr := map[string]*testBackend{b1.addr: b1, b2.addr: b2, b3.addr: b3}
	g := newTestGateway(t, 2, b1.addr, b2.addr, b3.addr)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	up, err := g.BeginUpload("m", n, n)
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	if !strings.HasPrefix(up.Upload, "gw-") {
		t.Fatalf("gateway token not minted: %q", up.Upload)
	}
	// Ship the matrix in two row-range chunks.
	var lo, hi [][3]int64
	for _, e := range wire.Entries {
		if e[0] < int64(n/2) {
			lo = append(lo, e)
		} else {
			hi = append(hi, e)
		}
	}
	if _, err := g.AppendChunk("m", up.Upload, 0, n/2, lo); err != nil {
		t.Fatalf("append lo: %v", err)
	}
	// A token begun under one name is unknown under another.
	if _, err := g.AppendChunk("other", up.Upload, n/2, n, hi); !errors.Is(err, service.ErrUploadNotFound) {
		t.Fatalf("append through another name's URL: %v", err)
	}
	info, err := g.AppendChunk("m", up.Upload, n/2, n, hi)
	if err != nil {
		t.Fatalf("append hi: %v", err)
	}
	if info.Entries != len(wire.Entries) || info.NNZ != len(wire.Entries) || info.Chunks != 2 || !info.Expires.After(up.Expires) {
		t.Fatalf("aggregated upload info wrong: %+v", info)
	}
	placed, err := g.CommitUpload(ctx, "m", up.Upload)
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if len(placed.Replicas) != 2 || placed.NNZ != len(wire.Entries) {
		t.Fatalf("placement after chunked commit wrong: %+v", placed)
	}
	for _, addr := range placed.Replicas {
		if !byAddr[addr].holds("m") {
			t.Fatalf("replica %s missing the committed matrix", addr)
		}
	}
	assertNoBackendStaging(t, b1, b2, b3)
	res, err := g.Estimate(ctx, exactReq("m", n))
	if err != nil || res.Estimate != sum {
		t.Fatalf("estimate after chunked commit: res=%v err=%v", res, err)
	}
	// The consumed token is gone.
	if _, err := g.CommitUpload(ctx, "m", up.Upload); !errors.Is(err, service.ErrUploadNotFound) {
		t.Fatalf("re-commit of consumed token: %v", err)
	}
}

// TestChunkedAppendsConcurrent appends one row per goroutine to a single
// token (the staging table is shared by every HTTP handler) and checks
// nothing is lost; it is a -race target.
func TestChunkedAppendsConcurrent(t *testing.T) {
	n := 16
	b1 := startBackend(t)
	g := newTestGateway(t, 1, b1.addr)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	up, err := g.BeginUpload("m", n, n)
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	var wg sync.WaitGroup
	for _, e := range wire.Entries { // testMatrix has one entry per row
		wg.Add(1)
		go func(e [3]int64) {
			defer wg.Done()
			if _, err := g.AppendChunk("m", up.Upload, int(e[0]), int(e[0])+1, [][3]int64{e}); err != nil {
				t.Errorf("append row %d: %v", e[0], err)
			}
		}(e)
	}
	wg.Wait()
	if _, err := g.CommitUpload(ctx, "m", up.Upload); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if res, err := g.Estimate(ctx, exactReq("m", n)); err != nil || res.Estimate != sum {
		t.Fatalf("estimate after concurrent appends: res=%v err=%v", res, err)
	}
}

func TestChunkedUploadAbort(t *testing.T) {
	n := 4
	b1, b2 := startBackend(t), startBackend(t)
	g := newTestGateway(t, 2, b1.addr, b2.addr)

	up, err := g.BeginUpload("m", n, n)
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	if _, err := g.AppendChunk("m", up.Upload, 0, n, identWire(n).Entries); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := g.AbortUpload("m", up.Upload); err != nil {
		t.Fatalf("abort: %v", err)
	}
	if err := g.AbortUpload("m", up.Upload); !errors.Is(err, service.ErrUploadNotFound) {
		t.Fatalf("double abort: %v", err)
	}
	if len(g.Matrices()) != 0 {
		t.Fatal("aborted upload entered the placement table")
	}
	assertNoBackendStaging(t, b1, b2)
}

// TestChunkedAppendRejectIsResendable pins the engines' rule at the
// gateway: a chunk with an out-of-range row range or entry is a 400
// that stages nothing, so the same token takes the corrected chunk and
// commits. A cell repeated across chunks or inside one is refused the
// same way, at append — not by the replicas at commit, after the token
// is spent.
func TestChunkedAppendRejectIsResendable(t *testing.T) {
	n := 4
	b1, b2 := startBackend(t), startBackend(t)
	g, gc := startGatewayServer(t, 2, b1.addr, b2.addr)
	ctx := context.Background()
	is400 := func(err error) bool {
		var apiErr *service.APIError
		return errors.As(err, &apiErr) && apiErr.Status == http.StatusBadRequest
	}

	if _, err := gc.BeginUpload(ctx, "m", 0, n); !is400(err) {
		t.Fatalf("begin with a zero dimension: %v, want 400", err)
	}
	up, err := gc.BeginUpload(ctx, "m", n, n)
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	good := identWire(n).Entries
	for what, bad := range map[string]struct {
		lo, hi  int
		entries [][3]int64
	}{
		"row range past the matrix": {0, n + 1, good},
		"empty row range":           {2, 2, nil},
		"entry row outside range":   {0, n / 2, good},
		"entry column outside":      {0, n, [][3]int64{{0, int64(n), 1}}},
	} {
		if _, err := gc.AppendChunk(ctx, "m", up.Upload, bad.lo, bad.hi, bad.entries); !is400(err) {
			t.Fatalf("%s: %v, want 400", what, err)
		}
	}
	info, err := gc.AppendChunk(ctx, "m", up.Upload, 0, n, good)
	if err != nil || info.Chunks != 1 || info.Entries != n {
		t.Fatalf("corrected chunk after rejects: info=%+v err=%v", info, err)
	}
	if _, err := gc.CommitUpload(ctx, "m", up.Upload); err != nil {
		t.Fatalf("commit after a rejected chunk: %v", err)
	}
	if res, err := g.Estimate(ctx, exactReq("m", n)); err != nil || res.Estimate != float64(n) {
		t.Fatalf("estimate: res=%v err=%v", res, err)
	}

	dup, err := gc.BeginUpload(ctx, "d", n, n)
	if err != nil {
		t.Fatalf("begin d: %v", err)
	}
	if _, err := gc.AppendChunk(ctx, "d", dup.Upload, 0, n/2, good[:n/2]); err != nil {
		t.Fatalf("append d, first half: %v", err)
	}
	for what, bad := range map[string][][3]int64{
		"cell staged by an earlier chunk": good,
		"cell repeated inside the chunk":  append(append([][3]int64{}, good[n/2:]...), good[n-1]),
	} {
		if _, err := gc.AppendChunk(ctx, "d", dup.Upload, 0, n, bad); !is400(err) {
			t.Fatalf("%s: %v, want 400", what, err)
		}
	}
	// The refused chunks marked nothing: their fresh cells are still free.
	info, err = gc.AppendChunk(ctx, "d", dup.Upload, n/2, n, good[n/2:])
	if err != nil || info.Chunks != 2 || info.Entries != n {
		t.Fatalf("corrected chunk after duplicates: info=%+v err=%v", info, err)
	}
	if _, err := gc.CommitUpload(ctx, "d", dup.Upload); err != nil {
		t.Fatalf("commit after a refused duplicate: %v", err)
	}
	if res, err := g.Estimate(ctx, exactReq("d", n)); err != nil || res.Estimate != float64(n) {
		t.Fatalf("estimate d: res=%v err=%v", res, err)
	}
	assertNoBackendStaging(t, b1, b2)
}

func TestChunkedCommitAllOrNothing(t *testing.T) {
	n := 4
	good := startBackend(t)
	// A backend that answers probes but refuses every upload.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut {
			http.Error(w, `{"error":"put refused"}`, http.StatusInternalServerError)
			return
		}
		service.WriteJSON(w, http.StatusOK, service.Stats{})
	}))
	t.Cleanup(bad.Close)

	g := newTestGateway(t, 2, good.addr, bad.URL)
	ctx := context.Background()
	up, err := g.BeginUpload("m", n, n)
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	if _, err := g.AppendChunk("m", up.Upload, 0, n, identWire(n).Entries); err != nil {
		t.Fatalf("append: %v", err)
	}
	if _, err := g.CommitUpload(ctx, "m", up.Upload); err == nil {
		t.Fatal("commit with a refusing replica succeeded")
	}
	// All-or-nothing: the good replica's copy was torn down.
	if good.holds("m") {
		t.Fatal("partial commit left a copy on the good replica")
	}
	if len(g.Matrices()) != 0 {
		t.Fatal("failed commit entered the placement table")
	}
	if _, err := g.CommitUpload(ctx, "m", up.Upload); !errors.Is(err, service.ErrUploadNotFound) {
		t.Fatalf("failed commit left its token alive: %v", err)
	}
}

// TestChunkedCommitPicksTargetsAtCommit pins that a backend removed
// from the pool between begin and commit is never in the placement:
// targets are chosen when the staged matrix is placed, not at begin.
func TestChunkedCommitPicksTargetsAtCommit(t *testing.T) {
	n := 4
	b1, b2, b3 := startBackend(t), startBackend(t), startBackend(t)
	g := newTestGateway(t, 2, b1.addr, b2.addr, b3.addr)
	ctx := context.Background()

	up, err := g.BeginUpload("m", n, n)
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	if _, err := g.AppendChunk("m", up.Upload, 0, n, identWire(n).Entries); err != nil {
		t.Fatalf("append: %v", err)
	}
	gone := g.placementTargets("m")[0]
	if _, err := g.RemoveBackend(ctx, gone.id); err != nil {
		t.Fatalf("remove: %v", err)
	}
	placed, err := g.CommitUpload(ctx, "m", up.Upload)
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if len(placed.Replicas) != 2 {
		t.Fatalf("placement after a removal: %v", placed.Replicas)
	}
	for _, id := range placed.Replicas {
		if id == gone.id {
			t.Fatalf("removed backend %s in the placement %v", gone.id, placed.Replicas)
		}
	}
	for _, b := range []*testBackend{b1, b2, b3} {
		if b.addr == gone.id && b.holds("m") {
			t.Fatal("removed backend was sent the matrix")
		}
	}
}

// TestChunkedUploadStagingBounds pins what a client can pin at the
// gateway: the 17th concurrent upload and a begin past the declared-
// element budget both answer 429, and aborting frees the slots.
func TestChunkedUploadStagingBounds(t *testing.T) {
	b1 := startBackend(t)
	g, gc := startGatewayServer(t, 1, b1.addr)
	ctx := context.Background()
	is429 := func(err error) bool {
		var apiErr *service.APIError
		return errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests
	}

	tokens := make(map[string]string)
	for i := 0; i < service.DefaultMaxUploads; i++ {
		name := fmt.Sprintf("m%d", i)
		up, err := gc.BeginUpload(ctx, name, 4, 4)
		if err != nil {
			t.Fatalf("begin %d: %v", i, err)
		}
		tokens[name] = up.Upload
	}
	if _, err := gc.BeginUpload(ctx, "one-too-many", 4, 4); !is429(err) {
		t.Fatalf("begin past the upload cap: %v, want 429", err)
	}
	for name, tok := range tokens {
		if err := gc.AbortUpload(ctx, name, tok); err != nil {
			t.Fatalf("abort %s: %v", name, err)
		}
	}
	// Two maximal declarations fill the element budget exactly; with
	// them staged, even a 1×1 begin is over it.
	side := 1 << 12 // side² = 2^24 = the per-matrix element cap
	for i := 0; i < 2; i++ {
		if _, err := gc.BeginUpload(ctx, fmt.Sprintf("big%d", i), side, side); err != nil {
			t.Fatalf("begin big%d: %v", i, err)
		}
	}
	if _, err := gc.BeginUpload(ctx, "straw", 1, 1); !is429(err) {
		t.Fatalf("begin past the element budget: %v, want 429", err)
	}
	if len(g.Matrices()) != 0 {
		t.Fatal("staging placed something")
	}
	assertNoBackendStaging(t, b1)
}

func TestUploadTTLGC(t *testing.T) {
	b1 := startBackend(t)
	g := New(Config{
		Backends:      []string{b1.addr},
		Replication:   1,
		ProbeInterval: 20 * time.Millisecond,
		UploadTTL:     30 * time.Millisecond,
	})
	t.Cleanup(g.Close)
	up, err := g.BeginUpload("m", 4, 4)
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	time.Sleep(60 * time.Millisecond)
	// The next upload operation runs the lazy GC; the stale token must
	// be gone.
	if _, err := g.AppendChunk("m", up.Upload, 0, 4, nil); !errors.Is(err, service.ErrUploadNotFound) {
		t.Fatalf("expired upload still alive: %v", err)
	}
	if len(g.Matrices()) != 0 {
		t.Fatal("expired upload entered the placement table")
	}
	assertNoBackendStaging(t, b1)
}

func TestBatchScatterGather(t *testing.T) {
	n := 8
	b1, b2, b3 := startBackend(t), startBackend(t), startBackend(t)
	byAddr := map[string]*testBackend{b1.addr: b1, b2.addr: b2, b3.addr: b3}
	g := newTestGateway(t, 2, b1.addr, b2.addr, b3.addr)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	info, err := g.PutMatrix(ctx, "m", wire)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	reqs := make([]service.Request, 20)
	for i := range reqs {
		reqs[i] = exactReq("m", n)
		seed := uint64(1000 + i)
		reqs[i].Seed = &seed
	}
	// One query against an unknown matrix fails in its item, not the
	// call.
	reqs[7] = exactReq("ghost", n)
	items, err := g.EstimateBatch(ctx, reqs)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(items) != len(reqs) {
		t.Fatalf("got %d items for %d queries", len(items), len(reqs))
	}
	for i, item := range items {
		if i == 7 {
			if item.Error == "" || item.Result != nil {
				t.Fatalf("ghost query item: %+v", item)
			}
			continue
		}
		if item.Error != "" || item.Result == nil {
			t.Fatalf("item %d failed: %+v", i, item)
		}
		// Order check: the pinned seed is echoed per result.
		if item.Result.Seed != uint64(1000+i) {
			t.Fatalf("item %d out of order: seed %d", i, item.Result.Seed)
		}
		if item.Result.Estimate != sum {
			t.Fatalf("item %d estimate = %v, want %v", i, item.Result.Estimate, sum)
		}
	}
	// The scatter spread sub-batches across both replicas.
	served := 0
	for _, addr := range info.Replicas {
		if byAddr[addr].engine.Stats().Requests > 0 {
			served++
		}
	}
	if served < 2 {
		t.Fatalf("batch scattered to %d of %d replicas", served, len(info.Replicas))
	}
	if g.Stats().Batches == 0 {
		t.Fatal("batch counter not bumped")
	}
	if _, err := g.EstimateBatch(ctx, nil); !errors.Is(err, service.ErrBadRequest) {
		t.Fatalf("empty batch: %v", err)
	}
}

func TestBatchFailoverFallback(t *testing.T) {
	n := 8
	b1, b2, b3 := startBackend(t), startBackend(t), startBackend(t)
	byAddr := map[string]*testBackend{b1.addr: b1, b2.addr: b2, b3.addr: b3}
	g := newTestGateway(t, 2, b1.addr, b2.addr, b3.addr)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	info, err := g.PutMatrix(ctx, "m", wire)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	byAddr[info.Replicas[0]].stop()
	reqs := make([]service.Request, 12)
	for i := range reqs {
		reqs[i] = exactReq("m", n)
	}
	items, err := g.EstimateBatch(ctx, reqs)
	if err != nil {
		t.Fatalf("batch with a dead replica: %v", err)
	}
	for i, item := range items {
		if item.Error != "" || item.Result == nil || item.Result.Estimate != sum {
			t.Fatalf("item %d not absorbed by failover: %+v", i, item)
		}
	}
}
