package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// diagMatrix is an n×n diagonal wire matrix with value v per entry
// (sum = n·v against an identity query).
func diagMatrix(n int, v int64) Matrix {
	m := Matrix{Rows: n, Cols: n}
	for i := 0; i < n; i++ {
		m.Entries = append(m.Entries, [3]int64{int64(i), int64(i), v})
	}
	return m
}

func exactSum(t *testing.T, e *Engine, name string, n int) float64 {
	t.Helper()
	ident := diagMatrix(n, 1)
	res, err := e.Estimate(context.Background(), Request{Matrix: name, Kind: "exact", A: ident})
	if err != nil {
		t.Fatalf("exact estimate: %v", err)
	}
	return res.Estimate
}

// TestUpdateRowsRetrySurvivesLostReply is the regression test for the
// retry double-apply bug: the server applies a delta PATCH, then the
// connection dies before the reply is written. The retried request
// must be deduplicated by its idempotency key — applied once, answered
// from the remembered reply — not applied a second time.
func TestUpdateRowsRetrySurvivesLostReply(t *testing.T) {
	const n = 6
	e := newTestEngine(t, Config{Workers: 4, Shards: 1})
	if _, _, err := e.PutMatrix("m", diagMatrix(n, 2)); err != nil {
		t.Fatal(err)
	}
	h := NewHandler(e)
	var killed atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPatch && killed.CompareAndSwap(false, true) {
			// Apply the update for real, then sever the connection
			// before a single response byte reaches the client.
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("response writer is not a hijacker")
				return
			}
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
			}
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	client := New(srv.URL, WithRetry(2))
	rep, err := client.UpdateRows(context.Background(), "m", UpdateRequest{
		Updates: []RowUpdate{{Row: 0, Entries: [][2]int64{{0, 5}}}},
		Delta:   true,
	})
	if err != nil {
		t.Fatalf("retried update: %v", err)
	}
	if !killed.Load() {
		t.Fatal("the lost-reply injection never fired")
	}
	if rep.RowsApplied != 1 {
		t.Fatalf("update reply: %+v", rep)
	}
	// One application: 6·2 + 5. A double-applied delta would read 22.
	if got := exactSum(t, e, "m", n); got != 17 {
		t.Fatalf("sum after retried delta = %v, want 17 (applied %v times)", got, (got-12)/5)
	}
	if d := e.Stats().RowUpdates.Dedups; d != 1 {
		t.Fatalf("dedupe count = %d, want 1", d)
	}
}

// TestRetryGatedOnIdempotency checks the client-side half of the fix:
// a transport failure on a non-idempotent method is surfaced after one
// attempt, while idempotent methods still retry.
func TestRetryGatedOnIdempotency(t *testing.T) {
	var patches, gets atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPatch:
			patches.Add(1)
		case http.MethodGet:
			gets.Add(1)
		}
		// Sever every connection: each attempt is a transport failure.
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
			}
		}
	}))
	t.Cleanup(srv.Close)

	client := New(srv.URL, WithRetry(3))
	ctx := context.Background()

	// A raw PATCH has no idempotency key the server could dedupe on:
	// exactly one attempt.
	err := client.Do(ctx, http.MethodPatch, "/matrices/m/rows", UpdateRequest{
		Updates: []RowUpdate{{Row: 0, Entries: [][2]int64{{0, 1}}}},
		Delta:   true,
	}, nil)
	if err == nil {
		t.Fatal("severed PATCH reported success")
	}
	if got := patches.Load(); got != 1 {
		t.Fatalf("non-idempotent PATCH attempted %d times, want 1", got)
	}

	// A GET is safe to resend: 1 + 3 retries.
	if err := client.Do(ctx, http.MethodGet, "/matrices", nil, nil); err == nil {
		t.Fatal("severed GET reported success")
	}
	if got := gets.Load(); got != 4 {
		t.Fatalf("idempotent GET attempted %d times, want 4", got)
	}
}

// TestUpdateRowsAutoAssignsKey checks that a retry-enabled client stamps
// an idempotency key on unkeyed row updates (and only then), and never
// overwrites a caller-chosen key.
func TestUpdateRowsAutoAssignsKey(t *testing.T) {
	var lastKey atomic.Uint64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req UpdateRequest
		body, _ := io.ReadAll(r.Body)
		if err := json.Unmarshal(body, &req); err != nil {
			t.Errorf("decode update body: %v", err)
		}
		lastKey.Store(req.Key)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("{}"))
	}))
	t.Cleanup(srv.Close)
	ctx := context.Background()
	upd := UpdateRequest{Updates: []RowUpdate{{Row: 0, Entries: [][2]int64{{0, 1}}}}, Delta: true}

	retrying := New(srv.URL, WithRetry(1))
	if _, err := retrying.UpdateRows(ctx, "m", upd); err != nil {
		t.Fatal(err)
	}
	first := lastKey.Load()
	if first == 0 {
		t.Fatal("retry-enabled client sent an unkeyed non-idempotent update")
	}
	if _, err := retrying.UpdateRows(ctx, "m", upd); err != nil {
		t.Fatal(err)
	}
	if second := lastKey.Load(); second == first {
		t.Fatalf("two updates share idempotency key %d", second)
	}

	plain := New(srv.URL)
	if _, err := plain.UpdateRows(ctx, "m", upd); err != nil {
		t.Fatal(err)
	}
	if got := lastKey.Load(); got != 0 {
		t.Fatalf("non-retrying client invented key %d", got)
	}

	keyed := upd
	keyed.Key = 99
	if _, err := retrying.UpdateRows(ctx, "m", keyed); err != nil {
		t.Fatal(err)
	}
	if got := lastKey.Load(); got != 99 {
		t.Fatalf("caller key overwritten: %d", got)
	}
}

// TestEngineDedupeWindowEvicts checks the dedupe window's FIFO bound:
// a key replayed while remembered answers the cached reply; once
// evicted past the window it applies again.
func TestEngineDedupeWindowEvicts(t *testing.T) {
	const n = 4
	e := newTestEngine(t, Config{Workers: 2, Shards: 1})
	if _, _, err := e.PutMatrix("m", diagMatrix(n, 1)); err != nil {
		t.Fatal(err)
	}
	delta := func(key uint64) UpdateRequest {
		return UpdateRequest{
			Updates: []RowUpdate{{Row: 0, Entries: [][2]int64{{1, 1}}}},
			Delta:   true, Key: key,
		}
	}
	if _, err := e.UpdateRows("m", delta(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.UpdateRows("m", delta(1)); err != nil {
		t.Fatal(err)
	}
	if got := exactSum(t, e, "m", n); got != 5 {
		t.Fatalf("sum after deduped replay = %v, want 5", got)
	}
	if d := e.Stats().RowUpdates.Dedups; d != 1 {
		t.Fatalf("dedupe count = %d, want 1", d)
	}
	// Push key 1 out of the window, then replay it: it must apply.
	for k := uint64(2); k < updateDedupeWindow+2; k++ {
		if _, err := e.UpdateRows("m", delta(k)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.UpdateRows("m", delta(1)); err != nil {
		t.Fatal(err)
	}
	want := float64(4 + 1 + updateDedupeWindow + 1)
	if got := exactSum(t, e, "m", n); got != want {
		t.Fatalf("sum after eviction replay = %v, want %v", got, want)
	}
}

// TestOverloadShedCarriesRetryAfter fills the admission queue and
// checks that the shed reply is a 429 whose Retry-After the typed
// client surfaces — the pacing hint satellite of the retry pass.
func TestOverloadShedCarriesRetryAfter(t *testing.T) {
	const n = 4
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 1})
	if _, _, err := e.PutMatrix("m", diagMatrix(n, 1)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(srv.Close)

	// Occupy the single worker slot, then park a second admission in
	// the queue so the next arrival sheds.
	release, err := e.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		if rel, err := e.admit(ctx); err == nil {
			rel()
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for len(e.queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queued admission never parked")
		}
		time.Sleep(time.Millisecond)
	}
	defer func() { cancel(); <-parked }()

	client := New(srv.URL)
	_, err = client.Estimate(context.Background(), Request{Matrix: "m", Kind: "exact", A: diagMatrix(n, 1)})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("saturated estimate error = %v, want a 429 APIError", err)
	}
	if apiErr.RetryAfter < time.Second {
		t.Fatalf("shed Retry-After = %v, want ≥ 1s", apiErr.RetryAfter)
	}
}

// TestEngineRetryAfterFloor checks the hint derivation: with no queue
// history the pacing floor is one second.
func TestEngineRetryAfterFloor(t *testing.T) {
	e := newTestEngine(t, Config{})
	if got := e.RetryAfter(); got != time.Second {
		t.Fatalf("idle RetryAfter = %v, want 1s", got)
	}
}
