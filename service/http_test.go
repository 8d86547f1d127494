package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Client) {
	t.Helper()
	e := NewEngine(cfg)
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	return srv, New(srv.URL)
}

func TestHTTPRoundTrip(t *testing.T) {
	_, client := newTestServer(t, Config{})
	ctx := context.Background()

	info, err := client.UploadMatrix(ctx, "demo", testBinaryMatrix(1, 24, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "demo" || info.Rows != 24 || !info.Binary || !info.NonNeg {
		t.Fatalf("upload info %+v", info)
	}

	seed := uint64(7)
	res, err := client.Estimate(ctx, Request{
		Matrix: "demo", Kind: "lp", P: 1, Eps: 0.3, Seed: &seed,
		A: testBinaryMatrix(2, 24, 0.3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate <= 0 || res.Bits <= 0 || res.Rounds != 2 || res.Seed != seed {
		t.Fatalf("estimate result %+v", res)
	}

	// The same request over HTTP must reproduce bit-for-bit.
	res2, err := client.Estimate(ctx, Request{
		Matrix: "demo", Kind: "lp", P: 1, Eps: 0.3, Seed: &seed,
		A: testBinaryMatrix(2, 24, 0.3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Estimate != res.Estimate || res2.Bits != res.Bits {
		t.Fatalf("not reproducible: %+v vs %+v", res2, res)
	}

	list, err := client.Matrices(ctx)
	if err != nil || len(list) != 1 || list[0].Name != "demo" {
		t.Fatalf("matrices %v err=%v", list, err)
	}

	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 2 || st.Errors != 0 || st.TotalBits != 2*res.Bits {
		t.Fatalf("stats %+v", st)
	}

	if err := client.DeleteMatrix(ctx, "demo"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Estimate(ctx, Request{Matrix: "demo", Kind: "lp", A: testBinaryMatrix(2, 24, 0.3)}); err == nil {
		t.Fatal("estimate against deleted matrix succeeded")
	}
}

func TestHTTPErrorStatuses(t *testing.T) {
	srv, client := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := client.UploadMatrix(ctx, "m", testBinaryMatrix(3, 8, 0.5)); err != nil {
		t.Fatal(err)
	}

	wantStatus := func(err error, want int) {
		t.Helper()
		var apiErr *APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("err %v, want APIError", err)
		}
		if apiErr.Status != want {
			t.Fatalf("status %d, want %d (%s)", apiErr.Status, want, apiErr.Message)
		}
	}

	_, err := client.Estimate(ctx, Request{Matrix: "absent", Kind: "lp", A: testBinaryMatrix(4, 8, 0.5)})
	wantStatus(err, http.StatusNotFound)

	_, err = client.Estimate(ctx, Request{Matrix: "m", Kind: "nope", A: testBinaryMatrix(4, 8, 0.5)})
	wantStatus(err, http.StatusBadRequest)

	err = client.DeleteMatrix(ctx, "absent")
	wantStatus(err, http.StatusNotFound)

	// Malformed JSON body.
	resp, err := http.Post(srv.URL+"/v1/estimate", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", resp.StatusCode)
	}

	// Unknown fields are rejected (catches client/server schema drift).
	resp, err = http.Post(srv.URL+"/v1/estimate", "application/json", strings.NewReader(`{"bogus": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d", resp.StatusCode)
	}

	// Health endpoint.
	resp, err = http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

func TestHTTPBodyTooLarge(t *testing.T) {
	old := maxBodyBytes
	maxBodyBytes = 64
	t.Cleanup(func() { maxBodyBytes = old })
	srv, _ := newTestServer(t, Config{})

	body := `{"matrix":"m","kind":"lp","a":{"rows":1,"cols":1,"entries":[` +
		strings.Repeat("[0,0,1],", 64) + `[0,0,1]]}}`
	resp, err := http.Post(srv.URL+"/v1/estimate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit body: status %d, want 413", resp.StatusCode)
	}
}

func TestHTTPBatchRoundTrip(t *testing.T) {
	_, client := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := client.UploadMatrix(ctx, "m", testBinaryMatrix(170, 16, 0.4)); err != nil {
		t.Fatal(err)
	}
	seed := uint64(171)
	a := testBinaryMatrix(172, 16, 0.4)
	items, err := client.EstimateBatch(ctx, []Request{
		{Matrix: "m", Kind: "lp", P: 1, Eps: 0.3, Seed: &seed, A: a},
		{Matrix: "m", Kind: "exact", A: a},
		{Matrix: "gone", Kind: "lp", A: a},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 || items[0].Result == nil || items[1].Result == nil || items[2].Error == "" {
		t.Fatalf("batch items %+v", items)
	}
	single, err := client.Estimate(ctx, Request{Matrix: "m", Kind: "lp", P: 1, Eps: 0.3, Seed: &seed, A: a})
	if err != nil {
		t.Fatal(err)
	}
	if items[0].Result.Estimate != single.Estimate || items[0].Result.Bits != single.Bits {
		t.Fatalf("batch-over-HTTP result %+v != single %+v", items[0].Result, single)
	}
	// An invalid whole batch is a call error, not per-item.
	if _, err := client.EstimateBatch(ctx, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

// TestClientAuxiliarySurfaces covers the client plumbing the typed
// call tests do not reach: liveness, the exported raw-path JSON
// entry point, explicit upload aborts, the per-request timeout
// option, and the APIError rendering.
func TestClientAuxiliarySurfaces(t *testing.T) {
	srv, client := newTestServer(t, Config{})
	ctx := context.Background()

	if err := client.Health(ctx); err != nil {
		t.Fatalf("Health: %v", err)
	}

	timed := New(srv.URL, WithTimeout(5*time.Second))
	if err := timed.Health(ctx); err != nil {
		t.Fatalf("Health with timeout: %v", err)
	}

	var st Stats
	if err := client.DoJSON(ctx, http.MethodGet, "/v1/stats", nil, &st); err != nil {
		t.Fatalf("DoJSON stats: %v", err)
	}
	if st.Requests < 0 {
		t.Fatalf("DoJSON decoded nothing: %+v", st)
	}

	up, err := client.BeginUpload(ctx, "staged", 4, 4)
	if err != nil {
		t.Fatalf("BeginUpload: %v", err)
	}
	if err := client.AbortUpload(ctx, "staged", up.Upload); err != nil {
		t.Fatalf("AbortUpload: %v", err)
	}
	if _, err := client.CommitUpload(ctx, "staged", up.Upload); err == nil {
		t.Fatal("commit of an aborted upload succeeded")
	}

	apiErr := &APIError{Status: 404, Code: "matrix_not_found", Message: "no such matrix"}
	if got := apiErr.Error(); got != "service: server returned 404: no such matrix" {
		t.Fatalf("APIError.Error() = %q", got)
	}
}

// TestHTTPJSONTrailingBytes pins that a JSON body is exactly one value:
// trailing garbage or a second concatenated object is a 400, as
// trailing bytes after a binary body already are. Whitespace after the
// value (json.Encoder's newline) stays accepted.
func TestHTTPJSONTrailingBytes(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	const m = `{"rows":2,"cols":2,"entries":[[0,0,1]]}`
	for body, want := range map[string]int{
		m + " trailing":  http.StatusBadRequest,
		m + `{"rows":9}`: http.StatusBadRequest,
		m + "]":          http.StatusBadRequest,
		m + " \n\t":      http.StatusOK,
		"\n" + m + "\n":  http.StatusOK,
	} {
		req, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/matrix/t", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("PUT %q: status %d, want %d", body, resp.StatusCode, want)
		}
	}
}
