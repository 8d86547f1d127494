package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// binClient is a client negotiating the binary wire format with srv.
func binClient(srv *httptest.Server) *Client {
	return New(srv.URL, WithAccept(MediaTypeBinary))
}

func uploadDemo(t *testing.T, c *Client, name string, seed uint64, n int) {
	t.Helper()
	if _, err := c.UploadMatrix(context.Background(), name, testBinaryMatrix(seed, n, 0.3)); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryNegotiationEndToEnd drives the whole typed API through a
// binary-negotiating client and requires the exact answers the JSON
// client gets: the codec must be invisible in every result bit.
func TestBinaryNegotiationEndToEnd(t *testing.T) {
	srv, jsonC := newTestServer(t, Config{})
	binC := binClient(srv)
	ctx := context.Background()

	uploadDemo(t, binC, "m", 50, 24)
	seed := uint64(51)
	req := Request{Matrix: "m", Kind: "lp", P: 1, Eps: 0.3, Seed: &seed, A: testBinaryMatrix(52, 24, 0.3)}

	viaBin, err := binC.Estimate(ctx, req)
	if err != nil {
		t.Fatalf("binary estimate: %v", err)
	}
	viaJSON, err := jsonC.Estimate(ctx, req)
	if err != nil {
		t.Fatalf("json estimate: %v", err)
	}
	if viaBin.Estimate != viaJSON.Estimate || viaBin.Bits != viaJSON.Bits || viaBin.Seed != viaJSON.Seed {
		t.Fatalf("binary result %+v != json result %+v", viaBin, viaJSON)
	}

	items, err := binC.EstimateBatch(ctx, []Request{req, {Matrix: "gone", Kind: "lp", A: req.A}})
	if err != nil {
		t.Fatalf("binary batch: %v", err)
	}
	if len(items) != 2 || items[0].Result == nil || items[0].Result.Estimate != viaJSON.Estimate || items[1].Error == "" {
		t.Fatalf("binary batch items %+v", items)
	}

	rep, err := binC.UpdateRows(ctx, "m", UpdateRequest{Updates: []RowUpdate{{Row: 0, Entries: [][2]int64{{1, 1}}}}})
	if err != nil {
		t.Fatalf("binary row update: %v", err)
	}
	if rep.RowsApplied != 1 || rep.Sub != 1 {
		t.Fatalf("binary row update reply %+v", rep)
	}

	// Typed errors survive the binary path: error bodies are always the
	// JSON envelope.
	_, err = binC.Estimate(ctx, Request{Matrix: "absent", Kind: "lp", A: req.A})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Code != "matrix_not_found" {
		t.Fatalf("binary-path error %v, want 404 matrix_not_found", err)
	}
}

// TestContentNegotiationHeaders pins the negotiation rules at the raw
// HTTP level: binary replies require an explicit Accept, wildcard and
// absent Accepts stay JSON, and the request and response sides
// negotiate independently.
func TestContentNegotiationHeaders(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	uploadDemo(t, c, "m", 60, 16)
	seed := uint64(61)
	req := Request{Matrix: "m", Kind: "lp", P: 1, Eps: 0.3, Seed: &seed, A: testBinaryMatrix(62, 16, 0.3)}
	binBody, err := AppendBinary(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	jsonBody, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	post := func(body []byte, contentType, accept string) *http.Response {
		t.Helper()
		hr, err := http.NewRequest("POST", srv.URL+"/v1/estimate", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if contentType != "" {
			hr.Header.Set("Content-Type", contentType)
		}
		if accept != "" {
			hr.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	cases := []struct {
		name        string
		body        []byte
		contentType string
		accept      string
		wantCT      string
	}{
		{"json_in_json_out", jsonBody, "application/json", "", "application/json"},
		{"json_in_wildcard_out", jsonBody, "application/json", "*/*", "application/json"},
		{"json_in_binary_out", jsonBody, "application/json", MediaTypeBinary, MediaTypeBinary},
		{"binary_in_json_out", binBody, MediaTypeBinary, "application/json", "application/json"},
		{"binary_in_binary_out", binBody, MediaTypeBinary, MediaTypeBinary + ", application/json", MediaTypeBinary},
		{"binary_with_params", binBody, MediaTypeBinary + "; v=1", MediaTypeBinary, MediaTypeBinary},
	}
	var want Result
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := post(tc.body, tc.contentType, tc.accept)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, tc.wantCT) {
				t.Fatalf("response Content-Type %q, want %q", ct, tc.wantCT)
			}
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			var res Result
			if tc.wantCT == MediaTypeBinary {
				err = DecodeBinary(raw, &res)
			} else {
				err = json.Unmarshal(raw, &res)
			}
			if err != nil {
				t.Fatalf("decode %s reply: %v", tc.wantCT, err)
			}
			res.Elapsed = 0
			if i == 0 {
				want = res
			} else if !reflect.DeepEqual(res, want) {
				t.Fatalf("negotiated result %+v != baseline %+v", res, want)
			}
		})
	}
}

// TestUnsupportedMediaType415 pins satellite 3: any non-JSON,
// non-binary Content-Type is refused with 415 and the uniform
// error envelope.
func TestUnsupportedMediaType415(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	for _, ct := range []string{"text/csv", "application/xml", "multipart/form-data; boundary=x"} {
		resp, err := http.Post(srv.URL+"/v1/estimate", ct, strings.NewReader("i,j,v"))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("Content-Type %q: status %d, want 415", ct, resp.StatusCode)
		}
		checkEnvelope(t, body, "unsupported_media_type")
	}
	// JSON with parameters and curl's implicit form-urlencoded default
	// (`curl -d` with no -H) both take the JSON path, not 415 — every
	// hand-driven example in docs/API.md depends on the latter.
	for _, ct := range []string{"application/json; charset=utf-16", "application/x-www-form-urlencoded"} {
		resp, err := http.Post(srv.URL+"/v1/estimate", ct, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusUnsupportedMediaType {
			t.Fatalf("Content-Type %q rejected with 415", ct)
		}
	}
}

// TestBinaryClientJSONOnlyServer simulates a fleet mid-rollout: the
// backend answers 415 to the binary wire format. The negotiating
// client must transparently replay the call as JSON, then latch
// JSON-only so later calls skip the doomed binary attempt.
func TestBinaryClientJSONOnlyServer(t *testing.T) {
	e := NewEngine(Config{})
	t.Cleanup(e.Close)
	inner := NewHandler(e)
	var binaryHits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if contentMediaType(r.Header.Get("Content-Type")) == MediaTypeBinary {
			binaryHits.Add(1)
			WriteErrorEnvelope(w, http.StatusUnsupportedMediaType, "unsupported_media_type", "binary wire format not supported")
			return
		}
		r.Header.Del("Accept") // a JSON-only tier never returns binary
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	c := binClient(srv)
	ctx := context.Background()
	uploadDemo(t, c, "m", 70, 16)
	seed := uint64(71)
	req := Request{Matrix: "m", Kind: "lp", P: 1, Eps: 0.3, Seed: &seed, A: testBinaryMatrix(72, 16, 0.3)}
	res1, err := c.Estimate(ctx, req)
	if err != nil {
		t.Fatalf("estimate against JSON-only server: %v", err)
	}
	if got := binaryHits.Load(); got != 1 {
		t.Fatalf("binary attempts before latch: %d, want 1", got)
	}
	// The latch is sticky: no further binary attempts, same answers.
	res2, err := c.Estimate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got := binaryHits.Load(); got != 1 {
		t.Fatalf("binary attempts after latch: %d, want still 1", got)
	}
	if res1.Estimate != res2.Estimate || res1.Bits != res2.Bits {
		t.Fatalf("fallback changed answers: %+v vs %+v", res1, res2)
	}
}

// TestV1OnlySurface pins the single HTTP surface: every documented
// route answers under /v1, and the same path without the prefix is the
// mux's plain 404 — not an alias, not an error envelope.
func TestV1OnlySurface(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	const a = `{"rows":2,"cols":2,"entries":[[0,0,1]]}`
	const query = `{"matrix":"m","kind":"exact","a":` + a + `}`
	for _, rt := range []struct{ method, path, body string }{
		{"PUT", "/matrix/m", `{"rows":2,"cols":2,"entries":[[0,0,1],[1,1,1]]}`},
		{"GET", "/matrices", ""},
		{"POST", "/matrices/c/chunks", `{"op":"begin","rows":2,"cols":2}`},
		{"PATCH", "/matrices/m/rows", `{"row":0,"entries":[[1,1]]}`},
		{"POST", "/estimate", query},
		{"POST", "/estimate/batch", `{"queries":[` + query + `]}`},
		{"GET", "/stats", ""},
		{"GET", "/metrics", ""},
		{"GET", "/healthz", ""},
		{"DELETE", "/matrix/m", ""},
	} {
		for _, prefix := range []string{"", "/v1"} {
			hr, err := http.NewRequest(rt.method, srv.URL+prefix+rt.path, strings.NewReader(rt.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(hr)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			want := http.StatusOK
			if prefix == "" {
				want = http.StatusNotFound
			}
			if resp.StatusCode != want {
				t.Errorf("%s %s%s: status %d, want %d (%.80s)", rt.method, prefix, rt.path, resp.StatusCode, want, body)
			}
			if prefix == "" && string(body) != "404 page not found\n" {
				t.Errorf("%s %s: body %.80q, want the mux's plain 404", rt.method, rt.path, body)
			}
		}
	}
}

// checkEnvelope requires body to be exactly the uniform error
// envelope — one "error" object holding exactly "code" and "message" —
// with the expected code.
func checkEnvelope(t *testing.T, body []byte, wantCode string) {
	t.Helper()
	var top map[string]json.RawMessage
	if err := json.Unmarshal(body, &top); err != nil {
		t.Fatalf("error body is not JSON: %v (%s)", err, body)
	}
	if len(top) != 1 || top["error"] == nil {
		t.Fatalf("error body keys %v, want exactly {error} (%s)", keysOf(top), body)
	}
	var inner map[string]json.RawMessage
	if err := json.Unmarshal(top["error"], &inner); err != nil {
		t.Fatalf("error value is not an object: %v (%s)", err, body)
	}
	if len(inner) != 2 || inner["code"] == nil || inner["message"] == nil {
		t.Fatalf("error object keys %v, want exactly {code, message} (%s)", keysOf(inner), body)
	}
	var code string
	if err := json.Unmarshal(inner["code"], &code); err != nil || code != wantCode {
		t.Fatalf("error code %q (err %v), want %q (%s)", code, err, wantCode, body)
	}
}

func keysOf(m map[string]json.RawMessage) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

// TestErrorCodeTable pins the full error→(status, code) vocabulary.
func TestErrorCodeTable(t *testing.T) {
	cases := []struct {
		err        error
		wantStatus int
		wantCode   string
	}{
		{ErrUnsupportedMedia, http.StatusUnsupportedMediaType, "unsupported_media_type"},
		{ErrBadRequest, http.StatusBadRequest, "bad_request"},
		{ErrBodyTooLarge, http.StatusRequestEntityTooLarge, "body_too_large"},
		{ErrMatrixNotFound, http.StatusNotFound, "matrix_not_found"},
		{ErrUploadNotFound, http.StatusNotFound, "upload_not_found"},
		{ErrConflict, http.StatusConflict, "conflict"},
		{ErrOverloaded, http.StatusTooManyRequests, "overloaded"},
		{ErrClosed, http.StatusServiceUnavailable, "unavailable"},
		{errors.New("anything else"), http.StatusInternalServerError, "internal"},
	}
	for _, tc := range cases {
		status, code := ErrorCode(tc.err)
		if status != tc.wantStatus || code != tc.wantCode {
			t.Errorf("ErrorCode(%v) = (%d, %q), want (%d, %q)", tc.err, status, code, tc.wantStatus, tc.wantCode)
		}
		// Wrapped errors map identically.
		status, code = ErrorCode(wrapErr(tc.err))
		if status != tc.wantStatus || code != tc.wantCode {
			t.Errorf("ErrorCode(wrapped %v) = (%d, %q), want (%d, %q)", tc.err, status, code, tc.wantStatus, tc.wantCode)
		}
	}
}

func wrapErr(err error) error { return &wrapped{err} }

type wrapped struct{ inner error }

func (w *wrapped) Error() string { return "ctx: " + w.inner.Error() }
func (w *wrapped) Unwrap() error { return w.inner }

// TestErrorEnvelopeOverHTTP drives each reachable failure through the
// real server and requires the envelope shape and code on the wire.
func TestErrorEnvelopeOverHTTP(t *testing.T) {
	old := maxBodyBytes
	maxBodyBytes = 1 << 10
	t.Cleanup(func() { maxBodyBytes = old })
	srv, c := newTestServer(t, Config{})
	uploadDemo(t, c, "m", 90, 8)

	do := func(method, path, contentType, body string) (int, []byte) {
		t.Helper()
		hr, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if contentType != "" {
			hr.Header.Set("Content-Type", contentType)
		}
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}

	cases := []struct {
		name        string
		method      string
		path        string
		contentType string
		body        string
		wantStatus  int
		wantCode    string
		wantMessage string // checked when set
	}{
		{"matrix_not_found", "POST", "/v1/estimate", "application/json",
			`{"matrix":"absent","kind":"lp","a":{"rows":1,"cols":1,"entries":[[0,0,1]]}}`,
			http.StatusNotFound, "matrix_not_found", ""},
		{"bad_kind", "POST", "/v1/estimate", "application/json",
			`{"matrix":"m","kind":"nope","a":{"rows":1,"cols":1,"entries":[[0,0,1]]}}`,
			http.StatusBadRequest, "bad_request", ""},
		{"malformed_json", "POST", "/v1/estimate", "application/json", "{not json",
			http.StatusBadRequest, "bad_request", ""},
		{"unknown_field", "POST", "/v1/estimate", "application/json", `{"bogus":1}`,
			http.StatusBadRequest, "bad_request", ""},
		{"unsupported_media", "POST", "/v1/estimate", "text/csv", "i,j,v",
			http.StatusUnsupportedMediaType, "unsupported_media_type", ""},
		{"body_too_large", "POST", "/v1/estimate", "application/json",
			`{"matrix":"m","kind":"lp","a":{"rows":1,"cols":1,"entries":[` +
				strings.Repeat("[0,0,1],", 200) + `[0,0,1]]}}`,
			http.StatusRequestEntityTooLarge, "body_too_large", ""},
		{"delete_absent", "DELETE", "/v1/matrix/absent", "", "",
			http.StatusNotFound, "matrix_not_found", ""},
		{"upload_not_found", "POST", "/v1/matrices/m/chunks", "application/json",
			`{"op":"commit","upload":"nope"}`,
			http.StatusNotFound, "upload_not_found", ""},
		{"duplicate_cell_put", "PUT", "/v1/matrix/d", "application/json",
			`{"rows":2,"cols":2,"entries":[[0,1,1],[1,1,0],[1,1,5]]}`,
			http.StatusBadRequest, "bad_request", "service: bad request: duplicate entry (1, 1)"},
		{"duplicate_cell_query", "POST", "/v1/estimate", "application/json",
			`{"matrix":"m","kind":"exact","a":{"rows":1,"cols":8,"entries":[[0,3,1],[0,3,1]]}}`,
			http.StatusBadRequest, "bad_request", "service: bad request: duplicate entry (0, 3)"},
		// The three refusals of CheckRowUpdates, against the 8×8 "m";
		// gateway.TestGatewayErrorEnvelope requires the same three
		// answers of mpgateway.
		{"patch_row_outside", "PATCH", "/v1/matrices/m/rows", "application/json",
			`{"updates":[{"row":8,"entries":[[0,1]]}]}`,
			http.StatusBadRequest, "bad_request", "service: bad request: row 8 outside 8-row matrix"},
		{"patch_column_outside", "PATCH", "/v1/matrices/m/rows", "application/json",
			`{"updates":[{"row":0,"entries":[[0,1]]},{"row":1,"entries":[[-1,1]]}]}`,
			http.StatusBadRequest, "bad_request", "service: bad request: entry column -1 outside 8-column matrix"},
		{"patch_duplicate_column", "PATCH", "/v1/matrices/m/rows", "application/json",
			`{"row":2,"entries":[[3,1],[5,1],[3,2]],"delta":true}`,
			http.StatusBadRequest, "bad_request", "service: bad request: duplicate column 3 in row 2 update"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := do(tc.method, tc.path, tc.contentType, tc.body)
			if status != tc.wantStatus {
				t.Fatalf("status %d, want %d (%s)", status, tc.wantStatus, body)
			}
			checkEnvelope(t, body, tc.wantCode)
			var env ErrorEnvelope
			if json.Unmarshal(body, &env); tc.wantMessage != "" && env.Error.Message != tc.wantMessage {
				t.Fatalf("message %q, want %q", env.Error.Message, tc.wantMessage)
			}
		})
	}
}
