package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/service"
)

// countingBackend is a real service backend whose handler counts
// binary-wire traffic, so tests can assert the gateway→backend hop
// negotiates the compact format.
type countingBackend struct {
	addr      string
	binaryIn  atomic.Int64 // requests arriving with a binary body
	binaryAsk atomic.Int64 // requests asking for a binary reply
}

func startCountingBackend(t *testing.T) *countingBackend {
	t.Helper()
	e := service.NewEngine(service.Config{Workers: 4})
	inner := service.NewHandler(e)
	cb := &countingBackend{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.Header.Get("Content-Type"), service.MediaTypeBinary) {
			cb.binaryIn.Add(1)
		}
		if service.AcceptsBinary(r) {
			cb.binaryAsk.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	cb.addr = srv.URL
	return cb
}

// TestGatewayBinaryForwarding pins the end-to-end binary path: a
// binary-negotiating client through the gateway gets the same answers
// as a JSON client, and the gateway's backend hop itself speaks the
// binary wire format.
func TestGatewayBinaryForwarding(t *testing.T) {
	n := 8
	cb := startCountingBackend(t)
	g := newTestGateway(t, 1, cb.addr)
	srv := httptest.NewServer(NewHandler(g))
	t.Cleanup(srv.Close)

	jsonC := service.New(srv.URL)
	binC := service.New(srv.URL, service.WithAccept(service.MediaTypeBinary))
	ctx := context.Background()

	wire, sum := testMatrix(n)
	if _, err := binC.UploadMatrix(ctx, "m", wire); err != nil {
		t.Fatalf("binary upload via gateway: %v", err)
	}
	resBin, err := binC.Estimate(ctx, exactReq("m", n))
	if err != nil {
		t.Fatalf("binary estimate via gateway: %v", err)
	}
	resJSON, err := jsonC.Estimate(ctx, exactReq("m", n))
	if err != nil {
		t.Fatalf("json estimate via gateway: %v", err)
	}
	if resBin.Estimate != sum || resJSON.Estimate != sum {
		t.Fatalf("estimates %v / %v, want %v", resBin.Estimate, resJSON.Estimate, sum)
	}
	items, err := binC.EstimateBatch(ctx, []service.Request{exactReq("m", n), exactReq("m", n)})
	if err != nil || len(items) != 2 || items[0].Result.Estimate != sum {
		t.Fatalf("binary batch via gateway: items=%v err=%v", items, err)
	}
	// The backend hop negotiated binary: bodies arrived in the compact
	// format and replies were requested in it, for BOTH front clients —
	// the gateway's codec seam is independent of the front negotiation.
	if cb.binaryIn.Load() == 0 {
		t.Fatal("no binary request bodies reached the backend")
	}
	if cb.binaryAsk.Load() == 0 {
		t.Fatal("no binary replies were requested from the backend")
	}

	// Front-side negotiation at the raw HTTP level: a binary request
	// with an explicit binary Accept gets a binary reply from the
	// gateway.
	body, err := service.AppendBinary(nil, exactReq("m", n))
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest("POST", srv.URL+"/v1/estimate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", service.MediaTypeBinary)
	hr.Header.Set("Accept", service.MediaTypeBinary)
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary estimate: status %d (%s)", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, service.MediaTypeBinary) {
		t.Fatalf("gateway reply Content-Type %q, want binary", ct)
	}
	var res service.Result
	if err := service.DecodeBinary(raw, &res); err != nil {
		t.Fatalf("decode gateway binary reply: %v", err)
	}
	if res.Estimate != sum {
		t.Fatalf("binary reply estimate %v, want %v", res.Estimate, sum)
	}

	// Row updates ride the binary path too (they mutate the served
	// matrix, so they come after every estimate above).
	if _, err := binC.UpdateRows(ctx, "m", service.UpdateRequest{
		Updates: []service.RowUpdate{{Row: 0, Entries: [][2]int64{{1, 2}}}},
	}); err != nil {
		t.Fatalf("binary row update via gateway: %v", err)
	}

}

// gwCheckEnvelope requires body to be exactly the uniform error
// envelope with the expected code.
func gwCheckEnvelope(t *testing.T, body []byte, wantCode string) {
	t.Helper()
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		t.Fatalf("error body is not the envelope: %v (%s)", err, body)
	}
	if env.Error.Code != wantCode {
		t.Fatalf("error code %q, want %q (%s)", env.Error.Code, wantCode, body)
	}
	if env.Error.Message == "" {
		t.Fatalf("empty error message (%s)", body)
	}
}

// TestGatewayErrorEnvelope pins the gateway tier's error vocabulary on
// the wire: its own codes, the service codes it shares, and the
// passthrough of backend envelope codes.
func TestGatewayErrorEnvelope(t *testing.T) {
	n := 4
	b1 := startBackend(t)
	_, gc := startGatewayServer(t, 1, b1.addr)
	ctx := context.Background()
	if _, err := gc.UploadMatrix(ctx, "m", identWire(n)); err != nil {
		t.Fatal(err)
	}

	do := func(baseURL, method, path, contentType, body string) (int, []byte) {
		t.Helper()
		hr, err := http.NewRequest(method, baseURL+path, strings.NewReader(body))
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

	// Unplaced matrix: the gateway's own placement 404.
	status, body := do(gc.BaseURL, "POST", "/v1/estimate", "application/json",
		`{"matrix":"ghost","kind":"exact","a":{"rows":4,"cols":4,"entries":[[0,0,1]]}}`)
	if status != http.StatusNotFound {
		t.Fatalf("unplaced estimate: status %d (%s)", status, body)
	}
	gwCheckEnvelope(t, body, "matrix_not_found")

	// A backend-answered client error passes through with the
	// backend's own envelope code.
	status, body = do(gc.BaseURL, "POST", "/v1/estimate", "application/json",
		`{"matrix":"m","kind":"no-such-kind","a":{"rows":4,"cols":4,"entries":[[0,0,1]]}}`)
	if status != http.StatusBadRequest {
		t.Fatalf("bad kind: status %d (%s)", status, body)
	}
	gwCheckEnvelope(t, body, "bad_request")

	// The three refusals of service.CheckRowUpdates come from the
	// gateway's own check of its retained copy, before any backend is
	// asked — with the status, code and message service's
	// TestErrorEnvelopeOverHTTP requires of mpserver for the same
	// patches of an 8×8 matrix.
	if _, err := gc.UploadMatrix(ctx, "p", identWire(8)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, patch, wantMessage string }{
		{"row outside", `{"updates":[{"row":8,"entries":[[0,1]]}]}`,
			"service: bad request: row 8 outside 8-row matrix"},
		{"column outside", `{"updates":[{"row":0,"entries":[[0,1]]},{"row":1,"entries":[[-1,1]]}]}`,
			"service: bad request: entry column -1 outside 8-column matrix"},
		{"duplicate column", `{"row":2,"entries":[[3,1],[5,1],[3,2]],"delta":true}`,
			"service: bad request: duplicate column 3 in row 2 update"},
	} {
		status, body = do(gc.BaseURL, "PATCH", "/v1/matrices/p/rows", "application/json", tc.patch)
		if status != http.StatusBadRequest {
			t.Fatalf("patch with %s: status %d (%s)", tc.name, status, body)
		}
		gwCheckEnvelope(t, body, "bad_request")
		var env service.ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil || env.Error.Message != tc.wantMessage {
			t.Fatalf("patch with %s: message %q (%v), want %q", tc.name, env.Error.Message, err, tc.wantMessage)
		}
	}

	// Unsupported media type at the gateway tier.
	status, body = do(gc.BaseURL, "POST", "/v1/estimate", "text/csv", "i,j,v")
	if status != http.StatusUnsupportedMediaType {
		t.Fatalf("csv estimate: status %d (%s)", status, body)
	}
	gwCheckEnvelope(t, body, "unsupported_media_type")

	// Unknown backend on the admin surface.
	status, body = do(gc.BaseURL, "POST", "/v1/admin/backends", "application/json",
		`{"op":"drain","addr":"http://nope:1"}`)
	if status != http.StatusNotFound {
		t.Fatalf("drain unknown backend: status %d (%s)", status, body)
	}
	gwCheckEnvelope(t, body, "unknown_backend")

	// Empty pool: placement-shaped calls are 503 no_backends.
	g2 := newTestGateway(t, 1)
	srv2 := httptest.NewServer(NewHandler(g2))
	t.Cleanup(srv2.Close)
	status, body = do(srv2.URL, "PUT", "/v1/matrix/m", "application/json",
		`{"rows":1,"cols":1,"entries":[[0,0,1]]}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("put with no backends: status %d (%s)", status, body)
	}
	gwCheckEnvelope(t, body, "no_backends")

	// Every replica dead: 502 bad_gateway.
	b1.stop()
	status, body = do(gc.BaseURL, "POST", "/v1/estimate", "application/json",
		`{"matrix":"m","kind":"exact","a":{"rows":4,"cols":4,"entries":[[0,0,1]]}}`)
	if status != http.StatusBadGateway {
		t.Fatalf("dead replicas: status %d (%s)", status, body)
	}
	gwCheckEnvelope(t, body, "bad_gateway")
}
