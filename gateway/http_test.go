package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/service"
)

// startGatewayServer serves a gateway over real HTTP and returns its
// typed client — the full stack a fleet deployment runs.
func startGatewayServer(t *testing.T, r int, addrs ...string) (*Gateway, *Client) {
	t.Helper()
	g := newTestGateway(t, r, addrs...)
	srv := httptest.NewServer(NewHandler(g))
	t.Cleanup(srv.Close)
	return g, Dial(srv.URL)
}

func TestHTTPFrontMirrorsServiceAPI(t *testing.T) {
	n := 8
	b1, b2, b3 := startBackend(t), startBackend(t), startBackend(t)
	_, gc := startGatewayServer(t, 2, b1.addr, b2.addr, b3.addr)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	// The embedded service.Client drives the gateway unchanged: the
	// front tier is a drop-in service endpoint.
	info, err := gc.UploadMatrix(ctx, "m", wire)
	if err != nil {
		t.Fatalf("upload via client: %v", err)
	}
	if info.Name != "m" || info.NNZ != len(wire.Entries) {
		t.Fatalf("upload info: %+v", info)
	}
	listed, err := gc.Matrices(ctx)
	if err != nil || len(listed) != 1 || listed[0].Name != "m" {
		t.Fatalf("matrices: %v err=%v", listed, err)
	}
	res, err := gc.Estimate(ctx, exactReq("m", n))
	if err != nil || res.Estimate != sum {
		t.Fatalf("estimate via client: res=%v err=%v", res, err)
	}
	items, err := gc.EstimateBatch(ctx, []service.Request{exactReq("m", n), exactReq("m", n)})
	if err != nil || len(items) != 2 || items[0].Result.Estimate != sum {
		t.Fatalf("batch via client: items=%v err=%v", items, err)
	}
	if err := gc.Health(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	// Chunked upload through the generic client helper.
	if _, err := gc.UploadMatrixChunked(ctx, "big", wire, 3); err != nil {
		t.Fatalf("chunked upload via client: %v", err)
	}
	if res, err := gc.Estimate(ctx, exactReq("big", n)); err != nil || res.Estimate != sum {
		t.Fatalf("estimate of chunked upload: res=%v err=%v", res, err)
	}
	if err := gc.DeleteMatrix(ctx, "big"); err != nil {
		t.Fatalf("delete via client: %v", err)
	}
	// Chunk lifecycle steps individually (begin/append/abort).
	up, err := gc.BeginUpload(ctx, "c", n, n)
	if err != nil {
		t.Fatalf("begin via client: %v", err)
	}
	if _, err := gc.AppendChunk(ctx, "c", up.Upload, 0, n, wire.Entries); err != nil {
		t.Fatalf("append via client: %v", err)
	}
	if err := gc.AbortUpload(ctx, "c", up.Upload); err != nil {
		t.Fatalf("abort via client: %v", err)
	}
	up2, err := gc.BeginUpload(ctx, "c2", n, n)
	if err != nil {
		t.Fatalf("begin2 via client: %v", err)
	}
	if _, err := gc.AppendChunk(ctx, "c2", up2.Upload, 0, n, wire.Entries); err != nil {
		t.Fatalf("append2 via client: %v", err)
	}
	if _, err := gc.CommitUpload(ctx, "c2", up2.Upload); err != nil {
		t.Fatalf("commit via client: %v", err)
	}
	if res, err := gc.Estimate(ctx, exactReq("c2", n)); err != nil || res.Estimate != sum {
		t.Fatalf("estimate of committed chunk upload: res=%v err=%v", res, err)
	}
}

func TestHTTPAdminAndStats(t *testing.T) {
	n := 8
	b1, b2 := startBackend(t), startBackend(t)
	_, gc := startGatewayServer(t, 2, b1.addr, b2.addr)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	for _, name := range []string{"m0", "m1", "m2"} {
		if _, err := gc.UploadMatrix(ctx, name, wire); err != nil {
			t.Fatalf("upload %s: %v", name, err)
		}
	}
	backends, err := gc.Backends(ctx)
	if err != nil || len(backends) != 2 {
		t.Fatalf("backends: %v err=%v", backends, err)
	}
	b3 := startBackend(t)
	rep, err := gc.AddBackend(ctx, b3.addr)
	if err != nil || rep.Action != "add" || rep.Backend != b3.addr {
		t.Fatalf("add via client: %+v err=%v", rep, err)
	}
	if backends, _ = gc.Backends(ctx); len(backends) != 3 {
		t.Fatalf("pool after add: %v", backends)
	}
	rep, err = gc.DrainBackend(ctx, b1.addr)
	if err != nil || rep.Action != "drain" {
		t.Fatalf("drain via client: %+v err=%v", rep, err)
	}
	st, err := gc.GatewayStats(ctx)
	if err != nil {
		t.Fatalf("gateway stats: %v", err)
	}
	if st.Replication != 2 || st.Matrices != 3 || len(st.Backends) != 3 {
		t.Fatalf("stats: %+v", st)
	}
	for _, name := range []string{"m0", "m1", "m2"} {
		if res, err := gc.Estimate(ctx, exactReq(name, n)); err != nil || res.Estimate != sum {
			t.Fatalf("estimate %s after admin churn: res=%v err=%v", name, res, err)
		}
	}
	if rep, err = gc.RemoveBackend(ctx, b1.addr); err != nil || rep.Action != "remove" {
		t.Fatalf("remove via client: %+v err=%v", rep, err)
	}
	if backends, _ = gc.Backends(ctx); len(backends) != 2 {
		t.Fatalf("pool after remove: %v", backends)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	n := 4
	b1 := startBackend(t)
	_, gc := startGatewayServer(t, 1, b1.addr)
	ctx := context.Background()

	assertStatus := func(err error, status int, what string) {
		t.Helper()
		var apiErr *service.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != status {
			t.Fatalf("%s: got %v, want HTTP %d", what, err, status)
		}
	}
	// Unknown matrix → 404 from the gateway's own placement check.
	_, err := gc.Estimate(ctx, exactReq("ghost", n))
	assertStatus(err, http.StatusNotFound, "estimate of unplaced matrix")
	// A backend's answered client error passes through with its status.
	if _, err := gc.UploadMatrix(ctx, "m", identWire(n)); err != nil {
		t.Fatalf("upload: %v", err)
	}
	badReq := exactReq("m", n)
	badReq.Kind = "no-such-kind"
	_, err = gc.Estimate(ctx, badReq)
	assertStatus(err, http.StatusBadRequest, "unknown kind")
	// Admin errors.
	_, err = gc.DrainBackend(ctx, "http://nope:1")
	assertStatus(err, http.StatusNotFound, "drain unknown backend")
	err = gc.DoJSON(ctx, http.MethodPost, "/v1/admin/backends", AdminRequest{Op: "explode", Addr: "x"}, nil)
	assertStatus(err, http.StatusBadRequest, "unknown admin op")
	_, err = gc.AddBackend(ctx, "")
	assertStatus(err, http.StatusBadRequest, "add empty addr")
	// Malformed JSON body → 400.
	resp, herr := http.Post(gc.BaseURL+"/v1/estimate", "application/json", strings.NewReader("{nope"))
	if herr != nil {
		t.Fatal(herr)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: HTTP %d", resp.StatusCode)
	}
	// Unknown chunk op → 400.
	err = gc.DoJSON(ctx, http.MethodPost, "/v1/matrices/m/chunks", service.ChunkRequest{Op: "explode"}, nil)
	assertStatus(err, http.StatusBadRequest, "unknown chunk op")
	// Empty matrix name via the chunks begin path → 400 comes from the
	// gateway before any backend is contacted.
	if _, err := gc.Client.UploadMatrix(ctx, "", identWire(n)); err == nil {
		t.Fatal("empty-name upload accepted")
	}
}

// TestV1OnlySurface pins the single HTTP surface: every documented
// route answers under /v1, and the same path without the prefix is the
// mux's plain 404 — not an alias, not an error envelope.
func TestV1OnlySurface(t *testing.T) {
	b1, b2 := startBackend(t), startBackend(t)
	_, gc := startGatewayServer(t, 2, b1.addr)
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
		{"GET", "/admin/backends", ""},
		{"POST", "/admin/backends", `{"op":"add","addr":"` + b2.addr + `"}`},
		{"DELETE", "/matrix/m", ""},
	} {
		for _, prefix := range []string{"", "/v1"} {
			hr, err := http.NewRequest(rt.method, gc.BaseURL+prefix+rt.path, strings.NewReader(rt.body))
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

func TestHTTPNoBackends(t *testing.T) {
	g := newTestGateway(t, 2) // empty pool: everything placement-shaped is 503
	srv := httptest.NewServer(NewHandler(g))
	t.Cleanup(srv.Close)
	gc := Dial(srv.URL)
	ctx := context.Background()

	_, err := gc.UploadMatrix(ctx, "m", identWire(4))
	var apiErr *service.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("put with no backends: %v, want 503", err)
	}
	if _, err := gc.BeginUpload(ctx, "m", 4, 4); !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("begin with no backends: %v, want 503", err)
	}
}

func TestHTTPAllReplicasFailed(t *testing.T) {
	n := 4
	b1 := startBackend(t)
	_, gc := startGatewayServer(t, 1, b1.addr)
	ctx := context.Background()
	if _, err := gc.UploadMatrix(ctx, "m", identWire(n)); err != nil {
		t.Fatalf("upload: %v", err)
	}
	b1.stop()
	_, err := gc.Estimate(ctx, exactReq("m", n))
	var apiErr *service.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadGateway {
		t.Fatalf("estimate with every replica dead: %v, want 502", err)
	}
}

func TestGatewayClosed(t *testing.T) {
	b1 := startBackend(t)
	g := newTestGateway(t, 1, b1.addr)
	g.Close()
	ctx := context.Background()
	if _, err := g.PutMatrix(ctx, "m", identWire(4)); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close: %v", err)
	}
	if _, err := g.Estimate(ctx, exactReq("m", 4)); !errors.Is(err, ErrClosed) {
		t.Fatalf("estimate after close: %v", err)
	}
	if _, err := g.EstimateBatch(ctx, []service.Request{exactReq("m", 4)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("batch after close: %v", err)
	}
	if _, err := g.AddBackend(ctx, "http://x:1"); !errors.Is(err, ErrClosed) {
		t.Fatalf("admin after close: %v", err)
	}
	g.Close() // idempotent
}

// TestHTTPJSONTrailingBytes pins the service tier's one-value JSON body
// rule at the gateway: trailing garbage or a second concatenated object
// is a 400 before any backend is contacted.
func TestHTTPJSONTrailingBytes(t *testing.T) {
	b1 := startBackend(t)
	_, gc := startGatewayServer(t, 1, b1.addr)
	const m = `{"rows":2,"cols":2,"entries":[[0,0,1]]}`
	for body, want := range map[string]int{
		m + " trailing":  http.StatusBadRequest,
		m + `{"rows":9}`: http.StatusBadRequest,
		m + "\n":         http.StatusOK,
	} {
		req, err := http.NewRequest(http.MethodPut, gc.BaseURL+"/v1/matrix/t", strings.NewReader(body))
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

// TestHTTPHeaderEcho pins which consistency headers each gateway route
// returns: a row update and a single estimate carry MP-Version, a batch
// carries none (its items may come from replicas at different
// versions), MP-Session is echoed whenever the request has a session,
// and ?consistency= is parsed on reads only.
func TestHTTPHeaderEcho(t *testing.T) {
	n := 8
	b1 := startBackend(t)
	_, gc := startGatewayServer(t, 1, b1.addr)
	wire, _ := testMatrix(n)
	if _, err := gc.UploadMatrix(context.Background(), "m", wire); err != nil {
		t.Fatal(err)
	}
	query, err := json.Marshal(exactReq("m", n))
	if err != nil {
		t.Fatal(err)
	}
	batch := `{"queries":[` + string(query) + `]}`
	do := func(method, path, body, session string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, gc.BaseURL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if session != "" {
			req.Header.Set("MP-Session", session)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	check := func(what string, resp *http.Response, status int, session string, version bool) {
		t.Helper()
		if resp.StatusCode != status {
			t.Fatalf("%s: status %d, want %d", what, resp.StatusCode, status)
		}
		if got := resp.Header.Get("MP-Session"); got != session {
			t.Errorf("%s: MP-Session %q, want %q", what, got, session)
		}
		if got := resp.Header.Get("MP-Version"); (got != "") != version {
			t.Errorf("%s: MP-Version %q, want present=%v", what, got, version)
		}
	}
	const patch = `{"row":0,"entries":[[1,5]]}`

	check("PATCH with session", do("PATCH", "/v1/matrices/m/rows", patch, "wtok"), http.StatusOK, "wtok", true)
	check("PATCH without session", do("PATCH", "/v1/matrices/m/rows", patch, ""), http.StatusOK, "", true)

	resp := do("POST", "/v1/estimate?consistency=monotonic", string(query), "")
	tok := resp.Header.Get("MP-Session")
	if tok == "" {
		t.Fatal("monotonic estimate without a token minted no MP-Session")
	}
	check("minting monotonic estimate", resp, http.StatusOK, tok, true)
	check("strong estimate without session", do("POST", "/v1/estimate", string(query), ""), http.StatusOK, "", true)

	check("batch with session", do("POST", "/v1/estimate/batch", batch, tok), http.StatusOK, tok, false)
	check("batch without session", do("POST", "/v1/estimate/batch", batch, ""), http.StatusOK, "", false)

	// The SLA is parsed on reads only: a bad level fails a read before
	// any routing and is ignored by writes.
	check("bad consistency estimate", do("POST", "/v1/estimate?consistency=bogus", string(query), tok), http.StatusBadRequest, "", false)
	check("bad consistency batch", do("POST", "/v1/estimate/batch?consistency=bogus", batch, tok), http.StatusBadRequest, "", false)
	check("bad consistency PATCH", do("PATCH", "/v1/matrices/m/rows?consistency=bogus", patch, tok), http.StatusOK, tok, true)
	resp = do("PUT", "/v1/matrix/p?consistency=bogus", `{"rows":2,"cols":2,"entries":[[0,0,1]]}`, tok)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT with a bad consistency: status %d, want 200", resp.StatusCode)
	}
}
