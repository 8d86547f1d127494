package gateway

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/service"
)

// scrapeGatewayMetrics fetches GET /v1/metrics, asserts the content type
// and that the body lints clean, and returns the samples keyed by full
// series name (labels included).
func scrapeGatewayMetrics(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.TextContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, metrics.TextContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if bad := metrics.LintText(string(body)); len(bad) != 0 {
		t.Fatalf("exposition does not parse: %q", bad)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		var v float64
		if _, err := fmt.Sscanf(line[sp+1:], "%g", &v); err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

// TestGatewayMetricsEndpointE2E drives replicated traffic through a
// live gateway fronting two real backends and asserts GET /v1/metrics
// reflects it: routing counters match /stats, the per-backend families
// cover the pool with correct health, and the per-backend latency
// histograms account for exactly the successful backend calls.
func TestGatewayMetricsEndpointE2E(t *testing.T) {
	n := 8
	b1, b2 := startBackend(t), startBackend(t)
	g := newTestGateway(t, 2, b1.addr, b2.addr)
	srv := httptest.NewServer(NewHandler(g))
	t.Cleanup(srv.Close)
	gc := Dial(srv.URL)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	if _, err := gc.UploadMatrix(ctx, "m", wire); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if res, err := gc.Estimate(ctx, exactReq("m", n)); err != nil || res.Estimate != sum {
			t.Fatalf("estimate: res=%v err=%v", res, err)
		}
	}
	if _, err := gc.EstimateBatch(ctx, []service.Request{exactReq("m", n), exactReq("m", n)}); err != nil {
		t.Fatal(err)
	}

	st := g.Stats()
	got := scrapeGatewayMetrics(t, srv.URL)

	for series, want := range map[string]float64{
		"mpgw_estimates_total":     float64(st.Estimates),
		"mpgw_batches_total":       float64(st.Batches),
		"mpgw_placements_total":    float64(st.Placements),
		"mpgw_failovers_total":     float64(st.Failovers),
		"mpgw_repairs_total":       float64(st.Repairs),
		"mpgw_updates_total":       float64(st.Updates),
		"mpgw_lost_replicas_total": float64(st.LostReplicas),
		"mpgw_matrices":            float64(st.Matrices),
		"mpgw_replication":         float64(st.Replication),
	} {
		if got[series] != want {
			t.Errorf("%s = %v, want %v", series, got[series], want)
		}
	}

	// Per-backend families cover the whole pool and agree with /stats.
	var wantDur float64
	for _, bs := range st.Backends {
		if v := got[fmt.Sprintf("mpgw_backend_healthy{backend=%q}", bs.Addr)]; v != 1 {
			t.Errorf("backend %s healthy = %v, want 1", bs.Addr, v)
		}
		if v := got[fmt.Sprintf("mpgw_backend_requests_total{backend=%q}", bs.Addr)]; v != float64(bs.Requests) {
			t.Errorf("backend %s requests = %v, want %d", bs.Addr, v, bs.Requests)
		}
		if v := got[fmt.Sprintf("mpgw_backend_errors_total{backend=%q}", bs.Addr)]; v != float64(bs.Errors) {
			t.Errorf("backend %s errors = %v, want %d", bs.Addr, v, bs.Errors)
		}
		if v := got[fmt.Sprintf("mpgw_backend_matrices{backend=%q}", bs.Addr)]; v != float64(bs.Matrices) {
			t.Errorf("backend %s matrices = %v, want %d", bs.Addr, v, bs.Matrices)
		}
		wantDur += float64(bs.Requests - bs.Errors)
	}
	// The latency histograms hold exactly the successful backend calls.
	var durCount float64
	for _, bs := range st.Backends {
		durCount += got[fmt.Sprintf("mpgw_backend_request_duration_seconds_count{backend=%q}", bs.Addr)]
	}
	if durCount != wantDur {
		t.Errorf("backend duration histogram count = %v, want %v", durCount, wantDur)
	}
	if durCount == 0 {
		t.Error("no backend latency observations despite traffic")
	}

	// More traffic, second scrape: counters advance and stay monotone.
	if _, err := gc.Estimate(ctx, exactReq("m", n)); err != nil {
		t.Fatal(err)
	}
	got2 := scrapeGatewayMetrics(t, srv.URL)
	if got2["mpgw_estimates_total"] <= got["mpgw_estimates_total"] {
		t.Errorf("estimates_total did not advance: %v -> %v",
			got["mpgw_estimates_total"], got2["mpgw_estimates_total"])
	}
	for series, v := range got {
		if strings.Contains(series, "_total") || strings.Contains(series, "_count") {
			if got2[series] < v {
				t.Errorf("counter %s went backwards: %v -> %v", series, v, got2[series])
			}
		}
	}
}
