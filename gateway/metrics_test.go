package gateway

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
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

// familySchema lists an exposition's families sorted by name, one line
// each: name, TYPE, the label names of the family's first series ("le"
// dropped; "-" for none) and HELP.
func familySchema(t *testing.T, body string) []string {
	t.Helper()
	type fam struct{ typ, labels, help string }
	fams := make(map[string]*fam)
	get := func(name string) *fam {
		if fams[name] == nil {
			fams[name] = &fam{}
		}
		return fams[name]
	}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			get(name).help = help
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			get(name).typ = typ
			continue
		}
		series := line[:strings.LastIndexByte(line, ' ')]
		name, labels, _ := strings.Cut(series, "{")
		if _, ok := fams[name]; !ok {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base, cut := strings.CutSuffix(name, suf); cut && fams[base] != nil {
					name = base
				}
			}
		}
		f := fams[name]
		if f == nil {
			t.Fatalf("series %q outside any family", line)
		}
		if f.labels != "" {
			continue
		}
		var names []string
		for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
			if k, _, ok := strings.Cut(kv, "="); ok && k != "le" {
				names = append(names, k)
			}
		}
		f.labels = strings.Join(names, ",")
		if f.labels == "" {
			f.labels = "-"
		}
	}
	out := make([]string, 0, len(fams))
	for name, f := range fams {
		if f.labels == "" {
			f.labels = "?" // no series to read label names from
		}
		out = append(out, fmt.Sprintf("%s %s %s %s", name, f.typ, f.labels, f.help))
	}
	sort.Strings(out)
	return out
}

// TestGatewayMetricsFamilySchema pins every family a gateway over two
// backends exports — name, TYPE, label names and HELP — so a change in
// how families are declared cannot change what a scrape returns.
func TestGatewayMetricsFamilySchema(t *testing.T) {
	n := 8
	b1, b2 := startBackend(t), startBackend(t)
	g := newTestGateway(t, 2, b1.addr, b2.addr)
	srv := httptest.NewServer(NewHandler(g))
	t.Cleanup(srv.Close)
	ctx := context.Background()
	wire, _ := testMatrix(n)
	if _, err := g.PutMatrix(ctx, "m", wire); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.estimateSLA(ctx, exactReq("m", n), SLA{Level: ConsStrong}, ""); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"mpgw_async_applied_total counter - Update-log entries replayed to lagging replicas (apply loop and in-line catch-ups).",
		"mpgw_async_reseeds_total counter - Full-wire reseeds of replicas whose lag a log replay could not cover.",
		"mpgw_backend_consec_fails gauge backend Current consecutive probe-failure streak (drives probe backoff).",
		"mpgw_backend_draining gauge backend Whether the backend is excluded from routing pending removal (1 = draining).",
		"mpgw_backend_errors_total counter backend Failed requests among the backend's requests.",
		"mpgw_backend_failovers_total counter backend Requests that failed over away from this backend to another replica.",
		"mpgw_backend_healthy gauge backend Whether the backend's last probe or request succeeded (1 = healthy).",
		"mpgw_backend_inflight gauge backend Requests currently outstanding against the backend.",
		"mpgw_backend_matrices gauge backend Matrices currently placed on the backend.",
		"mpgw_backend_request_duration_seconds histogram backend Latency of successful backend calls on the estimate and batch routing paths, by backend.",
		"mpgw_backend_requests_total counter backend Requests sent to the backend, failed ones included.",
		"mpgw_batches_total counter - Batch calls scattered across replicas.",
		"mpgw_estimates_total counter - Estimate queries routed, batch-fallback re-routes included.",
		"mpgw_failovers_total counter - Queries answered by a replica other than the first one tried.",
		"mpgw_lost_replicas_total counter - Replica copies evicted by their backend and pruned from the placement table.",
		"mpgw_matrices gauge - Matrices currently placed.",
		"mpgw_placements_total counter - Matrices placed (initial puts and chunked commits).",
		"mpgw_rebalanced_total counter - Matrices moved by admin add/drain/remove rebalances.",
		"mpgw_repairs_total counter - Replica copies re-seeded from the gateway's retained wire forms.",
		"mpgw_replication gauge - Configured replication factor R.",
		"mpgw_reseed_bytes_total counter - Wire bytes re-uploaded to returning backends by probe resyncs.",
		"mpgw_resyncs_total counter - Returning backends reconciled with the placement table by the probe loop.",
		"mpgw_retries_total counter - Per-query routing attempts beyond the first.",
		"mpgw_sessions gauge - Live consistency sessions.",
		"mpgw_sla_requests_total counter level,outcome SLA-routed reads by consistency level and outcome (hit, catchup, miss).",
		"mpgw_update_log_entries gauge - Retained update-log entries summed over all placed matrices.",
		"mpgw_update_reverts_total counter - Row updates rolled back all-or-nothing after a replica leg failed.",
		"mpgw_updates_total counter - Replicated row-update requests, failed ones included.",
		"mpgw_uptime_seconds gauge - Time since the gateway started serving.",
		"mpgw_wire_bytes gauge - Total size of the retained wire copies replicas are re-seeded from.",
		"mpgw_write_quorum gauge - Configured ack quorum W a row update commits on (0 = every live replica).",
	}
	got := familySchema(t, string(body))
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("family schema changed:\n--- got ---\n%s\n--- want ---\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
