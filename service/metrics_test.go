package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// scrapeMetrics fetches GET /v1/metrics, asserts the content type and that
// the body lints clean against the text-format grammar, and returns the
// samples as a map from full series name (labels included) to value.
func scrapeMetrics(t *testing.T, baseURL string) map[string]float64 {
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

// TestMetricsEndpointE2E drives traffic through a live HTTP server and
// asserts that GET /v1/metrics reflects it: every counter matches the
// /stats snapshot it mirrors, histograms account for exactly the
// protocol runs, and a second scrape after more traffic moves every
// counter monotonically.
func TestMetricsEndpointE2E(t *testing.T) {
	srv, client := newTestServer(t, Config{})
	ctx := context.Background()

	if _, err := client.UploadMatrix(ctx, "m", testBinaryMatrix(1, 24, 0.3)); err != nil {
		t.Fatal(err)
	}
	estimates := 0
	for i := 0; i < 3; i++ {
		if _, err := client.Estimate(ctx, Request{Matrix: "m", Kind: "lp", P: 1, Eps: 0.3, A: testBinaryMatrix(2, 24, 0.3)}); err != nil {
			t.Fatal(err)
		}
		estimates++
	}
	// A missing-matrix query still passes admission (so it lands in the
	// queue-wait histogram) but runs no protocol.
	if _, err := client.Estimate(ctx, Request{Matrix: "nope", Kind: "lp", A: testBinaryMatrix(2, 24, 0.3)}); err == nil {
		t.Fatal("estimate against missing matrix succeeded")
	}
	estimates++
	// One batch = one admission slot, two protocol runs.
	if _, err := client.EstimateBatch(ctx, []Request{
		{Matrix: "m", Kind: "lp", P: 1, Eps: 0.3, A: testBinaryMatrix(3, 24, 0.3)},
		{Matrix: "m", Kind: "exact", A: testBinaryMatrix(3, 24, 0.3)},
	}); err != nil {
		t.Fatal(err)
	}
	admits := estimates + 1

	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := scrapeMetrics(t, srv.URL)

	// Every mirrored counter must agree with /stats exactly.
	for kind, ks := range st.PerKind {
		if v := got[fmt.Sprintf(`mp_requests_total{kind=%q,outcome="ok"}`, kind)]; v != float64(ks.Requests-ks.Errors) {
			t.Errorf("requests_total{%s,ok} = %v, want %d", kind, v, ks.Requests-ks.Errors)
		}
		if v := got[fmt.Sprintf(`mp_requests_total{kind=%q,outcome="error"}`, kind)]; v != float64(ks.Errors) {
			t.Errorf("requests_total{%s,error} = %v, want %d", kind, v, ks.Errors)
		}
		if v := got[fmt.Sprintf(`mp_protocol_bits_total{kind=%q}`, kind)]; v != float64(ks.Bits) {
			t.Errorf("protocol_bits_total{%s} = %v, want %d", kind, v, ks.Bits)
		}
	}
	for series, want := range map[string]float64{
		"mp_rejected_total":                     float64(st.Rejected),
		"mp_evictions_total":                    float64(st.Evictions),
		"mp_matrices":                           float64(st.Matrices),
		`mp_cache_lookups_total{result="hit"}`:  float64(st.Cache.Hits),
		`mp_cache_lookups_total{result="miss"}`: float64(st.Cache.Misses),
		"mp_cache_entries":                      float64(st.Cache.Entries),
	} {
		if got[series] != want {
			t.Errorf("%s = %v, want %v", series, got[series], want)
		}
	}
	if got["mp_workers_capacity"] <= 0 || got["mp_queue_capacity"] <= 0 {
		t.Errorf("pool gauges missing: workers_capacity=%v queue_capacity=%v",
			got["mp_workers_capacity"], got["mp_queue_capacity"])
	}

	// The duration histogram holds exactly the protocol runs: every
	// /stats request minus the validation failure that ran no protocol.
	var durCount, durSum float64
	for kind := range Kinds {
		durCount += got[fmt.Sprintf(`mp_request_duration_seconds_count{kind=%q}`, kind)]
		durSum += got[fmt.Sprintf(`mp_request_duration_seconds_sum{kind=%q}`, kind)]
	}
	if want := float64(st.Requests - st.Errors); durCount != want {
		t.Errorf("duration histogram count = %v, want %v (stats requests=%d errors=%d)",
			durCount, want, st.Requests, st.Errors)
	}
	if durCount > 0 && durSum <= 0 {
		t.Errorf("duration histogram sum = %v with count %v", durSum, durCount)
	}
	if inf := got[`mp_request_duration_seconds_bucket{kind="lp",le="+Inf"}`]; inf != got[`mp_request_duration_seconds_count{kind="lp"}`] {
		t.Errorf("+Inf bucket %v != count %v", inf, got[`mp_request_duration_seconds_count{kind="lp"}`])
	}

	// Queue wait: one observation per successful admission — each
	// Estimate call (the missing-matrix one included) plus one batch.
	if v := got["mp_queue_wait_seconds_count"]; v != float64(admits) {
		t.Errorf("queue_wait count = %v, want %d", v, admits)
	}
	// The separate /stats queue-wait percentiles exist alongside (they
	// read as valid durations; near-zero on an idle pool).
	if st.QueueWaitP99 < 0 || st.QueueWaitP50 > st.QueueWaitP99 {
		t.Errorf("queue wait percentiles inconsistent: p50=%v p99=%v", st.QueueWaitP50, st.QueueWaitP99)
	}

	// More traffic, second scrape: counters move and stay monotone.
	if _, err := client.Estimate(ctx, Request{Matrix: "m", Kind: "lp", P: 1, Eps: 0.3, A: testBinaryMatrix(4, 24, 0.3)}); err != nil {
		t.Fatal(err)
	}
	got2 := scrapeMetrics(t, srv.URL)
	for _, series := range []string{
		`mp_requests_total{kind="lp",outcome="ok"}`,
		`mp_request_duration_seconds_count{kind="lp"}`,
		"mp_queue_wait_seconds_count",
	} {
		if got2[series] <= got[series] {
			t.Errorf("%s did not advance: %v -> %v", series, got[series], got2[series])
		}
	}
	for series, v := range got {
		if strings.Contains(series, "_total") || strings.Contains(series, "_count") {
			if got2[series] < v {
				t.Errorf("counter %s went backwards: %v -> %v", series, v, got2[series])
			}
		}
	}
}
