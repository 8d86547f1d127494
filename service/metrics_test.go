package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/store"
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

// TestMetricsFamilySchema pins every family an engine with the cache and
// a store exports — name, TYPE, label names and HELP — so a change in
// how families are declared cannot change what a scrape returns.
func TestMetricsFamilySchema(t *testing.T) {
	d, err := store.OpenDisk(store.DiskConfig{Dir: t.TempDir(), Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	srv, client := newTestServer(t, Config{Store: d})
	ctx := context.Background()
	if _, err := client.UploadMatrix(ctx, "m", testBinaryMatrix(1, 24, 0.3)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Estimate(ctx, Request{Matrix: "m", Kind: "lp", P: 1, Eps: 0.3, A: testBinaryMatrix(2, 24, 0.3)}); err != nil {
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
		"mp_cache_bytes gauge - Summed in-memory size of the cached states.",
		"mp_cache_entries gauge - Precomputed Bob-side states currently cached.",
		"mp_cache_lookups_total counter result Sketch-cache lookups by result.",
		"mp_cache_seed_epoch gauge - Current seed epoch of the sketch cache.",
		"mp_cache_state_migrations_total counter result Cached Bob states migrated across row updates, by result.",
		"mp_evictions_total counter - Served matrices LRU-evicted from the registry.",
		"mp_matrices gauge - Served matrices currently in the registry.",
		"mp_protocol_bits_total counter kind Exact protocol communication payload shipped, by kind (bits).",
		"mp_queue_capacity gauge - Configured admission-queue depth.",
		"mp_queue_depth gauge - Admissions currently waiting for a worker slot.",
		"mp_queue_wait_seconds histogram - Admission-slot wait before a query (or batch) starts executing, reported separately from service time.",
		"mp_rejected_total counter - Admissions shed with 429 because the worker pool and queue were full.",
		"mp_request_duration_seconds histogram kind Protocol execution time per estimate query by kind, queue wait excluded (see mp_queue_wait_seconds).",
		"mp_requests_total counter kind,outcome Estimate queries by protocol kind and outcome.",
		"mp_row_update_requests_total counter outcome PATCH row-update requests by outcome.",
		"mp_rows_updated_total counter - Row patches applied to served matrices.",
		"mp_shard_busy_seconds_total counter shard Cumulative busy time per shard index — near-equal values mean a healthy row distribution.",
		"mp_shard_jobs_total counter - Sharded sections that ran in parallel on the process-wide pool.",
		"mp_shard_tasks_total counter - Shard tasks executed by the process-wide pool.",
		"mp_shards gauge - Configured row shards per job on the parallel serve path.",
		"mp_store_compactions_total counter - Background snapshot compactions (snapshot plus WAL truncation).",
		"mp_store_errors_total counter - Failed durable-store operations.",
		"mp_store_fsyncs_total counter - fsync calls issued by the durable store (files and directories).",
		"mp_store_recovered_matrices_total counter - Matrices restored from durable state at boot.",
		"mp_store_recovery_errors_total counter - Matrices or log suffixes skipped at boot because their durable state did not validate.",
		"mp_store_replayed_records_total counter - WAL records replayed over snapshots at boot.",
		"mp_store_snapshot_bytes_total counter - Summed payload bytes of persisted snapshots.",
		"mp_store_snapshots_total counter - Matrix snapshots persisted to the durable store (installs and compactions).",
		"mp_store_tombstones_total counter - Durable matrix states removed by DELETE and LRU eviction.",
		"mp_store_torn_records_total counter - Torn WAL tail records detected and truncated on open — the expected shape of a crash mid-append.",
		"mp_store_wal_appends_total counter - Row-update records appended to the write-ahead log.",
		"mp_store_wal_bytes_total counter - Summed payload bytes of appended WAL records.",
		"mp_upload_chunks_total counter - Chunks accepted across all chunked uploads.",
		"mp_upload_staged_elems gauge - Total rows*cols staged across active chunked uploads, against the MaxStagedElems budget.",
		"mp_uploads_active gauge - Chunked uploads currently staged (begun, not yet committed).",
		"mp_uploads_total counter event Chunked-upload lifecycle events.",
		"mp_uptime_seconds gauge - Time since the engine started serving.",
		"mp_workers_busy gauge - Worker slots currently executing protocol jobs.",
		"mp_workers_capacity gauge - Configured worker-pool size.",
	}
	got := familySchema(t, string(body))
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("family schema changed:\n--- got ---\n%s\n--- want ---\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
