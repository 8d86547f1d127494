package metrics

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden pins the exact text rendered for one family of
// each kind: HELP/TYPE lines, label rendering, histogram cumulative
// buckets with _sum and _count, and deterministic series order.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("app_requests_total", "Requests served.", []string{"kind", "outcome"}, func() []Sample {
		return []Sample{{Labels: []string{"lp", "ok"}, Value: 42}, {Labels: []string{"exact", "error"}, Value: 1}}
	})
	r.GaugeFunc("app_workers_busy", "Busy worker slots.", nil, func() []Sample {
		return []Sample{{Value: 3}}
	})
	h := r.NewHistogram("app_latency_seconds", "Request latency.", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(0.7)
	h.Observe(99)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP app_requests_total Requests served.
# TYPE app_requests_total counter
app_requests_total{kind="exact",outcome="error"} 1
app_requests_total{kind="lp",outcome="ok"} 42
# HELP app_workers_busy Busy worker slots.
# TYPE app_workers_busy gauge
app_workers_busy 3
# HELP app_latency_seconds Request latency.
# TYPE app_latency_seconds histogram
app_latency_seconds_bucket{le="0.1"} 2
app_latency_seconds_bucket{le="1"} 3
app_latency_seconds_bucket{le="10"} 3
app_latency_seconds_bucket{le="+Inf"} 4
app_latency_seconds_sum 99.8
app_latency_seconds_count 4
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestFuncFamilies pins func-backed families: sampled at export time,
// sorted by label values.
func TestFuncFamilies(t *testing.T) {
	r := NewRegistry()
	n := 0
	r.CounterFunc("app_evictions_total", "Evictions.", nil, func() []Sample {
		n += 7
		return []Sample{{Value: float64(n)}}
	})
	r.GaugeFunc("app_backend_healthy", "Backend health.", []string{"backend"}, func() []Sample {
		return []Sample{
			{Labels: []string{"b"}, Value: 0},
			{Labels: []string{"a"}, Value: 1},
		}
	})
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP app_evictions_total Evictions.
# TYPE app_evictions_total counter
app_evictions_total 7
# HELP app_backend_healthy Backend health.
# TYPE app_backend_healthy gauge
app_backend_healthy{backend="a"} 1
app_backend_healthy{backend="b"} 0
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// A second export re-samples the collector.
	b.Reset()
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "app_evictions_total 14") {
		t.Errorf("func counter not re-sampled:\n%s", b.String())
	}
}

// TestLabelEscaping pins backslash/quote/newline escaping in label
// values and HELP text.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("esc_total", "line one\nwith \\ slash", []string{"path"}, func() []Sample {
		return []Sample{{Labels: []string{"a\"b\\c\nd"}, Value: 1}}
	})
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP esc_total line one\nwith \\ slash
# TYPE esc_total counter
esc_total{path="a\"b\\c\nd"} 1
`
	if got := b.String(); got != want {
		t.Errorf("escaping mismatch:\n--- got ---\n%q\n--- want ---\n%q", got, want)
	}
}

// TestWithReturnsSameHandle pins the pre-resolution contract: the same
// label values resolve to the same handle, so call sites may resolve
// once and observations from any copy aggregate.
func TestWithReturnsSameHandle(t *testing.T) {
	r := NewRegistry()
	v := r.NewHistogramVec("x_seconds", "", []float64{1}, "k")
	a, b := v.With("q"), v.With("q")
	if a != b {
		t.Fatal("With returned distinct handles for identical label values")
	}
	a.Observe(0.5)
	b.Observe(0.5)
	if _, count, _ := a.snapshot(); count != 2 {
		t.Fatalf("aggregated count = %v, want 2", count)
	}
}

// TestHistogramBucketBoundaries pins the "le" contract: a value equal
// to an upper bound lands in that bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("hb", "", []float64{1, 2})
	h.Observe(1) // exactly on the first bound → le="1"
	h.Observe(2) // exactly on the second → le="2"
	h.Observe(3) // beyond → +Inf only
	cum, count, sum := h.snapshot()
	if cum[0] != 1 || cum[1] != 2 || count != 3 {
		t.Fatalf("cumulative = %v count = %d, want [1 2] 3", cum, count)
	}
	if sum != 6 {
		t.Fatalf("sum = %v, want 6", sum)
	}
}

// TestConcurrentIncrements hammers one histogram from many goroutines
// (with concurrent resolutions and exports mixed in) and asserts the
// exact bucket counts and sum: the striped shards must lose nothing.
// Run under -race this is also the layer's data-race test.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	v := r.NewHistogramVec("ch_seconds", "", []float64{0.5}, "k")
	h := v.With("a")
	const workers, perWorker = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				v.With("a").Observe(float64(i % 2)) // alternates the two buckets
				if i%500 == 0 {
					r.WriteText(io.Discard) //nolint:errcheck
				}
			}
		}(w)
	}
	wg.Wait()
	const total = workers * perWorker
	cum, count, sum := h.snapshot()
	if count != total || cum[0] != total/2 || sum != total/2 {
		t.Errorf("histogram count=%d cum=%v sum=%v, want %d [%d] %d", count, cum, sum, total, total/2, total/2)
	}
}

// TestHandlerContentType pins the scrape content type and that the
// body parses as series lines.
func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("one_total", "One.", nil, func() []Sample { return []Sample{{Value: 1}} })
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != TextContentType {
		t.Errorf("Content-Type = %q, want %q", ct, TextContentType)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "one_total 1") {
		t.Errorf("body missing series:\n%s", body)
	}
}

// TestLintText exercises the exposition linter both ways: a valid
// export lints clean, and mangled lines are reported.
func TestLintText(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("lint_total", "Lint.", []string{"k"}, func() []Sample {
		return []Sample{{Labels: []string{"v"}, Value: 1}}
	})
	r.NewHistogram("lint_seconds", "", []float64{0.1}).Observe(0.2)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if bad := LintText(b.String()); len(bad) != 0 {
		t.Errorf("valid exposition flagged: %q", bad)
	}
	if bad := LintText("0bad_name 1\nok_total{} \n"); len(bad) != 2 {
		t.Errorf("mangled exposition not flagged: %q", bad)
	}
}

// TestRegisterPanics pins the loud-failure contract for programmer
// errors: bad names, duplicate names, bad buckets, arity mismatches.
func TestRegisterPanics(t *testing.T) {
	r := NewRegistry()
	none := func() []Sample { return nil }
	r.CounterFunc("ok_total", "", nil, none)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"bad metric name", func() { r.CounterFunc("0bad", "", nil, none) }},
		{"bad label name", func() { r.GaugeFunc("p1", "", []string{"0bad"}, none) }},
		{"duplicate name", func() { r.CounterFunc("ok_total", "", nil, none) }},
		{"duplicate across kinds", func() { r.NewHistogram("ok_total", "", nil) }},
		{"reserved le", func() { r.NewHistogramVec("p2", "", nil, "le") }},
		{"bad buckets", func() { r.NewHistogram("p3", "", []float64{2, 1}) }},
		{"arity mismatch", func() { r.NewHistogramVec("p4_seconds", "", nil, "k").With("x", "y") }},
		{"bad exp buckets", func() { ExpBuckets(0, 2, 3) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().NewHistogram("bench_seconds", "", nil)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.Observe(float64(i%1000) * 1e-5)
			i++
		}
	})
}
