package gateway

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/service"
)

// heldBackend is a backend whose next PATCH can be held in its handler:
// with hold set, that request signals entered and waits for free.
// Every served PATCH signals patched once.
type heldBackend struct {
	url                       string
	hold                      atomic.Bool
	entered, release, patched chan struct{}
	patchedOnce, releaseOnce  sync.Once
}

// free lets a held PATCH proceed. Tests also defer it, so a test that
// fails early releases the request before any server closes.
func (hb *heldBackend) free() { hb.releaseOnce.Do(func() { close(hb.release) }) }

func startHeldBackend(t *testing.T) *heldBackend {
	t.Helper()
	eng := service.NewEngine(service.Config{Workers: 4, Shards: 1})
	t.Cleanup(eng.Close)
	real := service.NewHandler(eng)
	hb := &heldBackend{entered: make(chan struct{}), release: make(chan struct{}), patched: make(chan struct{})}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPatch && hb.hold.CompareAndSwap(true, false) {
			close(hb.entered)
			<-hb.release
		}
		real.ServeHTTP(w, r)
		if r.Method == http.MethodPatch {
			hb.patchedOnce.Do(func() { close(hb.patched) })
		}
	}))
	t.Cleanup(srv.Close)
	t.Cleanup(hb.free)
	hb.url = srv.URL
	return hb
}

// replicasOf returns the placement table's replica set of name, sorted.
func replicasOf(g *Gateway, name string) []string {
	for _, pi := range g.Matrices() {
		if pi.Name == name {
			return slices.Sorted(slices.Values(pi.Replicas))
		}
	}
	return nil
}

// TestDrainDuringUpdateLegKeepsUpdate drains a backend, with no gains to
// seed, while a row update's leg on the other replica is held. The drain
// changes only the replica set, so the update must still commit: the
// table keeps the drained placement and the survivor keeps the update.
func TestDrainDuringUpdateLegKeepsUpdate(t *testing.T) {
	n := 8
	a, b := startHeldBackend(t), startHeldBackend(t)
	defer a.free()
	g := newTestGateway(t, 2, a.url, b.url)
	ctx := context.Background()
	wire, sum := testMatrix(n)
	if _, err := g.PutMatrix(ctx, "m", wire); err != nil {
		t.Fatal(err)
	}

	a.hold.Store(true)
	updated := make(chan error, 1)
	go func() {
		_, err := g.UpdateRows(ctx, "m", replaceRowReq(0, [][2]int64{{2, 7}}))
		updated <- err
	}()
	<-a.entered
	<-b.patched
	rep, err := g.DrainBackend(ctx, b.url)
	if err != nil || rep.Moved != 1 || rep.Failed != 0 {
		t.Fatalf("drain = %+v, %v; want one move, no failure", rep, err)
	}
	a.free()
	if err := <-updated; err != nil {
		t.Fatalf("update across a drain: %v", err)
	}
	if got := replicasOf(g, "m"); !slices.Equal(got, []string{a.url}) {
		t.Fatalf("replicas = %v, want [%s]", got, a.url)
	}
	if got, err := backendSum(ctx, a.url, "m", n); err != nil || got != sum-1+7 {
		t.Fatalf("survivor sum = %v, %v; want the updated %v", got, err, sum-1+7)
	}
}

// TestAddBackendWaitingOnUpdateTablesItsMove adds a backend that takes
// over one replica of a matrix while a row update's leg is held. The
// rebalance reads the table before the update commits and seeds the new
// backend after it (the seed waits on the update's commit lock), so its
// table write must land on the updated entry: the table lists the kept
// replica and the new backend, and the new backend serves the update.
func TestAddBackendWaitingOnUpdateTablesItsMove(t *testing.T) {
	n := 8
	x, y, c := startHeldBackend(t), startHeldBackend(t), startHeldBackend(t)
	// A name whose top two over all three backends include c.
	var name string
	var kept, lost *heldBackend
	for i := 0; name == ""; i++ {
		cand := "m" + strings.Repeat("x", i)
		top := placeOn(rankBackends([]string{x.url, y.url, c.url}, cand), 2)
		if !slices.Contains(top, c.url) {
			continue
		}
		name, kept, lost = cand, x, y
		if !slices.Contains(top, x.url) {
			kept, lost = y, x
		}
	}
	defer kept.free()
	g := newTestGateway(t, 2, x.url, y.url)
	ctx := context.Background()
	wire, sum := testMatrix(n)
	if _, err := g.PutMatrix(ctx, name, wire); err != nil {
		t.Fatal(err)
	}

	kept.hold.Store(true)
	updated := make(chan error, 1)
	go func() {
		_, err := g.UpdateRows(ctx, name, replaceRowReq(0, [][2]int64{{2, 7}}))
		updated <- err
	}()
	<-kept.entered
	added := make(chan RebalanceReport, 1)
	go func() {
		rep, err := g.AddBackend(ctx, c.url)
		if err != nil {
			t.Error(err)
		}
		added <- rep
	}()
	// The rebalance has read the table once it is seeding the gain.
	waitFor(t, "the rebalance seeding its gain", func() bool { return goroutineIn("(*Gateway).rebalance", "(*Gateway).seedReplica") })
	kept.free()
	if err := <-updated; err != nil {
		t.Fatalf("update: %v", err)
	}
	if rep := <-added; rep.Moved != 1 || rep.Failed != 0 {
		t.Fatalf("add = %+v, want one move, no failure", rep)
	}
	want := slices.Sorted(slices.Values([]string{kept.url, c.url}))
	if got := replicasOf(g, name); !slices.Equal(got, want) {
		t.Fatalf("replicas = %v, want %v (%s lost its copy)", got, want, lost.url)
	}
	for _, hb := range []*heldBackend{kept, c} {
		if got, err := backendSum(ctx, hb.url, name, n); err != nil || got != sum-1+7 {
			t.Fatalf("replica %s sum = %v, %v; want the updated %v", hb.url, got, err, sum-1+7)
		}
	}
}

// goroutineIn reports whether some goroutine's stack holds every frame.
func goroutineIn(frames ...string) bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, stack := range strings.Split(string(buf), "\n\n") {
		in := true
		for _, f := range frames {
			in = in && strings.Contains(stack, f)
		}
		if in {
			return true
		}
	}
	return false
}

// TestStatsAnswerWhileUpdateLegHeld holds a row update's replica leg —
// the update keeps its matrix's commit lock all the while — and checks
// that Stats, GET /v1/stats and a /v1/metrics scrape still answer
// promptly, with the update-log gauge read without that lock.
func TestStatsAnswerWhileUpdateLegHeld(t *testing.T) {
	n := 8
	a, b := startHeldBackend(t), startHeldBackend(t)
	defer a.free()
	g := newTestGateway(t, 2, a.url, b.url)
	srv := httptest.NewServer(NewHandler(g))
	t.Cleanup(srv.Close)
	ctx := context.Background()
	wire, _ := testMatrix(n)
	if _, err := g.PutMatrix(ctx, "m", wire); err != nil {
		t.Fatal(err)
	}
	if _, err := g.UpdateRows(ctx, "m", replaceRowReq(1, [][2]int64{{3, 5}})); err != nil {
		t.Fatal(err)
	}

	a.hold.Store(true)
	updated := make(chan error, 1)
	go func() {
		_, err := g.UpdateRows(ctx, "m", replaceRowReq(0, [][2]int64{{2, 7}}))
		updated <- err
	}()
	<-a.entered
	const bound = 100 * time.Millisecond
	stats := make(chan Stats, 1)
	go func() { stats <- g.Stats() }()
	select {
	case st := <-stats:
		if st.UpdateLogEntries != 1 {
			t.Errorf("update log entries = %d, want 1", st.UpdateLogEntries)
		}
	case <-time.After(bound):
		t.Fatalf("Stats still blocked after %v while an update leg is held", bound)
	}
	client := &http.Client{Timeout: bound}
	for _, path := range []string{"/v1/stats", "/v1/metrics"} {
		resp, err := client.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s while an update leg is held: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s status = %d", path, resp.StatusCode)
		}
	}
	a.free()
	if err := <-updated; err != nil {
		t.Fatal(err)
	}
}
