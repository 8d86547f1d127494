package gateway

// Write-ordering tests: a put, a delete and a row update of one name are
// ordered by the name's commit lock, so however their calls overlap,
// every replica ends holding the table's retained copy at the head.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/service"
)

// hookedBackend serves a real engine behind a hook that sees every
// request first: the hook may block it, or answer it with a status of
// its own (non-zero), which the engine then never sees.
type hookedBackend struct {
	url  string
	mu   sync.Mutex
	hook func(r *http.Request) int
}

func startHookedBackend(t *testing.T) *hookedBackend {
	t.Helper()
	eng := service.NewEngine(service.Config{Workers: 4, Shards: 1})
	t.Cleanup(eng.Close)
	real := service.NewHandler(eng)
	hb := &hookedBackend{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hb.mu.Lock()
		hook := hb.hook
		hb.mu.Unlock()
		if hook != nil {
			if code := hook(r); code != 0 {
				http.Error(w, "injected failure", code)
				return
			}
		}
		real.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	hb.url = srv.URL
	return hb
}

func (hb *hookedBackend) setHook(h func(r *http.Request) int) {
	hb.mu.Lock()
	hb.hook = h
	hb.mu.Unlock()
}

// holdFirst makes hb hold the first request of method in its handler:
// entered is closed when it arrives, and it proceeds once release is
// called. The test's cleanup releases it too, before any server closes.
func holdFirst(t *testing.T, hb *hookedBackend, method string) (entered <-chan struct{}, release func()) {
	in, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	var held atomic.Bool
	hb.setHook(func(r *http.Request) int {
		if r.Method == method && held.CompareAndSwap(false, true) {
			close(in)
			<-gate
		}
		return 0
	})
	return in, release
}

// overlappedOrWaiting waits until a second writer, a call of fn, has
// overlapped the held first one (its sign reads true) or is parked on
// the commit lock, which is where an ordered second writer waits.
func overlappedOrWaiting(t *testing.T, fn string, overlapped func() bool) {
	t.Helper()
	waitFor(t, fn+" overlapping or waiting on the commit lock", func() bool {
		return overlapped() || goroutineIn("(*Gateway)."+fn, "(*Gateway).lockWriter")
	})
}

// returned reads as true once the call sending on done has returned.
func returned(done chan error) func() bool { return func() bool { return len(done) > 0 } }

// assertOneCopy is the write-ordering end state: every replica of name
// answers the exact sum of the table's retained copy, and every applied
// entry is the head.
func assertOneCopy(t *testing.T, g *Gateway, name string, n int) {
	t.Helper()
	g.mu.Lock()
	pm := g.matrices[name]
	g.mu.Unlock()
	if pm == nil {
		t.Fatalf("%s is not placed", name)
	}
	want := wireSum(service.MatrixFromList(pm.list))
	st := g.updState(name)
	st.mu.Lock()
	head, applied := st.head, make(map[string]version, len(pm.replicas))
	for _, id := range pm.replicas {
		applied[id] = st.applied[id]
	}
	st.mu.Unlock()
	for _, id := range pm.replicas {
		if got, err := backendSum(context.Background(), id, name, n); err != nil || got != want {
			t.Errorf("replica %s answers %v, %v; the table's copy sums to %v", id, got, err, want)
		}
		if applied[id] != head {
			t.Errorf("replica %s applied %v, head %v", id, applied[id], head)
		}
	}
}

// backendLists reports whether the backend at addr lists name.
func backendLists(t *testing.T, addr, name string) bool {
	t.Helper()
	held, err := service.New(addr).Matrices(context.Background())
	if err != nil {
		t.Fatalf("list %s: %v", addr, err)
	}
	return slices.ContainsFunc(held, func(mi service.MatrixInfo) bool { return mi.Name == name })
}

// TestConcurrentPutsOfOneName runs two puts of one name while the first
// put's leg at y is held. The second put waits for the first, so both
// replicas end holding the second matrix, which the table holds too.
func TestConcurrentPutsOfOneName(t *testing.T) {
	n := 8
	x, y := startHookedBackend(t), startHookedBackend(t)
	g := newTestGateway(t, 2, x.url, y.url)
	ctx := context.Background()
	first, _ := testMatrix(n)
	entered, release := holdFirst(t, y, http.MethodPut)

	put1 := make(chan error, 1)
	go func() { _, err := g.PutMatrix(ctx, "m", first); put1 <- err }()
	<-entered
	put2 := make(chan error, 1)
	go func() { _, err := g.PutMatrix(ctx, "m", identWire(n)); put2 <- err }()
	overlappedOrWaiting(t, "PutMatrix", returned(put2))
	release()
	for _, done := range []chan error{put1, put2} {
		if err := <-done; err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	assertOneCopy(t, g, "m", n)
}

// TestPutDuringUpdateLeg runs a replacement put while a row update's leg
// at b is held. b refuses any upload after the one that reaches it while
// the leg is held, so a put that overlaps the leg cannot be repaired
// afterwards: the put must wait for the update instead.
func TestPutDuringUpdateLeg(t *testing.T) {
	n := 8
	a, b := startHookedBackend(t), startHookedBackend(t)
	g := newTestGateway(t, 2, a.url, b.url)
	ctx := context.Background()
	wire, _ := testMatrix(n)
	if _, err := g.PutMatrix(ctx, "m", wire); err != nil {
		t.Fatal(err)
	}
	entered, gate := make(chan struct{}), make(chan struct{})
	var release sync.Once
	free := func() { release.Do(func() { close(gate) }) }
	t.Cleanup(free)
	var legHeld, putDuringLeg atomic.Bool
	b.setHook(func(r *http.Request) int {
		switch {
		case r.Method == http.MethodPatch && !legHeld.Load():
			legHeld.Store(true)
			close(entered)
			<-gate
		case r.Method == http.MethodPut && putDuringLeg.Load():
			return http.StatusServiceUnavailable
		case r.Method == http.MethodPut && legHeld.Load():
			select {
			case <-gate:
			default:
				putDuringLeg.Store(true)
			}
		}
		return 0
	})

	updated := make(chan error, 1)
	go func() {
		_, err := g.UpdateRows(ctx, "m", replaceRowReq(0, [][2]int64{{2, 7}}))
		updated <- err
	}()
	<-entered
	put := make(chan error, 1)
	go func() { _, err := g.PutMatrix(ctx, "m", identWire(n)); put <- err }()
	overlappedOrWaiting(t, "PutMatrix", putDuringLeg.Load)
	free()
	if err := <-updated; err != nil {
		t.Errorf("update: %v", err)
	}
	if err := <-put; err != nil {
		t.Fatalf("put: %v", err)
	}
	assertOneCopy(t, g, "m", n)
}

// TestDeleteDuringUpdateLeg deletes a matrix while a row update's leg is
// held. The delete waits for the update, so no backend lists the name
// afterwards: the leg's 404 repair cannot re-create it.
func TestDeleteDuringUpdateLeg(t *testing.T) {
	n := 8
	a, b := startHookedBackend(t), startHookedBackend(t)
	g := newTestGateway(t, 2, a.url, b.url)
	ctx := context.Background()
	wire, _ := testMatrix(n)
	if _, err := g.PutMatrix(ctx, "m", wire); err != nil {
		t.Fatal(err)
	}
	entered, release := holdFirst(t, b, http.MethodPatch)
	updated := make(chan error, 1)
	go func() {
		_, err := g.UpdateRows(ctx, "m", replaceRowReq(0, [][2]int64{{2, 7}}))
		updated <- err
	}()
	<-entered
	deleted := make(chan error, 1)
	go func() { deleted <- g.DeleteMatrix(ctx, "m") }()
	overlappedOrWaiting(t, "DeleteMatrix", returned(deleted))
	release()
	if err := <-updated; err != nil {
		t.Errorf("update: %v", err)
	}
	if err := <-deleted; err != nil {
		t.Fatalf("delete: %v", err)
	}
	for _, hb := range []*hookedBackend{a, b} {
		if backendLists(t, hb.url, "m") {
			t.Errorf("backend %s still lists the deleted matrix", hb.url)
		}
	}
	if g.updState("m") != nil {
		t.Error("the deleted matrix kept its update state")
	}
}

// TestFailedReplacementKeepsOldCopy fails a replacement put at x: the
// copy that landed on y is put back to the table's, not deleted.
func TestFailedReplacementKeepsOldCopy(t *testing.T) {
	n := 8
	x, y := startHookedBackend(t), startHookedBackend(t)
	g := newTestGateway(t, 2, x.url, y.url)
	ctx := context.Background()
	wire, sum := testMatrix(n)
	if _, err := g.PutMatrix(ctx, "m", wire); err != nil {
		t.Fatal(err)
	}
	x.setHook(func(r *http.Request) int {
		if r.Method == http.MethodPut {
			return http.StatusInternalServerError
		}
		return 0
	})
	if _, err := g.PutMatrix(ctx, "m", identWire(n)); err == nil {
		t.Fatal("replacement put succeeded with a replica refusing it")
	}
	if got, err := backendSum(ctx, y.url, "m", n); err != nil || got != sum {
		t.Fatalf("y after the failed replacement answers %v, %v; want the old copy's %v", got, err, sum)
	}
	assertOneCopy(t, g, "m", n)
}

// TestFailedDeleteIsSwept answers one replica's delete with 503: its
// next probe sweeps the copy.
func TestFailedDeleteIsSwept(t *testing.T) {
	n := 8
	x, y := startHookedBackend(t), startHookedBackend(t)
	g := newAsyncGatewayCfg(t, 0, 20*time.Millisecond, 0, x.url, y.url)
	ctx := context.Background()
	wire, _ := testMatrix(n)
	if _, err := g.PutMatrix(ctx, "m", wire); err != nil {
		t.Fatal(err)
	}
	var refused atomic.Bool
	x.setHook(func(r *http.Request) int {
		if r.Method == http.MethodDelete && refused.CompareAndSwap(false, true) {
			return http.StatusServiceUnavailable
		}
		return 0
	})
	if err := g.DeleteMatrix(ctx, "m"); err != nil {
		t.Fatal(err)
	}
	if !refused.Load() || !backendLists(t, x.url, "m") {
		t.Fatal("x did not keep the copy its refused delete left")
	}
	waitFor(t, "x swept of the deleted matrix", func() bool { return !backendLists(t, x.url, "m") })
	if backendLists(t, y.url, "m") {
		t.Fatal("y still lists the deleted matrix")
	}
}

// TestHTTPCommitAndPutOfOneName races a chunked commit and a single-body
// put of one name through the HTTP front while the commit's leg at y is
// held. Afterwards every replica holds the table's copy, and a strong
// read is served at the head.
func TestHTTPCommitAndPutOfOneName(t *testing.T) {
	n := 8
	x, y := startHookedBackend(t), startHookedBackend(t)
	g := newTestGateway(t, 2, x.url, y.url)
	srv := httptest.NewServer(NewHandler(g))
	t.Cleanup(srv.Close)
	gc := Dial(srv.URL)
	ctx := context.Background()
	wire, _ := testMatrix(n)
	up, err := gc.BeginUpload(ctx, "m", n, n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gc.AppendChunk(ctx, "m", up.Upload, 0, n, wire.Entries); err != nil {
		t.Fatal(err)
	}
	entered, release := holdFirst(t, y, http.MethodPut)
	committed := make(chan error, 1)
	go func() { _, err := gc.CommitUpload(ctx, "m", up.Upload); committed <- err }()
	<-entered
	put := make(chan error, 1)
	go func() { _, err := gc.UploadMatrix(ctx, "m", identWire(n)); put <- err }()
	overlappedOrWaiting(t, "PutMatrix", returned(put))
	release()
	for _, done := range []chan error{committed, put} {
		if err := <-done; err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	assertOneCopy(t, g, "m", n)

	body, err := json.Marshal(exactReq("m", n))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/estimate?consistency=strong", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("strong estimate status = %d", resp.StatusCode)
	}
	if got, want := resp.Header.Get("MP-Version"), headVersion(g.updState("m")).String(); got != want {
		t.Fatalf("MP-Version = %q, want the head %q", got, want)
	}
}
