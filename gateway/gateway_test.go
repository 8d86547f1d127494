package gateway

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
	"repro/service"
)

// testBackend is one real mpserver engine behind a real HTTP listener
// that tests can stop and restart on the same address — the fixture
// for kill/re-add failover scenarios. A non-empty dataDir gives every
// engine incarnation a fresh disk store over the same directory, so a
// restart recovers durable state exactly as `mpserver -data-dir` does.
type testBackend struct {
	t        *testing.T
	addr     string // base URL
	hostport string
	cfg      service.Config
	dataDir  string
	mu       sync.Mutex
	engine   *service.Engine
	srv      *http.Server
	disk     *store.Disk
}

func startBackend(t *testing.T) *testBackend {
	return startBackendWith(t, service.Config{Workers: 4, Shards: 1})
}

func startBackendWith(t *testing.T, cfg service.Config) *testBackend {
	return startBackendAt(t, cfg, "")
}

// startDurableBackend starts a backend persisting to its own temp data
// directory; stop/restart cycles recover from it.
func startDurableBackend(t *testing.T) *testBackend {
	return startBackendAt(t, service.Config{Workers: 4, Shards: 1}, t.TempDir())
}

func startBackendAt(t *testing.T, cfg service.Config, dataDir string) *testBackend {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	b := &testBackend{t: t, hostport: ln.Addr().String(), cfg: cfg, dataDir: dataDir}
	b.addr = "http://" + b.hostport
	b.serve(ln)
	t.Cleanup(b.stop)
	return b
}

// serve installs a fresh engine behind the listener — an empty
// in-memory registry, recovered from the data directory when the
// backend is durable, exactly as a restarted process would.
func (b *testBackend) serve(ln net.Listener) {
	b.mu.Lock()
	defer b.mu.Unlock()
	cfg := b.cfg
	if b.dataDir != "" {
		d, err := store.OpenDisk(store.DiskConfig{Dir: b.dataDir, Fsync: store.FsyncAlways})
		if err != nil {
			b.t.Fatalf("open data dir: %v", err)
		}
		b.disk = d
		cfg.Store = d
	}
	b.engine = service.NewEngine(cfg)
	b.srv = &http.Server{Handler: service.NewHandler(b.engine)}
	srv := b.srv
	go func() { _ = srv.Serve(ln) }()
}

func (b *testBackend) stop() {
	b.mu.Lock()
	srv, eng, disk := b.srv, b.engine, b.disk
	b.srv, b.engine, b.disk = nil, nil, nil
	b.mu.Unlock()
	if srv != nil {
		_ = srv.Close()
	}
	if eng != nil {
		eng.Close()
	}
	if disk != nil {
		_ = disk.Close()
	}
}

func (b *testBackend) restart() {
	b.t.Helper()
	var ln net.Listener
	var err error
	// The just-freed port can linger in TIME_WAIT-adjacent states
	// briefly; retry the bind rather than flaking.
	for i := 0; i < 100; i++ {
		ln, err = net.Listen("tcp", b.hostport)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		b.t.Fatalf("rebind %s: %v", b.hostport, err)
	}
	b.serve(ln)
}

// holds reports whether the backend's current engine serves the named
// matrix.
func (b *testBackend) holds(name string) bool {
	b.mu.Lock()
	eng := b.engine
	b.mu.Unlock()
	if eng == nil {
		return false
	}
	for _, mi := range eng.Matrices() {
		if mi.Name == name {
			return true
		}
	}
	return false
}

// newTestGateway builds a gateway with the default write quorum: every
// live replica acks a row update before it commits.
func newTestGateway(t *testing.T, r int, addrs ...string) *Gateway {
	t.Helper()
	return newAsyncGateway(t, r, 0, addrs...)
}

// identWire is the n×n identity in wire form: with it as Alice's
// matrix, A·B = B, so kind "exact" answers ‖B‖1 deterministically.
func identWire(n int) service.Matrix {
	m := service.Matrix{Rows: n, Cols: n}
	for i := 0; i < n; i++ {
		m.Entries = append(m.Entries, [3]int64{int64(i), int64(i), 1})
	}
	return m
}

// testMatrix is a small non-negative served matrix with a known entry
// sum (= its exact ‖AB‖1 against an identity query).
func testMatrix(n int) (service.Matrix, float64) {
	m := service.Matrix{Rows: n, Cols: n}
	var sum float64
	for i := 0; i < n; i++ {
		v := int64(i%3 + 1)
		m.Entries = append(m.Entries, [3]int64{int64(i), int64((i + 1) % n), v})
		sum += float64(v)
	}
	return m, sum
}

func exactReq(name string, n int) service.Request {
	return service.Request{Matrix: name, Kind: "exact", A: identWire(n)}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// atHead reports whether every placed replica of name has applied the
// matrix's whole update log.
func atHead(g *Gateway, name string) bool {
	g.mu.Lock()
	pm, ok := g.matrices[name]
	g.mu.Unlock()
	if !ok {
		return false
	}
	st := g.updState(name)
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, id := range pm.replicas {
		if st.applied[id].Less(st.head) {
			return false
		}
	}
	return true
}

// assertConverged is the churn tests' end-state oracle, checked once
// the load has stopped: every placed replica's applied vector reaches
// the log head, and every replica then answers exactly the sum the
// gateway's retained wire implies. It returns that sum.
func assertConverged(t *testing.T, g *Gateway, name string, n int) float64 {
	t.Helper()
	waitFor(t, "every replica of "+name+" at the log head", func() bool { return atHead(g, name) })
	g.mu.Lock()
	pm := g.matrices[name]
	g.mu.Unlock()
	want := wireSum(service.MatrixFromList(pm.list))
	for _, addr := range pm.replicas {
		got, err := backendSum(context.Background(), addr, name, n)
		if err != nil {
			t.Fatalf("replica %s of %s after churn: %v", addr, name, err)
		}
		if got != want {
			t.Errorf("replica %s of %s diverged: answers %v, retained wire implies %v", addr, name, got, want)
		}
	}
	return want
}

func backendStatus(g *Gateway, addr string) (BackendStatus, bool) {
	for _, st := range g.Backends() {
		if st.Addr == addr {
			return st, true
		}
	}
	return BackendStatus{}, false
}

func TestPutReplicatesAndEstimates(t *testing.T) {
	n := 8
	b1, b2, b3 := startBackend(t), startBackend(t), startBackend(t)
	byAddr := map[string]*testBackend{b1.addr: b1, b2.addr: b2, b3.addr: b3}
	g := newTestGateway(t, 2, b1.addr, b2.addr, b3.addr)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	info, err := g.PutMatrix(ctx, "m", wire)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if len(info.Replicas) != 2 {
		t.Fatalf("want 2 replicas, got %v", info.Replicas)
	}
	for _, addr := range info.Replicas {
		if !byAddr[addr].holds("m") {
			t.Fatalf("replica %s does not hold the matrix", addr)
		}
	}
	// The third backend must not hold a copy.
	for addr, tb := range byAddr {
		placed := false
		for _, r := range info.Replicas {
			placed = placed || r == addr
		}
		if !placed && tb.holds("m") {
			t.Fatalf("non-replica %s holds the matrix", addr)
		}
	}
	if got := g.Matrices(); len(got) != 1 || got[0].Name != "m" || len(got[0].Replicas) != 2 {
		t.Fatalf("placement listing wrong: %+v", got)
	}
	res, err := g.Estimate(ctx, exactReq("m", n))
	if err != nil {
		t.Fatalf("estimate: %v", err)
	}
	if res.Estimate != sum {
		t.Fatalf("exact estimate = %v, want %v", res.Estimate, sum)
	}
	if err := g.DeleteMatrix(ctx, "m"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	for addr, tb := range byAddr {
		if tb.holds("m") {
			t.Fatalf("%s still holds the matrix after delete", addr)
		}
	}
	if _, err := g.Estimate(ctx, exactReq("m", n)); !errors.Is(err, service.ErrMatrixNotFound) {
		t.Fatalf("estimate after delete: %v, want ErrMatrixNotFound", err)
	}
}

func TestPutAllOrNothing(t *testing.T) {
	good := startBackend(t)
	// A backend that accepts probes but rejects every upload.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut {
			http.Error(w, `{"error":"disk full"}`, http.StatusInternalServerError)
			return
		}
		service.WriteJSON(w, http.StatusOK, service.Stats{})
	}))
	t.Cleanup(bad.Close)

	g := newTestGateway(t, 2, good.addr, bad.URL)
	_, err := g.PutMatrix(context.Background(), "m", identWire(4))
	if err == nil {
		t.Fatal("replicated put with a failing replica succeeded")
	}
	if good.holds("m") {
		t.Fatal("partial put left a copy on the healthy replica")
	}
	if len(g.Matrices()) != 0 {
		t.Fatalf("failed put entered the placement table: %v", g.Matrices())
	}
}

func TestEstimateFailoverOnKill(t *testing.T) {
	n := 8
	b1, b2, b3 := startBackend(t), startBackend(t), startBackend(t)
	byAddr := map[string]*testBackend{b1.addr: b1, b2.addr: b2, b3.addr: b3}
	g := newTestGateway(t, 2, b1.addr, b2.addr, b3.addr)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	info, err := g.PutMatrix(ctx, "m", wire)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	victim := byAddr[info.Replicas[0]]
	victim.stop()

	for i := 0; i < 8; i++ {
		res, err := g.Estimate(ctx, exactReq("m", n))
		if err != nil {
			t.Fatalf("estimate %d after kill: %v", i, err)
		}
		if res.Estimate != sum {
			t.Fatalf("estimate %d = %v, want %v", i, res.Estimate, sum)
		}
	}
	st := g.Stats()
	if st.Failovers == 0 {
		t.Fatalf("no failovers recorded after killing a replica: %+v", st)
	}
	waitFor(t, "victim marked unhealthy", func() bool {
		bs, ok := backendStatus(g, victim.addr)
		return ok && !bs.Healthy
	})
	if bs, _ := backendStatus(g, victim.addr); bs.LastError == "" {
		t.Fatal("unhealthy backend has no LastError")
	}
}

func TestKillRestartReadmitsAndResyncs(t *testing.T) {
	n := 8
	b1, b2 := startBackend(t), startBackend(t)
	byAddr := map[string]*testBackend{b1.addr: b1, b2.addr: b2}
	g := newTestGateway(t, 2, b1.addr, b2.addr)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	info, err := g.PutMatrix(ctx, "m", wire)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if len(info.Replicas) != 2 {
		t.Fatalf("want both backends as replicas, got %v", info.Replicas)
	}
	victim := byAddr[info.Replicas[1]]
	victim.stop()
	waitFor(t, "victim demoted", func() bool {
		bs, ok := backendStatus(g, victim.addr)
		return ok && !bs.Healthy
	})
	// The surviving replica answers alone.
	if res, err := g.Estimate(ctx, exactReq("m", n)); err != nil || res.Estimate != sum {
		t.Fatalf("estimate with one replica down: res=%v err=%v", res, err)
	}
	// Restart empty on the same address: the prober must re-admit it
	// only after re-seeding the placed matrix.
	victim.restart()
	waitFor(t, "victim re-admitted", func() bool {
		bs, ok := backendStatus(g, victim.addr)
		return ok && bs.Healthy
	})
	waitFor(t, "matrix re-seeded on the restarted replica", func() bool {
		return victim.holds("m")
	})
	if st := g.Stats(); st.Repairs == 0 {
		t.Fatalf("readmission resync recorded no repairs: %+v", st)
	}
}

func TestEstimate404RepairsReplica(t *testing.T) {
	n := 8
	b1 := startBackend(t)
	g := newTestGateway(t, 1, b1.addr)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	if _, err := g.PutMatrix(ctx, "m", wire); err != nil {
		t.Fatalf("put: %v", err)
	}
	// Simulate a silent data loss: delete the copy directly on the
	// backend, behind the gateway's back.
	if err := service.New(b1.addr).DeleteMatrix(ctx, "m"); err != nil {
		t.Fatalf("backdoor delete: %v", err)
	}
	res, err := g.Estimate(ctx, exactReq("m", n))
	if err != nil {
		t.Fatalf("estimate after replica data loss: %v", err)
	}
	if res.Estimate != sum {
		t.Fatalf("estimate = %v, want %v", res.Estimate, sum)
	}
	if st := g.Stats(); st.Repairs == 0 {
		t.Fatal("404 repair not recorded")
	}
}

func TestFailoverUnderConcurrentLoad(t *testing.T) {
	n := 8
	b1, b2, b3 := startBackend(t), startBackend(t), startBackend(t)
	byAddr := map[string]*testBackend{b1.addr: b1, b2.addr: b2, b3.addr: b3}
	g := newTestGateway(t, 2, b1.addr, b2.addr, b3.addr)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	info, err := g.PutMatrix(ctx, "m", wire)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	victim := byAddr[info.Replicas[0]]

	stop := make(chan struct{})
	errCh := make(chan error, 64)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := g.Estimate(ctx, exactReq("m", n))
				if err != nil {
					errCh <- err
					return
				}
				if res.Estimate != sum {
					errCh <- fmt.Errorf("estimate = %v, want %v", res.Estimate, sum)
					return
				}
			}
		}()
	}
	time.Sleep(80 * time.Millisecond)
	victim.stop() // kill a replica with estimates in flight
	time.Sleep(150 * time.Millisecond)
	victim.restart() // and bring it back while load continues
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("client-visible error during kill/re-add: %v", err)
	default:
	}
	if st := g.Stats(); st.Failovers == 0 {
		t.Fatalf("no failovers under mid-run kill: %+v", st)
	}
}

func TestDrainRebalances(t *testing.T) {
	n := 8
	b1, b2, b3 := startBackend(t), startBackend(t), startBackend(t)
	byAddr := map[string]*testBackend{b1.addr: b1, b2.addr: b2, b3.addr: b3}
	g := newTestGateway(t, 2, b1.addr, b2.addr, b3.addr)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	names := make([]string, 8)
	for i := range names {
		names[i] = fmt.Sprintf("m%d", i)
		if _, err := g.PutMatrix(ctx, names[i], wire); err != nil {
			t.Fatalf("put %s: %v", names[i], err)
		}
	}
	// Drain the backend with at least one placement.
	var victim *testBackend
	for _, pm := range g.Matrices() {
		victim = byAddr[pm.Replicas[0]]
		break
	}
	before := victim.engine.Stats().Requests
	rep, err := g.DrainBackend(ctx, victim.addr)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if rep.Action != "drain" || rep.Failed != 0 {
		t.Fatalf("drain report: %+v", rep)
	}
	for _, pm := range g.Matrices() {
		if len(pm.Replicas) != 2 {
			t.Fatalf("%s: want 2 replicas after drain, got %v", pm.Name, pm.Replicas)
		}
		for _, r := range pm.Replicas {
			if r == victim.addr {
				t.Fatalf("%s still placed on drained backend", pm.Name)
			}
			if !byAddr[r].holds(pm.Name) {
				t.Fatalf("%s: replica %s missing its copy after rebalance", pm.Name, r)
			}
		}
	}
	for _, name := range names {
		if victim.holds(name) {
			t.Fatalf("drained backend still holds %s", name)
		}
		res, err := g.Estimate(ctx, exactReq(name, n))
		if err != nil || res.Estimate != sum {
			t.Fatalf("estimate %s after drain: res=%v err=%v", name, res, err)
		}
	}
	if after := victim.engine.Stats().Requests; after != before {
		t.Fatalf("drained backend served %d new estimates", after-before)
	}
	if st := g.Stats(); st.Rebalanced == 0 {
		t.Fatal("drain rebalanced nothing")
	}
}

func TestAddBackendRebalances(t *testing.T) {
	n := 8
	b1, b2 := startBackend(t), startBackend(t)
	g := newTestGateway(t, 2, b1.addr, b2.addr)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	for i := 0; i < 8; i++ {
		if _, err := g.PutMatrix(ctx, fmt.Sprintf("m%d", i), wire); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	b3 := startBackend(t)
	rep, err := g.AddBackend(ctx, b3.addr)
	if err != nil {
		t.Fatalf("add: %v", err)
	}
	if rep.Action != "add" || rep.Backend != b3.addr {
		t.Fatalf("add report: %+v", rep)
	}
	// Every matrix must now sit exactly on its rendezvous top-2 over
	// the grown pool, with the data actually there.
	byAddr := map[string]*testBackend{b1.addr: b1, b2.addr: b2, b3.addr: b3}
	moved := 0
	for _, pm := range g.Matrices() {
		want := placeOn(rankBackends([]string{b1.addr, b2.addr, b3.addr}, pm.Name), 2)
		if !equalSets(pm.Replicas, want) {
			t.Fatalf("%s placed on %v, want %v", pm.Name, pm.Replicas, want)
		}
		onNew := false
		for _, r := range pm.Replicas {
			if !byAddr[r].holds(pm.Name) {
				t.Fatalf("%s: replica %s missing copy", pm.Name, r)
			}
			onNew = onNew || r == b3.addr
		}
		if onNew {
			moved++
		}
		res, err := g.Estimate(ctx, exactReq(pm.Name, n))
		if err != nil || res.Estimate != sum {
			t.Fatalf("estimate %s after add: res=%v err=%v", pm.Name, res, err)
		}
	}
	if moved == 0 {
		t.Fatal("adding a backend moved no matrices (8 names should not all miss its top-2)")
	}
	if moved != rep.Moved {
		t.Fatalf("report says %d moved, placement shows %d", rep.Moved, moved)
	}
}

func TestRemoveBackend(t *testing.T) {
	n := 8
	b1, b2, b3 := startBackend(t), startBackend(t), startBackend(t)
	g := newTestGateway(t, 2, b1.addr, b2.addr, b3.addr)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	for i := 0; i < 6; i++ {
		if _, err := g.PutMatrix(ctx, fmt.Sprintf("m%d", i), wire); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if _, err := g.RemoveBackend(ctx, b3.addr); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, ok := backendStatus(g, b3.addr); ok {
		t.Fatal("removed backend still listed")
	}
	for _, pm := range g.Matrices() {
		for _, r := range pm.Replicas {
			if r == b3.addr {
				t.Fatalf("%s still placed on removed backend", pm.Name)
			}
		}
		res, err := g.Estimate(ctx, exactReq(pm.Name, n))
		if err != nil || res.Estimate != sum {
			t.Fatalf("estimate %s after remove: res=%v err=%v", pm.Name, res, err)
		}
	}
	if _, err := g.DrainBackend(ctx, "http://nope:1"); !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("drain of unknown backend: %v, want ErrUnknownBackend", err)
	}
}

func TestResyncDeletesStragglers(t *testing.T) {
	b1, b2 := startBackend(t), startBackend(t)
	g := newTestGateway(t, 2, b1.addr, b2.addr)
	ctx := context.Background()

	if _, err := g.PutMatrix(ctx, "placed", identWire(4)); err != nil {
		t.Fatalf("put: %v", err)
	}
	// A matrix the gateway knows nothing about appears on a backend
	// (say, left over from before the backend was pooled).
	if _, err := service.New(b1.addr).UploadMatrix(ctx, "straggler", identWire(4)); err != nil {
		t.Fatalf("backdoor upload: %v", err)
	}
	g.mu.Lock()
	b := g.backends[b1.addr]
	g.mu.Unlock()
	g.resyncBackend(b)
	if b1.holds("straggler") {
		t.Fatal("resync kept a matrix the placement table does not know")
	}
	if !b1.holds("placed") {
		t.Fatal("resync deleted a placed matrix")
	}
}

func TestProbeBackoff(t *testing.T) {
	// A port with nothing listening: every probe fails fast.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := "http://" + ln.Addr().String()
	ln.Close()
	g := New(Config{
		Backends:        []string{addr},
		ProbeInterval:   10 * time.Millisecond,
		ProbeBackoffMax: 80 * time.Millisecond,
	})
	t.Cleanup(g.Close)
	g.mu.Lock()
	b := g.backends[addr]
	g.mu.Unlock()

	var gaps []time.Duration
	for i := 0; i < 6; i++ {
		g.probeBackend(b)
		b.mu.Lock()
		if b.healthy {
			t.Fatal("dead backend probed healthy")
		}
		if b.consecFails != i+1 {
			t.Fatalf("consecFails = %d after %d failures", b.consecFails, i+1)
		}
		gaps = append(gaps, time.Until(b.nextProbe))
		b.mu.Unlock()
	}
	// The backoff must grow and then cap: 20ms, 40ms, 80ms, 80ms, …
	if !(gaps[0] < gaps[1] && gaps[1] < gaps[2]) {
		t.Fatalf("backoff not growing: %v", gaps)
	}
	if gaps[5] > 100*time.Millisecond {
		t.Fatalf("backoff exceeded cap: %v", gaps)
	}
}
