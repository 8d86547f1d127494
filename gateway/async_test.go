package gateway

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/service"
)

// newAsyncGateway builds a gateway committing row updates on a write
// quorum of w (0: every live replica) with the background apply loop
// draining the rest.
func newAsyncGateway(t *testing.T, r, w int, addrs ...string) *Gateway {
	t.Helper()
	g := New(Config{
		Backends:        addrs,
		Replication:     r,
		ProbeInterval:   20 * time.Millisecond,
		ProbeTimeout:    500 * time.Millisecond,
		ProbeBackoffMax: 100 * time.Millisecond,
		WriteQuorum:     w,
	})
	t.Cleanup(g.Close)
	return g
}

// backendSum reads a matrix's exact sum directly from one backend,
// bypassing the gateway — the ground truth for convergence checks.
func backendSum(ctx context.Context, addr, name string, n int) (float64, error) {
	res, err := service.New(addr).Estimate(ctx, exactReq(name, n))
	if err != nil {
		return 0, err
	}
	return res.Estimate, nil
}

func TestAsyncUpdateCommitsOnQuorumAndDrains(t *testing.T) {
	n := 8
	b1, b2, b3 := startBackend(t), startBackend(t), startBackend(t)
	g := newAsyncGateway(t, 3, 1, b1.addr, b2.addr, b3.addr)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	if _, err := g.PutMatrix(ctx, "m", wire); err != nil {
		t.Fatal(err)
	}
	rep, ver, err := g.updateRowsSLA(ctx, "m", replaceRowReq(0, [][2]int64{{2, 7}}), "")
	if err != nil {
		t.Fatalf("async update: %v", err)
	}
	if rep.RowsApplied != 1 {
		t.Fatalf("async update reply: %+v", rep)
	}
	if ver.seq == 0 {
		t.Fatalf("committed version = %v, want seq > 0", ver)
	}
	want := sum - 1 + 7

	// A strong read is correct immediately after the quorum commit,
	// before the apply loop has drained the lagging replicas.
	res, _, err := g.estimateSLA(ctx, exactReq("m", n), SLA{Level: ConsStrong}, "")
	if err != nil || res.Estimate != want {
		t.Fatalf("strong read after quorum commit: res=%v err=%v want=%v", res, err, want)
	}

	// The apply loop converges every replica to the committed state.
	for _, b := range []*testBackend{b1, b2, b3} {
		addr := b.addr
		waitFor(t, "replica "+addr+" to converge", func() bool {
			got, err := backendSum(ctx, addr, "m", n)
			return err == nil && got == want
		})
	}

	st := g.Stats()
	if st.WriteQuorum != 1 {
		t.Fatalf("stats write quorum: W=%d", st.WriteQuorum)
	}
	if st.UpdateLogEntries == 0 {
		t.Fatal("no retained update-log entries after an async commit")
	}
	// The apply loop counts a replay after the backend has answered it,
	// so the replicas can be seen converged a moment before the counter.
	waitFor(t, "the apply loop to count the two lagging replicas", func() bool {
		st := g.Stats()
		return st.AsyncApplied+st.AsyncReseeds >= 2
	})
}

// TestAsyncRMWPinsToAckedReplica kills one of two replicas and checks
// that a read-my-writes session still observes its own write: routing
// must pin to a replica that has applied the session's writes, and the
// restarted replica must be reseeded before serving the session again.
func TestAsyncRMWPinsToAckedReplica(t *testing.T) {
	n := 8
	b1, b2 := startBackend(t), startBackend(t)
	g := newAsyncGateway(t, 2, 1, b1.addr, b2.addr)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	info, err := g.PutMatrix(ctx, "m", wire)
	if err != nil {
		t.Fatal(err)
	}
	byAddr := map[string]*testBackend{b1.addr: b1, b2.addr: b2}
	victim := byAddr[info.Replicas[1]]
	victim.stop()

	// The write commits on the surviving replica's ack alone.
	_, _, err = g.updateRowsSLA(ctx, "m", replaceRowReq(0, [][2]int64{{3, 9}}), "rmw-sess")
	if err != nil {
		t.Fatalf("quorum-1 update with a dead replica: %v", err)
	}
	want := sum - 1 + 9

	// Read-my-writes must route to the acked replica, never the dead
	// (and behind) one, for as long as the session lives.
	for i := 0; i < 5; i++ {
		res, _, err := g.estimateSLA(ctx, exactReq("m", n), SLA{Level: ConsRMW}, "rmw-sess")
		if err != nil || res.Estimate != want {
			t.Fatalf("rmw read %d: res=%v err=%v want=%v", i, res, err, want)
		}
	}

	// Restart the victim: the prober readmits and reseeds it with the
	// committed state, after which it too can serve the session.
	victim.restart()
	waitFor(t, "restarted replica to be reseeded", func() bool {
		got, err := backendSum(ctx, victim.addr, "m", n)
		return err == nil && got == want
	})
	survivor := byAddr[info.Replicas[0]]
	survivor.stop()
	waitFor(t, "rmw read to fail over to the reseeded replica", func() bool {
		res, _, err := g.estimateSLA(ctx, exactReq("m", n), SLA{Level: ConsRMW}, "rmw-sess")
		return err == nil && res.Estimate == want
	})
}

// TestAsyncThroughputBeatsSyncWithSlowReplica is the acceptance check
// for the replication-mode split: with one replica serving PATCH
// slowly, sync commits pay the slow leg on every update while async
// commits return on the fast quorum ack and drain the slow replica in
// the background — at least 2× the replicated row-update throughput.
func TestAsyncThroughputBeatsSyncWithSlowReplica(t *testing.T) {
	n := 8
	const (
		patchDelay = 20 * time.Millisecond
		updates    = 15
	)
	slowEng := service.NewEngine(service.Config{Workers: 4, Shards: 1})
	t.Cleanup(slowEng.Close)
	slowH := service.NewHandler(slowEng)
	slowSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPatch {
			time.Sleep(patchDelay)
		}
		slowH.ServeHTTP(w, r)
	}))
	t.Cleanup(slowSrv.Close)
	b1, b2 := startBackend(t), startBackend(t)
	addrs := []string{b1.addr, b2.addr, slowSrv.URL}

	ctx := context.Background()
	wire, sum := testMatrix(n)

	run := func(g *Gateway, prefix string) (string, time.Duration) {
		t.Helper()
		// Pick a matrix name whose quorum head is a fast backend so the
		// async run measures quorum-commit latency, not the slow leg.
		name := ""
		for i := 0; i < 32; i++ {
			cand := fmt.Sprintf("%s%d", prefix, i)
			info, err := g.PutMatrix(ctx, cand, wire)
			if err != nil {
				t.Fatal(err)
			}
			if info.Replicas[0] != slowSrv.URL {
				name = cand
				break
			}
			if err := g.DeleteMatrix(ctx, cand); err != nil {
				t.Fatal(err)
			}
		}
		if name == "" {
			t.Fatal("no placement with a fast quorum head found")
		}
		start := time.Now()
		for i := 0; i < updates; i++ {
			if _, err := g.UpdateRows(ctx, name, replaceRowReq(0, [][2]int64{{2, int64(i + 2)}})); err != nil {
				t.Fatalf("%s update %d: %v", prefix, i, err)
			}
		}
		return name, time.Since(start)
	}

	gSync := newTestGateway(t, 3, addrs...)
	_, syncElapsed := run(gSync, "ts")

	gAsync := newAsyncGateway(t, 3, 1, addrs...)
	asyncName, asyncElapsed := run(gAsync, "ta")

	if syncElapsed < updates*patchDelay {
		t.Fatalf("sync run finished in %v — the slow replica leg was not on the commit path", syncElapsed)
	}
	if asyncElapsed*2 > syncElapsed {
		t.Fatalf("async throughput not ≥2× sync: async %v, sync %v", asyncElapsed, syncElapsed)
	}

	// Background drain still converges the slow replica to the final
	// committed state — async trades latency, not durability of order.
	want := sum - 1 + float64(updates+1)
	waitFor(t, "slow replica to drain the update backlog", func() bool {
		got, err := backendSum(ctx, slowSrv.URL, asyncName, n)
		return err == nil && got == want
	})
}

// TestGatewayDedupesIdempotencyKey checks the server-side half of the
// retry fix: a keyed delta update replayed with the same key must apply
// once and answer the remembered reply.
func TestGatewayDedupesIdempotencyKey(t *testing.T) {
	n := 8
	b1, b2 := startBackend(t), startBackend(t)
	g := newTestGateway(t, 2, b1.addr, b2.addr)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	if _, err := g.PutMatrix(ctx, "m", wire); err != nil {
		t.Fatal(err)
	}
	req := service.UpdateRequest{
		Updates: []service.RowUpdate{{Row: 0, Entries: [][2]int64{{5, 3}}}},
		Delta:   true,
		Key:     42,
	}
	first, err := g.UpdateRows(ctx, "m", req)
	if err != nil {
		t.Fatal(err)
	}
	// A delta replay without dedupe would add 3 again; the keyed replay
	// must be answered from the dedupe window instead.
	replay, err := g.UpdateRows(ctx, "m", req)
	if err != nil {
		t.Fatal(err)
	}
	if replay != first {
		t.Fatalf("replayed reply %+v != first %+v", replay, first)
	}
	res, err := g.Estimate(ctx, exactReq("m", n))
	if err != nil {
		t.Fatal(err)
	}
	if want := sum + 3; res.Estimate != want {
		t.Fatalf("delta applied %v times: sum=%v want=%v", (res.Estimate-sum)/3, res.Estimate, want)
	}
}

// TestSaturatedBackendSheds429 checks that a 429 + Retry-After reply
// marks a backend saturated — unroutable — for exactly the hinted
// window instead of a full probe-cycle demotion.
func TestSaturatedBackendSheds429(t *testing.T) {
	b := newBackend("http://127.0.0.1:2", nil)
	if !b.eligible() {
		t.Fatal("fresh backend not eligible")
	}
	b.noteFailover(&service.APIError{Status: http.StatusTooManyRequests, RetryAfter: 50 * time.Millisecond}, false)
	if b.eligible() {
		t.Fatal("saturated backend still eligible")
	}
	b.mu.Lock()
	healthy := b.healthy
	b.mu.Unlock()
	if !healthy {
		t.Fatal("a shed must not demote the backend to unhealthy")
	}
	waitFor(t, "saturation window to lapse", b.eligible)
}

// TestAsyncConsistencyUnderChurn is the -race integration test for the
// apply loop, run at both ends of the write-quorum knob: concurrent
// updates and SLA reads while a replica is killed and restarted, with a
// bounded-staleness reader asserting its bound is never violated and a
// read-my-writes session never observing its own write missing. Clients
// must see zero errors throughout.
func TestAsyncConsistencyUnderChurn(t *testing.T) {
	for _, w := range []int{0, 1} {
		t.Run(fmt.Sprintf("W=%d", w), func(t *testing.T) { consistencyUnderChurn(t, w) })
	}
}

func consistencyUnderChurn(t *testing.T, quorum int) {
	n := 8
	b1, b2, b3 := startBackend(t), startBackend(t), startBackend(t)
	g := newAsyncGateway(t, 3, quorum, b1.addr, b2.addr, b3.addr)
	srv := httptest.NewServer(NewHandler(g))
	t.Cleanup(srv.Close)
	ctx := context.Background()

	wire, base := testMatrix(n)
	info, err := g.PutMatrix(ctx, "m", wire)
	if err != nil {
		t.Fatal(err)
	}
	wire2, base2 := testMatrix(n)
	if _, err := g.PutMatrix(ctx, "rmw", wire2); err != nil {
		t.Fatal(err)
	}

	const bound = 500 * time.Millisecond
	var (
		mu      sync.Mutex
		commits []struct {
			at time.Time
			k  int64
		}
		failures []string
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writer: bumps row 0 of "m" to k=2,3,… and logs each commit's
	// return time — an upper bound on its commit point, so the bounded
	// reader's floor below is conservative.
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := service.New(srv.URL)
		for k := int64(2); ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := client.UpdateRows(ctx, "m", replaceRowReq(0, [][2]int64{{2, k}})); err != nil {
				fail("writer k=%d: %v", k, err)
				return
			}
			mu.Lock()
			commits = append(commits, struct {
				at time.Time
				k  int64
			}{time.Now(), k})
			mu.Unlock()
			time.Sleep(3 * time.Millisecond)
		}
	}()

	// Bounded-staleness reader: an observation may never be older than
	// the newest write committed before (readStart - bound).
	floorChecked := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := service.New(srv.URL,
			service.WithHeader("MP-Consistency", fmt.Sprintf("bounded:%v", bound)))
		for {
			select {
			case <-stop:
				return
			default:
			}
			readStart := time.Now()
			res, err := client.Estimate(ctx, exactReq("m", n))
			if err != nil {
				fail("bounded reader: %v", err)
				return
			}
			kObs := int64(res.Estimate-base) + 1
			cutoff := readStart.Add(-bound)
			var kFloor int64
			mu.Lock()
			for _, c := range commits {
				if c.at.After(cutoff) {
					break
				}
				kFloor = c.k
			}
			mu.Unlock()
			if kFloor > 0 {
				floorChecked++
			}
			if kObs < kFloor {
				fail("staleness bound violated: observed k=%d, floor k=%d", kObs, kFloor)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Read-my-writes session: writes row 1 of "rmw" then immediately
	// reads under the same session — its own write must never be
	// missing, regardless of which replicas have drained.
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := service.New(srv.URL,
			service.WithHeader("MP-Consistency", "rmw"),
			service.WithHeader("MP-Session", "churn-rmw"))
		for j := int64(3); ; j++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := client.UpdateRows(ctx, "rmw", replaceRowReq(1, [][2]int64{{3, j}})); err != nil {
				fail("rmw writer j=%d: %v", j, err)
				return
			}
			res, err := client.Estimate(ctx, exactReq("rmw", n))
			if err != nil {
				fail("rmw reader j=%d: %v", j, err)
				return
			}
			if want := base2 - 2 + float64(j); res.Estimate != want {
				fail("rmw session missed its own write: got %v, want %v (j=%d)", res.Estimate, want, j)
				return
			}
			time.Sleep(4 * time.Millisecond)
		}
	}()

	// Eventual readers: no staleness assertion, but zero errors.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := service.New(srv.URL,
				service.WithHeader("MP-Consistency", "eventual"))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := client.Estimate(ctx, exactReq("m", n)); err != nil {
					fail("eventual reader: %v", err)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	// Churn: kill the tail replica of "m" mid-run, then bring it back.
	byAddr := map[string]*testBackend{b1.addr: b1, b2.addr: b2, b3.addr: b3}
	victim := byAddr[info.Replicas[len(info.Replicas)-1]]
	time.Sleep(250 * time.Millisecond)
	victim.stop()
	time.Sleep(350 * time.Millisecond)
	victim.restart()
	time.Sleep(450 * time.Millisecond)
	close(stop)
	wg.Wait()

	if len(failures) > 0 {
		t.Fatalf("%d failures under churn, first: %s", len(failures), failures[0])
	}
	if floorChecked == 0 {
		t.Fatal("bounded reader never exercised a non-zero floor")
	}
	if len(commits) == 0 {
		t.Fatal("writer made no progress")
	}

	// After the churn settles, every replica converges on the final
	// committed value.
	finalK := commits[len(commits)-1].k
	if got, want := assertConverged(t, g, "m", n), base-1+float64(finalK); got != want {
		t.Fatalf("retained wire sum = %v, want the last committed write's %v", got, want)
	}
	assertConverged(t, g, "rmw", n)
}
