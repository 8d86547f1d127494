package gateway

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/service"
)

// TestIntegrationDurableResyncFromDisk is the crash-safe counterpart of
// the kill/restart churn test: three real backends each persisting to
// their own data directory, a gateway routing mixed update/estimate
// load, and a victim backend killed and restarted twice underneath it.
// A restarted durable backend recovers its matrices from its own disk
// before serving, so the probe resync finds nothing missing — the bar
// here is that the gateway's re-seed path is never exercised (Repairs
// and ReseedBytes stay zero while Resyncs advances) and no client sees
// an error. Updates deliberately target a matrix NOT placed on the
// victim: an update leg that dies against a stopping replica leaves its
// copy in an unknown state and forces a re-seed, which is exactly the
// mechanism this test must prove stays idle.
func TestIntegrationDurableResyncFromDisk(t *testing.T) {
	const n = 8
	b1, b2, b3 := startDurableBackend(t), startDurableBackend(t), startDurableBackend(t)
	byAddr := map[string]*testBackend{b1.addr: b1, b2.addr: b2, b3.addr: b3}
	g := newTestGateway(t, 2, b1.addr, b2.addr, b3.addr)
	ctx := context.Background()

	var names []string
	placements := make(map[string][]string)
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("m-%d", i)
		wire, _ := testMatrix(n)
		info, err := g.PutMatrix(ctx, name, wire)
		if err != nil {
			t.Fatalf("put %s: %v", name, err)
		}
		names = append(names, name)
		placements[name] = info.Replicas
	}

	// With R = 2 over three backends every matrix excludes exactly one:
	// the backend excluded by names[0] is the victim, and names[0] is
	// the update target guaranteed not to live there.
	updName := names[0]
	var victim *testBackend
	for addr, tb := range byAddr {
		placed := false
		for _, r := range placements[updName] {
			if r == addr {
				placed = true
			}
		}
		if !placed {
			victim = tb
		}
	}
	if victim == nil {
		t.Fatalf("no backend excluded by %s (replicas %v)", updName, placements[updName])
	}
	var victimNames []string
	for _, name := range names {
		for _, r := range placements[name] {
			if r == victim.addr {
				victimNames = append(victimNames, name)
			}
		}
	}
	if len(victimNames) == 0 {
		t.Skip("placement left the victim empty; nothing to recover")
	}

	done := make(chan struct{})
	errCh := make(chan error, 64)
	var wg sync.WaitGroup

	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(2000 + w)))
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				row := rnd.Intn(n)
				entries := [][2]int64{{int64(rnd.Intn(n)), rnd.Int63n(3) + 1}}
				if _, err := g.UpdateRows(ctx, updName, replaceRowReq(row, entries)); err != nil {
					errCh <- fmt.Errorf("updater %d iteration %d: %w", w, i, err)
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				name := names[i%len(names)]
				if _, err := g.Estimate(ctx, exactReq(name, n)); err != nil {
					errCh <- fmt.Errorf("estimator %d iteration %d (%s): %w", w, i, name, err)
					return
				}
			}
		}(w)
	}

	st0 := g.Stats()
	for cycle := 0; cycle < 2; cycle++ {
		pre := g.Stats().Resyncs
		victim.stop()
		time.Sleep(80 * time.Millisecond)
		victim.restart()
		waitFor(t, "victim re-admitted", func() bool {
			st, ok := backendStatus(g, victim.addr)
			return ok && st.Healthy
		})
		waitFor(t, "probe resync of the returned victim", func() bool {
			return g.Stats().Resyncs > pre
		})
	}
	close(done)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// The victim serves its placements again — and since the gateway's
	// re-seed counters did not move, the copies can only have come back
	// from its own data directory.
	for _, name := range victimNames {
		if !victim.holds(name) {
			t.Errorf("victim lost %s across the durable restart", name)
		}
	}
	st1 := g.Stats()
	t.Logf("durable churn stats: updates=%d estimates=%d resyncs=%d repairs=%d reseed_bytes=%d",
		st1.Updates, st1.Estimates, st1.Resyncs, st1.Repairs, st1.ReseedBytes)
	if st1.Resyncs <= st0.Resyncs {
		t.Errorf("probe resync never ran: resyncs %d -> %d", st0.Resyncs, st1.Resyncs)
	}
	if st1.Repairs != 0 {
		t.Errorf("gateway re-seeded %d replicas; durable recovery should leave repairs at zero", st1.Repairs)
	}
	if st1.ReseedBytes != 0 {
		t.Errorf("gateway re-uploaded %d wire bytes; durable recovery should re-seed nothing", st1.ReseedBytes)
	}
	if st1.Updates == 0 || st1.Estimates == 0 {
		t.Error("churn did not exercise the update/estimate paths")
	}

	// Every replica of every matrix answers exactly what the gateway's
	// retained wire implies — recovered copies included.
	for _, name := range names {
		g.mu.Lock()
		pm := g.matrices[name]
		g.mu.Unlock()
		want := wireSum(service.MatrixFromList(pm.list))
		for _, addr := range pm.replicas {
			res, err := service.New(addr).Estimate(ctx, exactReq(name, n))
			if err != nil {
				t.Fatalf("replica %s of %s after durable churn: %v", addr, name, err)
			}
			if res.Estimate != want {
				t.Errorf("replica %s of %s diverged: answers %v, retained wire implies %v", addr, name, res.Estimate, want)
			}
		}
	}
}

// lostReplyTransport forwards every request, but once armed it lets the
// next PATCH to host complete on the backend, then runs crash and
// reports a transport error in place of the reply — a backend that
// applied and fsynced an update and died before answering.
type lostReplyTransport struct {
	host  string
	crash func()
	armed atomic.Bool
}

func (lt *lostReplyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || req.Method != http.MethodPatch || req.URL.Host != lt.host || !lt.armed.CompareAndSwap(true, false) {
		return resp, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	lt.crash()
	return nil, errors.New("injected: reply lost after the backend applied the update")
}

// TestDurableReplicaLostReplyIsNotReplayedOver is the double-apply
// regression test: a delta update's leg reaches a durable replica, is
// applied and fsynced, and then fails with no answer. The replica
// recovers the update from its WAL, but the engine's idempotency keys do
// not survive the restart — replaying the log entry over the recovered
// copy would add the delta a second time. The gateway must treat the
// copy as unknown and reseed it instead.
func TestDurableReplicaLostReplyIsNotReplayedOver(t *testing.T) {
	for _, w := range []int{0, 1} {
		t.Run(fmt.Sprintf("W=%d", w), func(t *testing.T) {
			const n = 8
			b1, b2 := startDurableBackend(t), startDurableBackend(t)
			byAddr := map[string]*testBackend{b1.addr: b1, b2.addr: b2}
			lt := &lostReplyTransport{}
			g := New(Config{
				Backends:        []string{b1.addr, b2.addr},
				Replication:     2,
				ProbeInterval:   20 * time.Millisecond,
				ProbeTimeout:    500 * time.Millisecond,
				ProbeBackoffMax: 100 * time.Millisecond,
				WriteQuorum:     w,
				HTTPClient:      &http.Client{Transport: lt},
			})
			t.Cleanup(g.Close)
			ctx := context.Background()

			wire, sum := testMatrix(n)
			info, err := g.PutMatrix(ctx, "m", wire)
			if err != nil {
				t.Fatal(err)
			}
			// The placement head is the one leg every quorum tries first.
			victim, survivor := byAddr[info.Replicas[0]], byAddr[info.Replicas[1]]
			lt.host, lt.crash = victim.hostport, victim.stop

			delta := func(v int64) service.UpdateRequest {
				return service.UpdateRequest{Updates: []service.RowUpdate{{Row: 0, Entries: [][2]int64{{2, v}}}}, Delta: true}
			}
			if _, err := g.UpdateRows(ctx, "m", delta(5)); err != nil {
				t.Fatal(err)
			}
			lt.armed.Store(true)
			if _, err := g.UpdateRows(ctx, "m", delta(3)); err != nil {
				t.Fatalf("update with the victim's reply lost: %v", err)
			}
			if lt.armed.Load() {
				t.Fatal("the victim's leg was never sent")
			}
			want := sum + 5 + 3

			victim.restart() // from disk: the lost-reply update is in its WAL
			if got := assertConverged(t, g, "m", n); got != want {
				t.Fatalf("retained wire sum = %v, want %v", got, want)
			}
			got, err := backendSum(ctx, survivor.addr, "m", n)
			if err != nil || got != want {
				t.Fatalf("survivor answers %v/%v, want %v", got, err, want)
			}
		})
	}
}
