package gateway

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestIntegrationUpdatesEstimatesKills is the end-to-end dynamic-
// workload scenario, run at both ends of the write-quorum knob: an
// in-process gateway over three real backends (R = 3) absorbs
// concurrent row updates and estimates while backends are killed and
// restarted underneath it. The bar is the production one — zero
// client-visible errors (kills cost failovers and repairs, never
// answers) — and, after the churn quiesces, a converged fleet (see
// assertConverged).
func TestIntegrationUpdatesEstimatesKills(t *testing.T) {
	for _, w := range []int{0, 1} {
		t.Run(fmt.Sprintf("W=%d", w), func(t *testing.T) { integrationUpdatesEstimatesKills(t, w) })
	}
}

func integrationUpdatesEstimatesKills(t *testing.T, quorum int) {
	const n = 10
	b1, b2, b3 := startBackend(t), startBackend(t), startBackend(t)
	backends := []*testBackend{b1, b2, b3}
	g := newAsyncGateway(t, 3, quorum, b1.addr, b2.addr, b3.addr)
	ctx := context.Background()

	wire, _ := testMatrix(n)
	if _, err := g.PutMatrix(ctx, "m", wire); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	errCh := make(chan error, 64)
	var wg sync.WaitGroup

	// Updaters: random single-row replacements with non-negative
	// values, so "exact" stays valid throughout.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(1000 + w)))
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				row := rnd.Intn(n)
				entries := [][2]int64{{int64(rnd.Intn(n)), rnd.Int63n(3) + 1}}
				if _, err := g.UpdateRows(ctx, "m", replaceRowReq(row, entries)); err != nil {
					errCh <- fmt.Errorf("updater %d iteration %d: %w", w, i, err)
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
		}(w)
	}

	// Estimators: the exact kind against an identity Alice; any error
	// is client-visible and fails the test.
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
				if _, err := g.Estimate(ctx, exactReq("m", n)); err != nil {
					errCh <- fmt.Errorf("estimator %d iteration %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}

	// Killer: three kill/restart cycles, one backend at a time, waiting
	// for every replica to catch back up to the log head between cycles
	// so the pool never has two replicas of the matrix behind at once —
	// the invariant that makes zero client-visible errors achievable.
	for cycle := 0; cycle < 3; cycle++ {
		victim := backends[cycle%len(backends)]
		victim.stop()
		time.Sleep(80 * time.Millisecond)
		victim.restart()
		waitFor(t, "victim re-admitted", func() bool {
			st, ok := backendStatus(g, victim.addr)
			return ok && st.Healthy
		})
		waitFor(t, "every replica back at the log head", func() bool { return atHead(g, "m") })
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
	want := assertConverged(t, g, "m", n)
	if res, err := g.Estimate(ctx, exactReq("m", n)); err != nil || res.Estimate != want {
		t.Errorf("gateway after churn: %v/%v, want %v", res, err, want)
	}

	st := g.Stats()
	t.Logf("churn stats: updates=%d reverts=%d failovers=%d retries=%d repairs=%d applied=%d reseeds=%d",
		st.Updates, st.UpdateReverts, st.Failovers, st.Retries, st.Repairs, st.AsyncApplied, st.AsyncReseeds)
	if st.Updates == 0 || st.Estimates == 0 {
		t.Error("churn did not exercise the update/estimate paths")
	}
}
