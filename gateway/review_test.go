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

// TestRebalanceFailureKeepsLiveReplicas pins the failed-move rule: a
// gain that does not land must leave the old replicas — whose copies
// were not deleted — in the placement table, so the matrix neither
// under-replicates nor has its survivors reaped as stragglers.
func TestRebalanceFailureKeepsLiveReplicas(t *testing.T) {
	n := 8
	b1, b2 := startBackend(t), startBackend(t)
	g := newTestGateway(t, 2, b1.addr, b2.addr)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	names := make([]string, 6)
	for i := range names {
		names[i] = fmt.Sprintf("m%d", i)
		if _, err := g.PutMatrix(ctx, names[i], wire); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	// A backend that answers probes but rejects every upload joins the
	// pool: every matrix whose new top-2 includes it fails its move.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut {
			http.Error(w, `{"error":"no room"}`, http.StatusInternalServerError)
			return
		}
		service.WriteJSON(w, http.StatusOK, service.Stats{})
	}))
	t.Cleanup(bad.Close)
	rep, err := g.AddBackend(ctx, bad.URL)
	if err != nil {
		t.Fatalf("add: %v", err)
	}
	if rep.Failed == 0 {
		t.Skip("no matrix ranked the bad backend in its top-2 (6 names; astronomically unlikely)")
	}
	// Every matrix must still list both original replicas and keep
	// answering at full strength.
	for _, pm := range g.Matrices() {
		if len(pm.Replicas) != 2 {
			t.Fatalf("%s under-replicated after failed rebalance: %v", pm.Name, pm.Replicas)
		}
		for _, r := range pm.Replicas {
			if r == bad.URL {
				t.Fatalf("%s placed on the backend that rejected it", pm.Name)
			}
		}
		res, err := g.Estimate(ctx, exactReq(pm.Name, n))
		if err != nil || res.Estimate != sum {
			t.Fatalf("estimate %s after failed rebalance: res=%v err=%v", pm.Name, res, err)
		}
	}
	// The survivors' copies must not be reaped as stragglers by a
	// probe resync.
	g.mu.Lock()
	h1, h2 := g.backends[b1.addr], g.backends[b2.addr]
	g.mu.Unlock()
	g.resyncBackend(h1)
	g.resyncBackend(h2)
	for _, name := range names {
		if !b1.holds(name) || !b2.holds(name) {
			t.Fatalf("resync reaped a live replica of %s after a failed rebalance", name)
		}
	}
}

// TestBatchItemRepair pins that a per-item "matrix not found" from a
// replica that lost its copy is re-routed (and the replica repaired)
// instead of surfacing to the batch client.
func TestBatchItemRepair(t *testing.T) {
	n := 8
	b1 := startBackend(t)
	g := newTestGateway(t, 1, b1.addr)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	if _, err := g.PutMatrix(ctx, "m", wire); err != nil {
		t.Fatalf("put: %v", err)
	}
	// The replica silently loses the matrix (as a restart inside one
	// probe interval would look).
	if err := service.New(b1.addr).DeleteMatrix(ctx, "m"); err != nil {
		t.Fatalf("backdoor delete: %v", err)
	}
	reqs := make([]service.Request, 6)
	for i := range reqs {
		reqs[i] = exactReq("m", n)
	}
	items, err := g.EstimateBatch(ctx, reqs)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	for i, item := range items {
		if item.Error != "" || item.Result == nil || item.Result.Estimate != sum {
			t.Fatalf("item %d leaked the lost replica to the client: %+v", i, item)
		}
	}
	if st := g.Stats(); st.Repairs == 0 {
		t.Fatal("batch item repair not recorded")
	}
}

// TestEvictionPrunesPlacement pins that a backend LRU-evicting a
// placed matrix (its registry capacity below its share) prunes the
// evicted copy from the table instead of leaving a dangling replica —
// however the evicting placement arrives.
func TestEvictionPrunesPlacement(t *testing.T) {
	ctx := context.Background()
	for how, place := range map[string]func(g *Gateway, name string) error{
		"put": func(g *Gateway, name string) error {
			_, err := g.PutMatrix(ctx, name, identWire(4))
			return err
		},
		"chunked": func(g *Gateway, name string) error {
			up, err := g.BeginUpload(name, 4, 4)
			if err != nil {
				return err
			}
			if _, err := g.AppendChunk(name, up.Upload, 0, 4, identWire(4).Entries); err != nil {
				return err
			}
			_, err = g.CommitUpload(ctx, name, up.Upload)
			return err
		},
	} {
		t.Run(how, func(t *testing.T) {
			b1 := startBackendWith(t, service.Config{Workers: 2, Shards: 1, MaxMatrices: 1})
			g := newTestGateway(t, 1, b1.addr)

			if _, err := g.PutMatrix(ctx, "first", identWire(4)); err != nil {
				t.Fatalf("put first: %v", err)
			}
			// The second placement evicts the first on the capacity-1 backend.
			if err := place(g, "second"); err != nil {
				t.Fatalf("place second: %v", err)
			}
			var first *PlacementInfo
			for _, pm := range g.Matrices() {
				if pm.Name == "first" {
					pm := pm
					first = &pm
				}
			}
			if first == nil {
				t.Fatal("evicted matrix dropped from the table entirely (should stay, replica-less)")
			}
			if len(first.Replicas) != 0 {
				t.Fatalf("table still lists a replica for the evicted matrix: %v", first.Replicas)
			}
			if st := g.Stats(); st.LostReplicas == 0 {
				t.Fatal("lost replica not counted")
			}
		})
	}
}

// TestConcurrentDrainAndEstimates exercises admin drains racing
// estimate routing under -race (routeState vs the admin writes).
func TestConcurrentDrainAndEstimates(t *testing.T) {
	n := 8
	b1, b2, b3 := startBackend(t), startBackend(t), startBackend(t)
	g := newTestGateway(t, 2, b1.addr, b2.addr, b3.addr)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	if _, err := g.PutMatrix(ctx, "m", wire); err != nil {
		t.Fatalf("put: %v", err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for w := 0; w < 4; w++ {
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
	for i := 0; i < 3; i++ {
		addr := []string{b1.addr, b2.addr, b3.addr}[i%3]
		if _, err := g.DrainBackend(ctx, addr); err != nil {
			t.Fatalf("drain %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
		if _, err := g.AddBackend(ctx, addr); err != nil {
			t.Fatalf("un-drain %s: %v", addr, err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("estimate failed during drain churn: %v", err)
	default:
	}
}
