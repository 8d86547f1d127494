package gateway

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/intmat"
	"repro/service"
)

// replaceRowReq builds a replace-mode single-row update request.
func replaceRowReq(row int, entries [][2]int64) service.UpdateRequest {
	return service.UpdateRequest{Updates: []service.RowUpdate{{Row: row, Entries: entries}}}
}

// wireSum is Σ entries of a wire matrix (= exact ‖AB‖1 against an
// identity Alice for non-negative matrices).
func wireSum(m service.Matrix) float64 {
	var s float64
	for _, ent := range m.Entries {
		s += float64(ent[2])
	}
	return s
}

// TestUpdateRowsReplicates pins the happy path: the patch lands on
// every replica, the retained wire is patched, and estimates answer
// the post-update value from any replica.
func TestUpdateRowsReplicates(t *testing.T) {
	n := 8
	b1, b2, b3 := startBackend(t), startBackend(t), startBackend(t)
	g := newTestGateway(t, 2, b1.addr, b2.addr, b3.addr)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	info, err := g.PutMatrix(ctx, "m", wire)
	if err != nil {
		t.Fatal(err)
	}
	// Replace row 0 (old value: entry (0,1) = 1) with a value-7 entry.
	rep, err := g.UpdateRows(ctx, "m", replaceRowReq(0, [][2]int64{{2, 7}}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsApplied != 1 {
		t.Fatalf("reply %+v", rep)
	}
	wantSum := sum - 1 + 7

	// The gateway's estimate and the retained wire agree.
	res, err := g.Estimate(ctx, exactReq("m", n))
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != wantSum {
		t.Fatalf("estimate after update = %v, want %v", res.Estimate, wantSum)
	}
	g.mu.Lock()
	retained := service.MatrixFromList(g.matrices["m"].list)
	g.mu.Unlock()
	if got := wireSum(retained); got != wantSum {
		t.Fatalf("retained wire sum = %v, want %v", got, wantSum)
	}

	// Every replica answers the updated value when queried directly.
	for _, addr := range info.Replicas {
		res, err := service.New(addr).Estimate(ctx, exactReq("m", n))
		if err != nil {
			t.Fatalf("replica %s: %v", addr, err)
		}
		if res.Estimate != wantSum {
			t.Fatalf("replica %s answers %v, want %v", addr, res.Estimate, wantSum)
		}
	}
	if st := g.Stats(); st.Updates != 1 || st.UpdateReverts != 0 {
		t.Fatalf("stats %+v", st)
	}

	// Validation errors pass through without touching replicas.
	if _, err := g.UpdateRows(ctx, "m", replaceRowReq(99, nil)); !errors.Is(err, service.ErrBadRequest) {
		t.Fatalf("bad row: %v", err)
	}
	if _, err := g.UpdateRows(ctx, "ghost", replaceRowReq(0, nil)); !errors.Is(err, service.ErrMatrixNotFound) {
		t.Fatalf("unknown matrix: %v", err)
	}
	if _, err := g.UpdateRows(ctx, "m", service.UpdateRequest{}); !errors.Is(err, service.ErrBadRequest) {
		t.Fatalf("empty update: %v", err)
	}
}

// TestUpdateThenRepairServesUpdatedMatrix is the regression test for
// the retained-wire-copy bug: a repair that runs *after* an update
// must re-seed the patched matrix, not the original upload. It pins
// both repair paths — the estimate-path 404 repair and the probe-time
// resync after a kill/restart.
func TestUpdateThenRepairServesUpdatedMatrix(t *testing.T) {
	n := 8
	b1, b2 := startBackend(t), startBackend(t)
	byAddr := map[string]*testBackend{b1.addr: b1, b2.addr: b2}
	g := newTestGateway(t, 2, b1.addr, b2.addr)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	info, err := g.PutMatrix(ctx, "m", wire)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.UpdateRows(ctx, "m", replaceRowReq(0, [][2]int64{{2, 7}})); err != nil {
		t.Fatal(err)
	}
	wantSum := sum - 1 + 7

	// Estimate-path repair: one replica silently loses the matrix (as
	// if its registry LRU-evicted it); the 404 triggers an in-line
	// re-seed, which must ship the patched copy.
	victim := byAddr[info.Replicas[0]]
	if err := service.New(victim.addr).DeleteMatrix(ctx, "m"); err != nil {
		t.Fatal(err)
	}
	repairsBefore := g.Stats().Repairs
	for i := 0; i < 50 && g.Stats().Repairs == repairsBefore; i++ {
		res, err := g.Estimate(ctx, exactReq("m", n))
		if err != nil {
			t.Fatalf("estimate during repair window: %v", err)
		}
		if res.Estimate != wantSum {
			t.Fatalf("estimate = %v, want %v (stale pre-update copy served)", res.Estimate, wantSum)
		}
	}
	waitFor(t, "estimate-path repair", func() bool { return victim.holds("m") })
	res, err := service.New(victim.addr).Estimate(ctx, exactReq("m", n))
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != wantSum {
		t.Fatalf("repaired replica answers %v, want %v — repair used the pre-update wire copy", res.Estimate, wantSum)
	}

	// Probe-resync repair: kill and restart the other replica (it comes
	// back empty); the resync must also re-seed the patched copy.
	other := byAddr[info.Replicas[1]]
	other.stop()
	time.Sleep(50 * time.Millisecond)
	other.restart()
	waitFor(t, "probe resync", func() bool { return other.holds("m") })
	res, err = service.New(other.addr).Estimate(ctx, exactReq("m", n))
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != wantSum {
		t.Fatalf("resynced replica answers %v, want %v — resync used the pre-update wire copy", res.Estimate, wantSum)
	}
}

// rejectingBackend is a fake backend that accepts uploads and probes
// but answers every row update with a hard 400 — the trigger for the
// all-or-nothing revert.
func rejectingBackend(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPatch:
			service.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": "synthetic rejection"})
		case r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/v1/matrix/"):
			service.WriteJSON(w, http.StatusOK, service.UploadReply{})
		case r.Method == http.MethodDelete:
			service.WriteJSON(w, http.StatusOK, map[string]string{})
		default:
			service.WriteJSON(w, http.StatusOK, service.Stats{})
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestUpdateRowsAllOrNothingRevert pins the revert: when one replica
// answers a hard rejection, replicas that applied the patch are
// re-seeded with the pre-update wire and the retained copy stays
// unpatched.
func TestUpdateRowsAllOrNothingRevert(t *testing.T) {
	n := 8
	good := startBackend(t)
	bad := rejectingBackend(t)
	g := newTestGateway(t, 2, good.addr, bad.URL)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	if _, err := g.PutMatrix(ctx, "m", wire); err != nil {
		t.Fatal(err)
	}
	_, err := g.UpdateRows(ctx, "m", replaceRowReq(0, [][2]int64{{2, 7}}))
	if err == nil {
		t.Fatal("update succeeded despite a rejecting replica")
	}
	var apiErr *service.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("want the replica's 400 surfaced, got %v", err)
	}
	if st := g.Stats(); st.UpdateReverts != 1 {
		t.Fatalf("UpdateReverts = %d, want 1", st.UpdateReverts)
	}

	// The good replica was reverted to the pre-update matrix and the
	// retained wire never advanced.
	res, err := service.New(good.addr).Estimate(ctx, exactReq("m", n))
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != sum {
		t.Fatalf("replica answers %v after revert, want pre-update %v", res.Estimate, sum)
	}
	g.mu.Lock()
	retained := service.MatrixFromList(g.matrices["m"].list)
	g.mu.Unlock()
	if got := wireSum(retained); got != sum {
		t.Fatalf("retained wire sum = %v, want pre-update %v", got, sum)
	}
}

// TestUpdateRowsLagsUnreachableReplica pins the availability half:
// with one replica down the update commits on the reachable one, the
// dead replica stays in the placement and lags — strong reads are
// answered by the survivor at the log head — and once it returns it is
// brought to the head with the *patched* matrix: by a full reseed when
// it came back empty, and by log replay alone when a durable backend
// was cleanly stopped between two updates.
func TestUpdateRowsLagsUnreachableReplica(t *testing.T) {
	const n = 8
	ctx := context.Background()

	// setup places "m" on two backends; lagBehind then commits an update
	// with the victim down and checks the lag semantics, returning the
	// post-update sum.
	setup := func(t *testing.T, start func(*testing.T) *testBackend) (g *Gateway, victim *testBackend, sum float64) {
		b1, b2 := start(t), start(t)
		byAddr := map[string]*testBackend{b1.addr: b1, b2.addr: b2}
		g = newTestGateway(t, 2, b1.addr, b2.addr)
		wire, sum := testMatrix(n)
		info, err := g.PutMatrix(ctx, "m", wire)
		if err != nil {
			t.Fatal(err)
		}
		return g, byAddr[info.Replicas[0]], sum
	}
	lagBehind := func(t *testing.T, g *Gateway, victim *testBackend, row int, oldVal, newVal int64, sum float64) float64 {
		rep, ver, err := g.updateRowsSLA(ctx, "m", replaceRowReq(row, [][2]int64{{2, newVal}}), "")
		if err != nil {
			t.Fatalf("update with one dead replica: %v", err)
		}
		if rep.RowsApplied != 1 {
			t.Fatalf("reply %+v", rep)
		}
		want := sum - float64(oldVal) + float64(newVal)
		g.mu.Lock()
		pm := g.matrices["m"]
		g.mu.Unlock()
		if len(pm.replicas) != 2 {
			t.Fatalf("dead replica left the placement: %v", pm.replicas)
		}
		if got := wireSum(service.MatrixFromList(pm.list)); got != want {
			t.Fatalf("retained wire sum = %v, want %v", got, want)
		}
		if got := g.appliedVersion("m", victim.addr); !got.Less(ver) {
			t.Fatalf("dead replica's applied version = %v, want it behind the head %v", got, ver)
		}
		res, served, err := g.estimateSLA(ctx, exactReq("m", n), SLA{Level: ConsStrong}, "")
		if err != nil || res.Estimate != want {
			t.Fatalf("strong read = %v/%v, want %v", res, err, want)
		}
		if served != ver {
			t.Fatalf("strong read served at MP-Version %v, want the head %v", served, ver)
		}
		return want
	}
	caughtUp := func(t *testing.T, g *Gateway, victim *testBackend, want float64) {
		waitFor(t, "returned replica at the log head", func() bool { return atHead(g, "m") })
		if got, err := backendSum(ctx, victim.addr, "m", n); err != nil || got != want {
			t.Fatalf("returned replica answers %v/%v, want patched %v", got, err, want)
		}
		if st := g.Stats(); st.LostReplicas != 0 {
			t.Fatalf("a lagging replica was counted lost: %+v", st)
		}
	}

	t.Run("reseed", func(t *testing.T) {
		g, victim, sum := setup(t, startBackend)
		victim.stop()
		want := lagBehind(t, g, victim, 0, 1, 7, sum)
		before := g.Stats()
		victim.restart() // empty: nothing to replay onto
		caughtUp(t, g, victim, want)
		if st := g.Stats(); st.Repairs+st.AsyncReseeds == before.Repairs+before.AsyncReseeds {
			t.Fatalf("an empty replica reached the head without a reseed: %+v", st)
		}
	})

	t.Run("replay", func(t *testing.T) {
		g, victim, sum := setup(t, startDurableBackend)
		if _, err := g.UpdateRows(ctx, "m", replaceRowReq(0, [][2]int64{{2, 7}})); err != nil {
			t.Fatal(err)
		}
		sum += 7 - 1
		// A clean stop the prober has noticed: the next update does not
		// try the victim, so its copy is known to sit at the first update.
		victim.stop()
		waitFor(t, "victim demoted", func() bool {
			st, ok := backendStatus(g, victim.addr)
			return ok && !st.Healthy
		})
		want := lagBehind(t, g, victim, 1, 2, 9, sum)
		before := g.Stats()
		victim.restart() // recovers the first update from its own disk
		caughtUp(t, g, victim, want)
		st := g.Stats()
		if st.AsyncApplied <= before.AsyncApplied {
			t.Fatalf("async_applied did not advance: %d -> %d", before.AsyncApplied, st.AsyncApplied)
		}
		if st.ReseedBytes != before.ReseedBytes || st.AsyncReseeds != before.AsyncReseeds || st.Repairs != before.Repairs {
			t.Fatalf("a replayable replica was reseeded: before %+v, after %+v", before, st)
		}
	})
}

// TestUpdateRows404RepairsLeg pins the inline update-path repair: a
// replica that silently lost the matrix answers 404 to the PATCH and
// is re-seeded with the *patched* wire, and the update still succeeds
// on its full replica set.
func TestUpdateRows404RepairsLeg(t *testing.T) {
	n := 8
	b1, b2 := startBackend(t), startBackend(t)
	byAddr := map[string]*testBackend{b1.addr: b1, b2.addr: b2}
	g := newTestGateway(t, 2, b1.addr, b2.addr)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	info, err := g.PutMatrix(ctx, "m", wire)
	if err != nil {
		t.Fatal(err)
	}
	victim := byAddr[info.Replicas[0]]
	if err := service.New(victim.addr).DeleteMatrix(ctx, "m"); err != nil {
		t.Fatal(err)
	}
	repairsBefore := g.Stats().Repairs
	rep, err := g.UpdateRows(ctx, "m", replaceRowReq(0, [][2]int64{{2, 7}}))
	if err != nil {
		t.Fatalf("update with a 404 leg: %v", err)
	}
	if rep.RowsApplied != 1 {
		t.Fatalf("reply %+v", rep)
	}
	// The reply must come from the leg that applied the patch (sub
	// advanced), not the repaired leg's synthesized full-upload reply.
	if rep.Sub != 1 {
		t.Fatalf("reply sub = %d, want 1 (non-repaired leg's reply)", rep.Sub)
	}
	if g.Stats().Repairs != repairsBefore+1 {
		t.Fatal("404 leg repair not counted")
	}
	wantSum := sum - 1 + 7
	for _, addr := range []string{b1.addr, b2.addr} {
		res, err := service.New(addr).Estimate(ctx, exactReq("m", n))
		if err != nil {
			t.Fatalf("replica %s: %v", addr, err)
		}
		if res.Estimate != wantSum {
			t.Fatalf("replica %s answers %v, want %v", addr, res.Estimate, wantSum)
		}
	}
}

// TestUpdateRowsEdgeErrors covers the closed-gateway and
// replica-less-placement paths.
func TestUpdateRowsEdgeErrors(t *testing.T) {
	b1 := startBackend(t)
	g := newTestGateway(t, 1, b1.addr)
	ctx := context.Background()
	wire, _ := testMatrix(4)
	if _, err := g.PutMatrix(ctx, "m", wire); err != nil {
		t.Fatal(err)
	}
	// A placement whose replicas were all pruned (e.g. by backend-side
	// evictions) has nothing to update.
	g.mu.Lock()
	pm := g.matrices["m"]
	g.matrices["m"] = &placedMatrix{info: pm.info, list: pm.list, replicas: nil}
	g.mu.Unlock()
	if _, err := g.UpdateRows(ctx, "m", replaceRowReq(0, nil)); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("replica-less update: got %v, want ErrNoBackends", err)
	}
	g.Close()
	if _, err := g.UpdateRows(ctx, "m", replaceRowReq(0, nil)); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed gateway: got %v, want ErrClosed", err)
	}
}

// TestUpdateRowsHTTPAndClient drives the gateway PATCH route through
// the service client (a gateway is a drop-in service endpoint).
func TestUpdateRowsHTTPAndClient(t *testing.T) {
	n := 8
	b1 := startBackend(t)
	g := newTestGateway(t, 1, b1.addr)
	srv := httptest.NewServer(NewHandler(g))
	t.Cleanup(srv.Close)
	ctx := context.Background()

	client := service.New(srv.URL)
	wire, sum := testMatrix(n)
	if _, err := client.UploadMatrix(ctx, "m", wire); err != nil {
		t.Fatal(err)
	}
	rep, err := client.ReplaceRow(ctx, "m", 0, [][2]int64{{2, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsApplied != 1 {
		t.Fatalf("reply %+v", rep)
	}
	res, err := client.Estimate(ctx, exactReq("m", n))
	if err != nil {
		t.Fatal(err)
	}
	if want := sum - 1 + 7; res.Estimate != want {
		t.Fatalf("estimate = %v, want %v", res.Estimate, want)
	}
	var apiErr *service.APIError
	if _, err := client.ReplaceRow(ctx, "ghost", 0, nil); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("unknown matrix over HTTP: %v", err)
	}
}

// TestRetainedCopyFollowsDensePatch: a gateway advances its retained
// copy with the engines' own patcher, so after a random history of
// replace and delta patches — rows emptied, cells cancelled to zero —
// applied through the gateway, the copy it would re-seed from is the
// matrix a dense cell-by-cell patch of the upload holds, and so is what
// each replica serves: its pinned-seed answers are those of a fresh
// engine given that dense matrix whole, hh and l0sample (whose bits
// follow the non-zeros) included.
func TestRetainedCopyFollowsDensePatch(t *testing.T) {
	const n = 12
	b1, b2 := startBackend(t), startBackend(t)
	g := newTestGateway(t, 2, b1.addr, b2.addr)
	ctx := context.Background()
	wire, _ := testMatrix(n)
	info, err := g.PutMatrix(ctx, "m", wire)
	if err != nil {
		t.Fatal(err)
	}
	list, _, _, err := wire.List()
	if err != nil {
		t.Fatal(err)
	}
	ref := list.ToDense()
	rnd := rand.New(rand.NewSource(6100))
	for step := 0; step < 30; step++ {
		delta := step%2 == 1
		req := service.UpdateRequest{Delta: delta}
		for _, k := range rnd.Perm(n)[:1+rnd.Intn(2)] {
			u := service.RowUpdate{Row: k}
			row := ref.Row(k)
			if !delta {
				clear(row)
			}
			for _, j := range rnd.Perm(n)[:rnd.Intn(5)] {
				v := rnd.Int63n(4) // a replace may store an explicit zero
				if delta && row[j] != 0 && rnd.Intn(2) == 0 {
					v = -row[j] // the cell cancelled
				}
				u.Entries = append(u.Entries, [2]int64{int64(j), v})
				if delta {
					row[j] += v
				} else {
					row[j] = v
				}
			}
			req.Updates = append(req.Updates, u)
		}
		if _, err := g.UpdateRows(ctx, "m", req); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		g.mu.Lock()
		pm := g.matrices["m"]
		g.mu.Unlock()
		if !pm.list.Equal(intmat.FromDense(ref)) {
			t.Fatalf("step %d: the retained copy is not the dense patch of the upload", step)
		}
	}
	fresh := service.NewEngine(service.Config{})
	defer fresh.Close()
	if _, _, err := fresh.PutMatrix("m", service.MatrixFromDense(ref)); err != nil {
		t.Fatal(err)
	}
	seed := uint64(6101)
	for _, kind := range []string{"lp", "l0sample", "l1sample", "exact", "hh"} {
		req := service.Request{Matrix: "m", Kind: kind, A: identWire(n), P: 1, Eps: 0.1, Seed: &seed}
		want, err := fresh.Estimate(ctx, req)
		if err != nil {
			t.Fatalf("%s on the dense patch: %v", kind, err)
		}
		for _, addr := range info.Replicas {
			got, err := service.New(addr).Estimate(ctx, req)
			if err != nil {
				t.Fatalf("%s on replica %s: %v", kind, addr, err)
			}
			got.Elapsed, want.Elapsed = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: replica %s answers %+v, an engine given the dense patch %+v", kind, addr, got, want)
			}
		}
	}
}
