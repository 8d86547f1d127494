package gateway

// Edge-path tests for the async replication machinery: the per-matrix
// update-log state helpers, SLA routing's in-line catch-up and
// degrade-to-freshest branches, quorum commits against lagging, lost,
// and unreachable replicas, log-trim reseeds, and the
// replacement-race converger. These paths are hard to reach from the
// happy-path integration tests because the background apply loop
// normally keeps every replica at the log head, so most tests here
// park the loop on a long probe interval and tamper with the applied
// vectors directly.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/service"
)

// newAsyncGatewayCfg builds a write-quorum gateway whose probe interval the
// test controls: time.Hour keeps the background drain ticker out of a
// test that inspects or tampers with applied vectors (the wake-on-
// commit drain still runs), while a short interval exercises the
// ticker path. logMax bounds the per-matrix update log when > 0.
func newAsyncGatewayCfg(t *testing.T, w int, probe time.Duration, logMax int, addrs ...string) *Gateway {
	t.Helper()
	g := New(Config{
		Backends:        addrs,
		Replication:     len(addrs),
		ProbeInterval:   probe,
		ProbeTimeout:    500 * time.Millisecond,
		ProbeBackoffMax: 100 * time.Millisecond,
		WriteQuorum:     w,
		UpdateLogMax:    logMax,
	})
	t.Cleanup(g.Close)
	return g
}

// headVersion reads a matrix's current update-log head.
func headVersion(st *matrixUpd) version {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.head
}

func TestMatrixUpdStateUnit(t *testing.T) {
	st := &matrixUpd{}
	st.resetLocked(version{epoch: 3, seq: 0}, []string{"a", "b"})
	if got := st.applied["a"]; got != (version{epoch: 3, seq: 0}) {
		t.Fatalf("reset applied[a] = %v", got)
	}
	st.log = []logEntry{{seq: 1}, {seq: 2}}
	st.head = version{epoch: 3, seq: 2}

	// pendingLocked: at head, within the window, wrong epoch, and
	// behind the trimmed window.
	if pending, ok := st.pendingLocked(version{epoch: 3, seq: 2}); !ok || len(pending) != 0 {
		t.Fatalf("pending at head = %v, %v", pending, ok)
	}
	if pending, ok := st.pendingLocked(version{epoch: 3, seq: 1}); !ok || len(pending) != 1 || pending[0].seq != 2 {
		t.Fatalf("pending one behind = %v, %v", pending, ok)
	}
	if _, ok := st.pendingLocked(version{epoch: 2, seq: 2}); ok {
		t.Fatal("pending across epochs claims replayable")
	}
	st.logStart = 1
	st.log = st.log[1:]
	if _, ok := st.pendingLocked(version{epoch: 3, seq: 0}); ok {
		t.Fatal("pending behind the trimmed window claims replayable")
	}

	// advanceAppliedLocked never regresses; setAppliedLocked on a
	// zero-value struct creates the map.
	st.setAppliedLocked("a", version{epoch: 3, seq: 2})
	st.advanceAppliedLocked("a", version{epoch: 3, seq: 1})
	if got := st.applied["a"]; got != (version{epoch: 3, seq: 2}) {
		t.Fatalf("advance regressed applied[a] to %v", got)
	}
	fresh := &matrixUpd{}
	fresh.setAppliedLocked("x", version{epoch: 1, seq: 1})
	if got := fresh.applied["x"]; got != (version{epoch: 1, seq: 1}) {
		t.Fatalf("setApplied on fresh state = %v", got)
	}

	// Send reservations are exclusive until released.
	if !st.reserveLocked("a") || st.reserveLocked("a") {
		t.Fatal("send reservation not exclusive")
	}
	st.release("a")
	if !st.reserveLocked("a") {
		t.Fatal("released reservation not reclaimable")
	}

	// The dedupe ring ignores the zero key, drops duplicates, and
	// evicts FIFO past the window.
	ring := &matrixUpd{}
	ring.rememberLocked(0, service.UpdateReply{}, version{})
	if len(ring.recentKeys) != 0 {
		t.Fatal("zero key remembered")
	}
	ring.rememberLocked(1, service.UpdateReply{RowsApplied: 1}, version{epoch: 1, seq: 1})
	ring.rememberLocked(1, service.UpdateReply{RowsApplied: 9}, version{epoch: 1, seq: 9})
	if len(ring.recentKeys) != 1 || ring.recent[1].rep.RowsApplied != 1 {
		t.Fatalf("duplicate key overwrote the remembered reply: %+v", ring.recent[1])
	}
	for k := uint64(2); k <= clientDedupeWindow+2; k++ {
		ring.rememberLocked(k, service.UpdateReply{}, version{epoch: 1, seq: k})
	}
	if len(ring.recent) != clientDedupeWindow || len(ring.recentKeys) != clientDedupeWindow {
		t.Fatalf("ring size = %d/%d, want %d", len(ring.recent), len(ring.recentKeys), clientDedupeWindow)
	}
	if _, ok := ring.recent[1]; ok {
		t.Fatal("oldest key survived eviction")
	}
}

// TestSLARouteCatchupAndDegrade drives slaRoute through its three
// non-hit outcomes: an in-line catch-up when no replica satisfies the
// level but the log can be replayed, a degrade-to-freshest miss when
// replay is impossible, and the everyone-suspect miss.
func TestSLARouteCatchupAndDegrade(t *testing.T) {
	n := 8
	b1, b2 := startBackend(t), startBackend(t)
	g := newAsyncGatewayCfg(t, 1, time.Hour, 0, b1.addr, b2.addr)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	info, err := g.PutMatrix(ctx, "m", wire)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.updateRowsSLA(ctx, "m", replaceRowReq(0, [][2]int64{{1, 5}}), ""); err != nil {
		t.Fatal(err)
	}
	want := sum - 1 + 5
	st := g.updState("m")
	head := headVersion(st)
	waitFor(t, "replicas drained to head", func() bool {
		for _, id := range info.Replicas {
			if !g.appliedVersion("m", id).AtLeast(head) {
				return false
			}
		}
		return true
	})

	// Catch-up: both vectors claim seq 0, the log holds seq 1. The
	// strong read replays it in line (the backend dedupes on the log
	// seq, so the replay is a no-op there) and serves the fresh state.
	stale := version{epoch: head.epoch, seq: 0}
	st.mu.Lock()
	for _, id := range info.Replicas {
		st.applied[id] = stale
	}
	st.mu.Unlock()
	res, _, err := g.estimateSLA(ctx, exactReq("m", n), SLA{Level: ConsStrong}, "")
	if err != nil || res.Estimate != want {
		t.Fatalf("strong read through catch-up = %v, %v (want %v)", res, err, want)
	}
	if got := g.Stats().SLA["strong"].Catchups; got != 1 {
		t.Fatalf("strong catchups = %d, want 1", got)
	}

	// Degrade: vectors on a dead epoch cannot be replayed or caught
	// up, so the read is served by the freshest replica as a miss.
	st.mu.Lock()
	for _, id := range info.Replicas {
		st.applied[id] = version{epoch: head.epoch - 1, seq: head.seq}
	}
	st.mu.Unlock()
	res, _, err = g.estimateSLA(ctx, exactReq("m", n), SLA{Level: ConsStrong}, "")
	if err != nil || res.Estimate != want {
		t.Fatalf("degraded strong read = %v, %v (want %v)", res, err, want)
	}
	if got := g.Stats().SLA["strong"].Misses; got != 1 {
		t.Fatalf("strong misses = %d, want 1", got)
	}

	// Everyone suspect: with no eligible replica the full suspect
	// order is returned as a miss (the backends are in fact alive, so
	// the read still succeeds).
	_, reps, err := g.replicaSnapshot("m")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range reps {
		b.noteFailover(fmt.Errorf("dial tcp: connection refused"), true)
	}
	res, _, err = g.estimateSLA(ctx, exactReq("m", n), SLA{Level: ConsStrong}, "")
	if err != nil || res.Estimate != want {
		t.Fatalf("all-suspect strong read = %v, %v (want %v)", res, err, want)
	}
	if got := g.Stats().SLA["strong"].Misses; got != 2 {
		t.Fatalf("strong misses = %d, want 2", got)
	}

	// updState's lazy branch: a table entry without installed update
	// state gets one stamped at the retained version; unplaced names
	// resolve to nil.
	g.mu.Lock()
	delete(g.upd, "m")
	g.mu.Unlock()
	if st := g.updState("m"); st == nil {
		t.Fatal("updState did not lazily install state for a placed matrix")
	} else if got := headVersion(st); got.seq == 0 {
		t.Fatalf("lazy state head = %v, want the retained post-update version", got)
	}
	if g.updState("ghost") != nil {
		t.Fatal("updState invented state for an unplaced matrix")
	}
}

// TestLogTrimForcesReseed caps the update log at two entries, pushes a
// replica's applied vector behind the trimmed window, and checks the
// apply loop falls back to a full-wire reseed.
func TestLogTrimForcesReseed(t *testing.T) {
	n := 8
	b1, b2 := startBackend(t), startBackend(t)
	g := newAsyncGatewayCfg(t, 1, 20*time.Millisecond, 2, b1.addr, b2.addr)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	info, err := g.PutMatrix(ctx, "m", wire)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(2); k <= 5; k++ {
		if _, _, err := g.updateRowsSLA(ctx, "m", replaceRowReq(0, [][2]int64{{2, k}}), ""); err != nil {
			t.Fatalf("update %d: %v", k, err)
		}
	}
	want := sum - 1 + 5
	st := g.updState("m")
	head := headVersion(st)
	waitFor(t, "replicas drained to head", func() bool {
		for _, id := range info.Replicas {
			if !g.appliedVersion("m", id).AtLeast(head) {
				return false
			}
		}
		return true
	})
	if got := g.Stats().UpdateLogEntries; got > 2 {
		t.Fatalf("update log holds %d entries, want <= UpdateLogMax 2", got)
	}

	victim := info.Replicas[1]
	st.mu.Lock()
	st.applied[victim] = version{epoch: head.epoch, seq: 1}
	st.mu.Unlock()
	g.wakeApply()
	waitFor(t, "trimmed-window replica reseeded", func() bool {
		return g.Stats().AsyncReseeds >= 1 && g.appliedVersion("m", victim).AtLeast(head)
	})
	got, err := backendSum(ctx, victim, "m", n)
	if err != nil || got != want {
		t.Fatalf("reseeded replica sum = %v, %v (want %v)", got, err, want)
	}
}

// TestRepairRacingUpdateStampsShippedVersion holds a 404 repair's
// upload in flight while a row update commits on the other replica: the
// repaired replica must be stamped at the version of the wire the
// repair shipped (the pre-update one), not the head, so the apply loop
// still owes it — and replays — the one missing entry.
func TestRepairRacingUpdateStampsShippedVersion(t *testing.T) {
	n := 8
	b1 := startBackend(t)
	eng := service.NewEngine(service.Config{Workers: 2, Shards: 1})
	t.Cleanup(eng.Close)
	real := service.NewHandler(eng)
	entered, gate := make(chan struct{}), make(chan struct{})
	var holdNextPut atomic.Bool
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut && holdNextPut.CompareAndSwap(true, false) {
			close(entered)
			<-gate
		}
		real.ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)
	g := newAsyncGatewayCfg(t, 0, time.Hour, 0, b1.addr, slow.URL)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	if _, err := g.PutMatrix(ctx, "m", wire); err != nil {
		t.Fatal(err)
	}
	placedAt := headVersion(g.updState("m"))
	if err := eng.DeleteMatrix("m"); err != nil {
		t.Fatal(err)
	}
	g.mu.Lock()
	lost := g.backends[slow.URL]
	g.mu.Unlock()
	holdNextPut.Store(true)
	repaired := make(chan bool)
	go func() { repaired <- g.repairReplica(ctx, lost, "m") }()
	<-entered
	// The repair owns the slow replica's send slot, so the update
	// commits on b1 alone and leaves the slow replica to the apply loop.
	if _, err := g.UpdateRows(ctx, "m", replaceRowReq(0, [][2]int64{{2, 7}})); err != nil {
		t.Fatalf("update during the repair: %v", err)
	}
	close(gate)
	if !<-repaired {
		t.Fatal("repair failed")
	}
	if got := g.appliedVersion("m", slow.URL); got != placedAt {
		t.Fatalf("repaired replica stamped %v, want the shipped wire's %v (head is %v)", got, placedAt, headVersion(g.updState("m")))
	}
	g.wakeApply()
	waitFor(t, "the missed entry replayed", func() bool { return atHead(g, "m") })
	if got, err := backendSum(ctx, slow.URL, "m", n); err != nil || got != sum-1+7 {
		t.Fatalf("repaired replica sum = %v, %v (want %v)", got, err, sum-1+7)
	}
	if st := g.Stats(); st.AsyncApplied != 1 || st.AsyncReseeds != 0 || st.Repairs != 1 {
		t.Fatalf("applied=%d reseeds=%d repairs=%d, want one replayed entry, no reseed, one repair", st.AsyncApplied, st.AsyncReseeds, st.Repairs)
	}
}

// TestQuorumShortfallRevertsAckedLegs fails a write-quorum-2 update
// with one replica down and checks the acked leg is converged back to
// the pre-update wire.
func TestQuorumShortfallRevertsAckedLegs(t *testing.T) {
	n := 8
	b1, b2 := startBackend(t), startBackend(t)
	byAddr := map[string]*testBackend{b1.addr: b1, b2.addr: b2}
	g := newAsyncGatewayCfg(t, 2, 20*time.Millisecond, 0, b1.addr, b2.addr)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	info, err := g.PutMatrix(ctx, "m", wire)
	if err != nil {
		t.Fatal(err)
	}
	// A full-quorum update with everyone up: the multi-ack loop.
	if _, _, err := g.updateRowsSLA(ctx, "m", replaceRowReq(0, [][2]int64{{2, 9}}), ""); err != nil {
		t.Fatal(err)
	}
	committed := sum - 1 + 9

	byAddr[info.Replicas[1]].stop()
	_, _, err = g.updateRowsSLA(ctx, "m", replaceRowReq(0, [][2]int64{{2, 11}}), "")
	if err == nil {
		t.Fatal("quorum-2 update with a dead replica committed")
	}
	if !strings.Contains(err.Error(), "write-quorum") {
		t.Fatalf("shortfall error = %v, want a write-quorum message", err)
	}
	if got := g.Stats().UpdateReverts; got != 1 {
		t.Fatalf("update reverts = %d, want 1", got)
	}
	survivor := info.Replicas[0]
	got, err := backendSum(ctx, survivor, "m", n)
	if err != nil || got != committed {
		t.Fatalf("survivor sum after revert = %v, %v (want the pre-failure %v)", got, err, committed)
	}
}

// TestQuorumCommitRepairsLostCopy deletes the quorum head's copy out
// from under the gateway: the update leg's 404 is repaired in line
// with the patched wire and still counts as an ack.
func TestQuorumCommitRepairsLostCopy(t *testing.T) {
	n := 8
	b1, b2 := startBackend(t), startBackend(t)
	g := newAsyncGatewayCfg(t, 1, time.Hour, 0, b1.addr, b2.addr)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	info, err := g.PutMatrix(ctx, "m", wire)
	if err != nil {
		t.Fatal(err)
	}
	head0 := info.Replicas[0]
	if err := service.New(head0).DeleteMatrix(ctx, "m"); err != nil {
		t.Fatal(err)
	}

	rep, ver, err := g.updateRowsSLA(ctx, "m", replaceRowReq(0, [][2]int64{{2, 7}}), "")
	if err != nil || rep.RowsApplied != 1 {
		t.Fatalf("update against a lost copy = %+v, %v", rep, err)
	}
	if g.Stats().Repairs < 1 {
		t.Fatal("404 leg did not count as a repair")
	}
	want := sum - 1 + 7
	got, err := backendSum(ctx, head0, "m", n)
	if err != nil || got != want {
		t.Fatalf("repaired replica sum = %v, %v (want %v)", got, err, want)
	}
	// The commit wake drains the other replica without the ticker.
	waitFor(t, "lagging replica drained", func() bool {
		got, err := backendSum(ctx, info.Replicas[1], "m", n)
		return err == nil && got == want
	})
	if !g.appliedVersion("m", head0).AtLeast(ver) {
		t.Fatalf("repaired replica vector = %v, want >= %v", g.appliedVersion("m", head0), ver)
	}
}

// TestQuorumCommitCatchesUpLaggingCandidate makes the placement-order
// quorum candidate lag and checks the commit replays its pending log
// in line before applying the new patch on top.
func TestQuorumCommitCatchesUpLaggingCandidate(t *testing.T) {
	n := 8
	b1, b2 := startBackend(t), startBackend(t)
	g := newAsyncGatewayCfg(t, 1, time.Hour, 0, b1.addr, b2.addr)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	info, err := g.PutMatrix(ctx, "m", wire)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.updateRowsSLA(ctx, "m", replaceRowReq(0, [][2]int64{{2, 4}}), ""); err != nil {
		t.Fatal(err)
	}
	st := g.updState("m")
	head := headVersion(st)
	waitFor(t, "replicas drained to head", func() bool {
		for _, id := range info.Replicas {
			if !g.appliedVersion("m", id).AtLeast(head) {
				return false
			}
		}
		return true
	})

	lead := info.Replicas[0]
	st.mu.Lock()
	st.applied[lead] = version{epoch: head.epoch, seq: 0}
	st.mu.Unlock()
	applied0 := g.Stats().AsyncApplied

	_, ver, err := g.updateRowsSLA(ctx, "m", replaceRowReq(0, [][2]int64{{2, 6}}), "")
	if err != nil {
		t.Fatalf("update through a lagging candidate: %v", err)
	}
	if g.Stats().AsyncApplied <= applied0 {
		t.Fatal("in-line catch-up replayed nothing")
	}
	if got := g.appliedVersion("m", lead); !got.AtLeast(ver) {
		t.Fatalf("lagging candidate vector = %v, want >= %v", got, ver)
	}
	want := sum - 1 + 6
	got, err := backendSum(ctx, lead, "m", n)
	if err != nil || got != want {
		t.Fatalf("caught-up replica sum = %v, %v (want %v)", got, err, want)
	}
}

// TestEstimateBatchSLADetourAndSessions covers the batch scatter's SLA
// branches: a constrained query no scattered replica satisfies detours
// through the single-query path, an unplaced matrix fails in its item,
// and a session-bearing scatter folds the served versions into the
// session's read floor.
func TestEstimateBatchSLADetourAndSessions(t *testing.T) {
	n := 8
	b1, b2 := startBackend(t), startBackend(t)
	g := newAsyncGatewayCfg(t, 1, time.Hour, 0, b1.addr, b2.addr)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	info, err := g.PutMatrix(ctx, "m", wire)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.updateRowsSLA(ctx, "m", replaceRowReq(0, [][2]int64{{2, 8}}), ""); err != nil {
		t.Fatal(err)
	}
	want := sum - 1 + 8
	st := g.updState("m")
	head := headVersion(st)
	waitFor(t, "replicas drained to head", func() bool {
		for _, id := range info.Replicas {
			if !g.appliedVersion("m", id).AtLeast(head) {
				return false
			}
		}
		return true
	})

	st.mu.Lock()
	for _, id := range info.Replicas {
		st.applied[id] = version{epoch: head.epoch, seq: 0}
	}
	st.mu.Unlock()
	items, err := g.estimateBatchSLA(ctx, []service.Request{
		exactReq("m", n),
		exactReq("ghost", n),
	}, SLA{Level: ConsStrong}, "")
	if err != nil {
		t.Fatal(err)
	}
	if items[0].Error != "" || items[0].Result == nil || items[0].Result.Estimate != want {
		t.Fatalf("detoured strong item = %+v, want estimate %v", items[0], want)
	}
	if items[1].Error == "" {
		t.Fatal("unplaced matrix did not fail in its item")
	}

	// Scatter with a session: the served versions become the session's
	// monotonic floor.
	st.mu.Lock()
	for _, id := range info.Replicas {
		st.applied[id] = head
	}
	st.mu.Unlock()
	items, err = g.estimateBatchSLA(ctx, []service.Request{exactReq("m", n)}, SLA{Level: ConsMonotonic}, "batch-sess")
	if err != nil || items[0].Error != "" || items[0].Result.Estimate != want {
		t.Fatalf("session scatter = %+v, %v (want %v)", items, err, want)
	}
	if got := g.sessions.floor("batch-sess", "m", ConsMonotonic); !got.AtLeast(head) {
		t.Fatalf("session floor after scatter = %v, want >= %v", got, head)
	}
}

// TestConvergeReplacementAndEpochConflict checks the replacement-race
// converger re-uploads the retained wire over a divergent replica copy
// and that an update racing a wholesale replacement is rejected with a
// conflict instead of patching the replacement's content.
func TestConvergeReplacementAndEpochConflict(t *testing.T) {
	n := 8
	b1, b2 := startBackend(t), startBackend(t)
	g := newTestGateway(t, 2, b1.addr, b2.addr)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	info, err := g.PutMatrix(ctx, "m", wire)
	if err != nil {
		t.Fatal(err)
	}
	// Diverge one replica behind the gateway's back, then converge.
	divergent := info.Replicas[1]
	if _, err := service.New(divergent).UploadMatrixFull(ctx, "m", identWire(n)); err != nil {
		t.Fatal(err)
	}
	if got, err := backendSum(ctx, divergent, "m", n); err != nil || got != float64(n) {
		t.Fatalf("divergent copy sum = %v, %v (want %v)", got, err, n)
	}
	g.convergeReplacement("m")
	if got, err := backendSum(ctx, divergent, "m", n); err != nil || got != sum {
		t.Fatalf("converged copy sum = %v, %v (want %v)", got, err, sum)
	}
	g.convergeReplacement("ghost") // unplaced: a no-op

	// A commit whose log state belongs to a newer epoch than the table
	// snapshot means a replacement owns the name: conflict, no patch.
	st := g.updState("m")
	st.mu.Lock()
	st.head.epoch++
	st.mu.Unlock()
	if _, err := g.UpdateRows(ctx, "m", replaceRowReq(0, [][2]int64{{1, 2}})); !errors.Is(err, service.ErrConflict) {
		t.Fatalf("update racing a replacement = %v, want ErrConflict", err)
	}
}

// TestSessionQueryParamWinsOverHeader pins the ?session= precedence of
// the HTTP surface: the query parameter beats the MP-Session header
// and echoes back.
func TestSessionQueryParamWinsOverHeader(t *testing.T) {
	n := 8
	b1 := startBackend(t)
	g := newTestGateway(t, 1, b1.addr)
	ctx := context.Background()

	wire, _ := testMatrix(n)
	if _, err := g.PutMatrix(ctx, "m", wire); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(g))
	defer srv.Close()

	body, err := json.Marshal(exactReq("m", n))
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/estimate?consistency=monotonic&session=qtok", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("MP-Session", "htok")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("MP-Session"); got != "qtok" {
		t.Fatalf("MP-Session echo = %q, want the query token", got)
	}
}
