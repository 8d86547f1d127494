package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/service"
)

func TestParseConsistency(t *testing.T) {
	cases := []struct {
		in    string
		want  SLA
		isErr bool
	}{
		{in: "", want: SLA{Level: ConsStrong}},
		{in: "strong", want: SLA{Level: ConsStrong}},
		{in: "eventual", want: SLA{Level: ConsEventual}},
		{in: "monotonic", want: SLA{Level: ConsMonotonic}},
		{in: "rmw", want: SLA{Level: ConsRMW}},
		{in: "bounded:250ms", want: SLA{Level: ConsBounded, Bound: 250 * time.Millisecond}},
		{in: "bounded:1h", want: SLA{Level: ConsBounded, Bound: time.Hour}},
		{in: "bounded:0s", want: SLA{Level: ConsBounded}},
		{in: "bounded:", isErr: true},
		{in: "bounded:-1s", isErr: true},
		{in: "bounded:soon", isErr: true},
		{in: "linearizable", isErr: true},
		{in: "Strong", isErr: true},
	}
	for _, tc := range cases {
		got, err := ParseConsistency(tc.in)
		if tc.isErr {
			if err == nil {
				t.Errorf("ParseConsistency(%q) = %+v, want error", tc.in, got)
			} else if !errors.Is(err, service.ErrBadRequest) {
				t.Errorf("ParseConsistency(%q) error %v, want ErrBadRequest", tc.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseConsistency(%q): %v", tc.in, err)
		} else if got != tc.want {
			t.Errorf("ParseConsistency(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestVersionOrdering(t *testing.T) {
	zero := version{}
	a := version{epoch: 1, seq: 2}
	b := version{epoch: 1, seq: 3}
	c := version{epoch: 2, seq: 0}
	if !zero.Less(a) || zero.Less(zero) {
		t.Fatal("zero version must precede everything and not itself")
	}
	if !a.Less(b) || !b.Less(c) || c.Less(a) {
		t.Fatalf("epoch-then-seq order broken: %v %v %v", a, b, c)
	}
	if !b.AtLeast(a) || !b.AtLeast(b) || a.AtLeast(b) {
		t.Fatal("AtLeast must be the complement of Less")
	}
	if a.String() != "1.2" {
		t.Fatalf("version string = %q, want 1.2", a.String())
	}
}

func TestSessionStoreFloors(t *testing.T) {
	ss := newSessionStore(time.Minute)

	tok1, _ := ss.get("")
	tok2, _ := ss.get("")
	if tok1 == tok2 || tok1 == "" {
		t.Fatalf("minted tokens must be distinct and non-empty: %q %q", tok1, tok2)
	}

	// Floors are zero with no history, track the high-water mark per
	// matrix, and never regress on an older note.
	if v := ss.floor(tok1, "m", ConsMonotonic); v != (version{}) {
		t.Fatalf("fresh monotonic floor = %v, want zero", v)
	}
	ss.noteRead(tok1, "m", version{epoch: 1, seq: 4})
	ss.noteRead(tok1, "m", version{epoch: 1, seq: 2})
	if v := ss.floor(tok1, "m", ConsMonotonic); v != (version{epoch: 1, seq: 4}) {
		t.Fatalf("monotonic floor = %v, want 1.4", v)
	}
	ss.noteWrite(tok1, "m", version{epoch: 1, seq: 7})
	if v := ss.floor(tok1, "m", ConsRMW); v != (version{epoch: 1, seq: 7}) {
		t.Fatalf("rmw floor = %v, want 1.7", v)
	}
	// Reads don't move the rmw floor and writes don't move the
	// monotonic floor; other matrices and sessions are independent.
	if v := ss.floor(tok1, "m", ConsMonotonic); v != (version{epoch: 1, seq: 4}) {
		t.Fatalf("monotonic floor moved by a write: %v", v)
	}
	if v := ss.floor(tok1, "other", ConsRMW); v != (version{}) {
		t.Fatalf("floor leaked across matrices: %v", v)
	}
	if v := ss.floor(tok2, "m", ConsRMW); v != (version{}) {
		t.Fatalf("floor leaked across sessions: %v", v)
	}
	// Unknown and empty tokens answer the zero version.
	if v := ss.floor("nope", "m", ConsRMW); v != (version{}) {
		t.Fatalf("unknown token floor = %v", v)
	}
	if v := ss.floor("", "m", ConsMonotonic); v != (version{}) {
		t.Fatalf("empty token floor = %v", v)
	}
	// Client-minted tokens work: noteWrite creates the session.
	ss.noteWrite("client-tok", "m", version{epoch: 2, seq: 1})
	if v := ss.floor("client-tok", "m", ConsRMW); v != (version{epoch: 2, seq: 1}) {
		t.Fatalf("client-minted session floor = %v, want 2.1", v)
	}
}

func TestSessionStoreTTLSweep(t *testing.T) {
	ss := newSessionStore(time.Millisecond)
	tok, _ := ss.get("")
	ss.noteWrite(tok, "m", version{epoch: 1, seq: 1})
	time.Sleep(5 * time.Millisecond)
	// The sweep is lazy: a later get pays it and evicts the idle session.
	ss.get("fresh")
	if n := ss.len(); n != 1 {
		t.Fatalf("after sweep len = %d, want 1 (the fresh session)", n)
	}
	if v := ss.floor(tok, "m", ConsRMW); v != (version{}) {
		t.Fatalf("expired session still answers floor %v", v)
	}
}

func TestSLACountersSnapshot(t *testing.T) {
	var c slaCounters
	if got := c.snapshot(); len(got) != 0 {
		t.Fatalf("empty counters snapshot = %v", got)
	}
	c.note(ConsStrong, slaHit)
	c.note(ConsStrong, slaHit)
	c.note(ConsStrong, slaCatchup)
	c.note(ConsBounded, slaMiss)
	got := c.snapshot()
	if len(got) != 2 {
		t.Fatalf("snapshot must skip untouched levels: %v", got)
	}
	if got["strong"] != (SLAStats{Hits: 2, Catchups: 1}) {
		t.Fatalf("strong stats = %+v", got["strong"])
	}
	if got["bounded"] != (SLAStats{Misses: 1}) {
		t.Fatalf("bounded stats = %+v", got["bounded"])
	}
}

// TestProbeJitterDesyncsFailedBackends is the regression test for the
// prober's lockstep re-probe herd: two backends that fail at the same
// moment must be scheduled for re-probe at distinct times, because each
// backend's backoff carries a deterministic jitter factor derived from
// its key.
func TestProbeJitterDesyncsFailedBackends(t *testing.T) {
	// Fixed dead addresses (reserved low ports, connection refused
	// immediately) so the per-backend jitter fractions are reproducible.
	a1, a2 := "http://127.0.0.1:2", "http://127.0.0.1:4"
	g := New(Config{
		Backends:        []string{a1, a2},
		ProbeInterval:   10 * time.Millisecond,
		ProbeBackoffMax: 80 * time.Millisecond,
	})
	t.Cleanup(g.Close)
	g.mu.Lock()
	b1, b2 := g.backends[a1], g.backends[a2]
	g.mu.Unlock()

	if b1.jfrac == b2.jfrac {
		t.Fatalf("distinct backends share jitter fraction %v", b1.jfrac)
	}

	// Fail both simultaneously until both backoffs sit at the cap, where
	// the un-jittered schedule would re-probe them in lockstep forever.
	for i := 0; i < 6; i++ {
		g.probeBackend(b1)
		g.probeBackend(b2)
	}
	b1.mu.Lock()
	n1 := b1.nextProbe
	b1.mu.Unlock()
	b2.mu.Lock()
	n2 := b2.nextProbe
	b2.mu.Unlock()

	gap := n1.Sub(n2)
	if gap < 0 {
		gap = -gap
	}
	// The two probeBackend calls are microseconds apart; a gap of
	// several milliseconds can only come from the jitter factor.
	if gap < 2*time.Millisecond {
		t.Fatalf("capped backoffs re-probe in lockstep: next probes %v apart", gap)
	}
	// Jitter must stay inside the ±25%% envelope around the cap so the
	// backoff still backs off.
	for _, until := range []time.Time{n1, n2} {
		d := time.Until(until)
		if d < 40*time.Millisecond || d > 110*time.Millisecond {
			t.Fatalf("jittered capped backoff %v outside [0.75,1.25]·cap envelope", d)
		}
	}
}

// TestEstimateConsistencyLevelsSync drives every SLA level through the
// sync-replication gateway: with no update log lag every level must
// answer the same correct value, strong/session levels echo a version,
// and the per-level outcome counters tally.
func TestEstimateConsistencyLevelsSync(t *testing.T) {
	n := 8
	b1, b2 := startBackend(t), startBackend(t)
	g := newTestGateway(t, 2, b1.addr, b2.addr)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	if _, err := g.PutMatrix(ctx, "m", wire); err != nil {
		t.Fatal(err)
	}
	rep, err := g.UpdateRows(ctx, "m", replaceRowReq(0, [][2]int64{{1, 5}}))
	if err != nil || rep.RowsApplied != 1 {
		t.Fatalf("update: %+v err=%v", rep, err)
	}
	want := sum - 1 + 5

	sessTok := "sess-levels"
	for _, lvl := range []string{"strong", "eventual", "monotonic", "rmw", "bounded:10s"} {
		sla, err := ParseConsistency(lvl)
		if err != nil {
			t.Fatal(err)
		}
		res, ver, err := g.estimateSLA(ctx, exactReq("m", n), sla, sessTok)
		if err != nil {
			t.Fatalf("%s estimate: %v", lvl, err)
		}
		if res.Estimate != want {
			t.Fatalf("%s estimate = %v, want %v", lvl, res.Estimate, want)
		}
		if ver == (version{}) {
			t.Fatalf("%s estimate echoed the zero version", lvl)
		}
	}
	// The served versions must have seeded the session's monotonic
	// floor, and the floor must be satisfiable (not above the head).
	if v := g.sessions.floor(sessTok, "m", ConsMonotonic); v == (version{}) {
		t.Fatal("reads did not seed the session's monotonic floor")
	}
	slaStats := g.Stats().SLA
	for _, lvl := range []string{"strong", "eventual", "monotonic", "rmw", "bounded"} {
		st, ok := slaStats[lvl]
		if !ok || st.Hits+st.Catchups+st.Misses == 0 {
			t.Fatalf("no SLA outcomes tallied for %s: %+v", lvl, slaStats)
		}
	}
}

// TestUpdateSeedsRMWFloor checks the write side of read-my-writes: a
// committed update under a session raises that session's rmw floor to
// the committed version.
func TestUpdateSeedsRMWFloor(t *testing.T) {
	n := 8
	b1 := startBackend(t)
	g := newTestGateway(t, 1, b1.addr)
	ctx := context.Background()

	wire, _ := testMatrix(n)
	if _, err := g.PutMatrix(ctx, "m", wire); err != nil {
		t.Fatal(err)
	}
	_, ver, err := g.updateRowsSLA(ctx, "m", replaceRowReq(0, [][2]int64{{1, 9}}), "w-sess")
	if err != nil {
		t.Fatal(err)
	}
	if got := g.sessions.floor("w-sess", "m", ConsRMW); got != ver {
		t.Fatalf("rmw floor = %v, want committed %v", got, ver)
	}
	if g.sessions.floor("w-sess", "m", ConsMonotonic) != (version{}) {
		t.Fatal("write moved the monotonic-read floor")
	}
}

// TestHTTPConsistencyParam exercises the ?consistency= grammar and the
// session/version echo headers over real HTTP.
func TestHTTPConsistencyParam(t *testing.T) {
	n := 8
	b1, b2 := startBackend(t), startBackend(t)
	g, gc := startGatewayServer(t, 2, b1.addr, b2.addr)
	ctx := context.Background()

	wire, sum := testMatrix(n)
	if _, err := g.PutMatrix(ctx, "m", wire); err != nil {
		t.Fatal(err)
	}

	reqBody, err := json.Marshal(exactReq("m", n))
	if err != nil {
		t.Fatal(err)
	}
	post := func(url string, hdr map[string]string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// A bad grammar is a 400 before any backend work.
	resp := post(gc.BaseURL+"/v1/estimate?consistency=bogus", nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus consistency: status %d, want 400", resp.StatusCode)
	}

	// A session level without a token mints one and echoes it with the
	// served version.
	resp = post(gc.BaseURL+"/v1/estimate?consistency=monotonic", nil)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("monotonic estimate: status %d body %s", resp.StatusCode, body)
	}
	tok := resp.Header.Get("MP-Session")
	if tok == "" {
		t.Fatal("no MP-Session echoed for a minted session")
	}
	if v := resp.Header.Get("MP-Version"); v == "" || v == "0.0" {
		t.Fatalf("MP-Version = %q, want a served version", v)
	}
	if !strings.Contains(string(body), "estimate") {
		t.Fatalf("estimate body: %s", body)
	}

	// The minted token is honored on the next request via header.
	resp = post(gc.BaseURL+"/v1/estimate", map[string]string{
		"MP-Consistency": "monotonic",
		"MP-Session":     tok,
	})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("monotonic re-read: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("MP-Session"); got != tok {
		t.Fatalf("session echo = %q, want %q", got, tok)
	}

	// The service client's static-header option pins consistency on
	// every call — the mpload wiring.
	hc := service.New(gc.BaseURL,
		service.WithHeader("MP-Consistency", "bounded:10s"))
	res, err := hc.Estimate(ctx, exactReq("m", n))
	if err != nil || res.Estimate != sum {
		t.Fatalf("bounded estimate via client: res=%v err=%v", res, err)
	}
	if g.Stats().SLA["bounded"].Hits == 0 {
		t.Fatal("bounded read not tallied")
	}
}
