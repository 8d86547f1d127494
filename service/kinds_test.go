package service

import (
	"context"
	"fmt"
	"testing"
)

// TestCacheSharingFollowsStateInputs: two queries of one kind that
// differ only in (a) the seed, (b) parameters the kind does not read, or
// (c) its defaults spelled out against omitted share one sketch-cache
// entry exactly when the state does not depend on the difference. lp,
// l0sample and hh bake sketches drawn from the seed into their states;
// every entry resolves its defaults before it forms the key.
func TestCacheSharingFollowsStateInputs(t *testing.T) {
	seeded := map[string]bool{"lp": true, "l0sample": true, "hh": true}
	unread := map[string]func(*Request){
		"lp":        func(r *Request) { r.Phi, r.Kappa = 0.3, 5 },
		"l0sample":  func(r *Request) { r.P, r.Phi, r.Kappa = 2, 0.3, 5 },
		"l1sample":  func(r *Request) { r.P, r.Eps, r.Phi, r.Kappa = 2, 0.4, 0.3, 5 },
		"exact":     func(r *Request) { r.P, r.Eps, r.Phi, r.Kappa = 2, 0.4, 0.3, 5 },
		"linf":      func(r *Request) { r.P, r.Phi, r.Kappa = 2, 0.3, 5 },
		"linfkappa": func(r *Request) { r.P, r.Eps, r.Phi = 2, 0.4, 0.3 },
		"hh":        func(r *Request) { r.Kappa = 5 },
	}
	spelled := map[string]func(*Request){ // exact and l1sample have none
		"lp":        func(r *Request) { r.Eps = 0.25 },
		"l0sample":  func(r *Request) { r.Eps = 0.25 },
		"linf":      func(r *Request) { r.Eps = 0.25 },
		"linfkappa": func(r *Request) { r.Kappa = 8 },
		"hh":        func(r *Request) { r.P, r.Phi, r.Eps = 1, 0.2, 0.1 },
	}
	if len(unread) != len(kinds) {
		t.Fatalf("the table serves %d kinds, the test covers %d", len(kinds), len(unread))
	}
	const n = 16
	b, a := testBinaryMatrix(600, n, 0.3), testBinaryMatrix(601, n, 0.3)
	type row struct {
		what   string
		second func(*Request)
		shared bool
	}
	for name := range kinds {
		rows := []row{
			{"seed", func(r *Request) { s := *r.Seed + 1; r.Seed = &s }, !seeded[name]},
			{"unread parameters", unread[name], true},
		}
		if spelled[name] != nil {
			rows = append(rows, row{"defaults spelled out", spelled[name], true})
		}
		for _, row := range rows {
			t.Run(name+"/"+row.what, func(t *testing.T) {
				e := newTestEngine(t, Config{Shards: 1})
				if _, _, err := e.PutMatrix("b", b); err != nil {
					t.Fatal(err)
				}
				seed := uint64(602)
				first := Request{Matrix: "b", Kind: name, A: a, Seed: &seed}
				second := first
				row.second(&second)
				for _, req := range []Request{first, second} {
					if _, err := e.Estimate(context.Background(), req); err != nil {
						t.Fatal(err)
					}
				}
				want := 2
				if row.shared {
					want = 1
				}
				if got := e.Stats().Cache.Entries; got != want {
					t.Errorf("%d cache entries after the two queries, want %d", got, want)
				}
			})
		}
	}
}

// TestEveryKnownKindQueryCounted: a query of a known kind lands in
// per_kind and in mp_requests_total once, however it fails — against a
// matrix that is not served, refused for a matrix that is not 0/1, for
// mismatched dimensions, while A is listed, or by the state build. A
// query of an unknown kind is refused without a series of its own.
func TestEveryKnownKindQueryCounted(t *testing.T) {
	srv, client := newTestServer(t, Config{})
	ctx := context.Background()
	const n = 16
	if _, err := client.UploadMatrix(ctx, "int", testMatrix(610, n, 0.3)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.UploadMatrix(ctx, "bool", testBinaryMatrix(611, n, 0.3)); err != nil {
		t.Fatal(err)
	}
	aBits, aInt := testBinaryMatrix(612, n, 0.3), testMatrix(613, n, 0.3)
	for _, req := range []Request{
		{Matrix: "nope", Kind: "exact", A: aBits},
		{Matrix: "int", Kind: "linf", A: aBits},
		{Matrix: "bool", Kind: "linfkappa", A: aInt},
		{Matrix: "bool", Kind: "lp", A: testBinaryMatrix(614, n/2, 0.3)},
		{Matrix: "bool", Kind: "l0sample", A: Matrix{Rows: n, Cols: n, Entries: [][3]int64{{n, 0, 1}}}},
		{Matrix: "bool", Kind: "hh", Phi: 0.1, Eps: 0.5, A: aBits},
		{Matrix: "bool", Kind: "median", A: aBits},
	} {
		if _, err := client.Estimate(ctx, req); err == nil {
			t.Fatalf("%s against %q succeeded", req.Kind, req.Matrix)
		}
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := scrapeMetrics(t, srv.URL)
	for _, kind := range []string{"exact", "linf", "linfkappa", "lp", "l0sample", "hh"} {
		if ks := st.PerKind[kind]; ks.Requests != 1 || ks.Errors != 1 {
			t.Errorf("per_kind[%s] = %+v, want one failed request", kind, ks)
		}
		if v := got[fmt.Sprintf(`mp_requests_total{kind=%q,outcome="error"}`, kind)]; v != 1 {
			t.Errorf(`mp_requests_total{kind=%q,outcome="error"} = %v, want 1`, kind, v)
		}
	}
	if _, ok := st.PerKind["median"]; ok || st.Requests != 6 || st.Errors != 6 {
		t.Errorf("stats %+v: want the six known-kind failures and nothing of the unknown kind", st)
	}
}
