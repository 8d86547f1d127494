package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/intmat"
	"repro/service"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10, shuffled
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 5}, {0.90, 9}, {0.95, 10}, {0.99, 10}, {0.10, 1}, {0, 1}, {1, 10},
	} {
		if got := percentile(v, tc.q); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if v[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v", got)
	}
	// The servers' definition, on the same samples.
	durs := make([]time.Duration, 10)
	for i := range durs {
		durs[i] = time.Duration(i + 1)
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		if got, want := percentile(v, q), float64(service.Percentile(durs, q)); got != want {
			t.Errorf("q=%v: harness %v, service.Percentile %v", q, got, want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of an odd count = %v, want 5", got)
	}
}

func TestBestPerOpAndQuietReads(t *testing.T) {
	nan := math.NaN()
	ops := []op{{kind: "lp"}, {kind: "update"}, {kind: "exact"}}
	passes := []pass{
		{9, 5, nan},
		{7, nan, nan},
		{8, 4, nan},
	}
	best := bestPerOp(passes)
	if best[0] != 7 || best[1] != 4 || !math.IsNaN(best[2]) {
		t.Errorf("bestPerOp = %v, want [7 4 NaN]: a failed repeat neither wins nor erases a good one", best)
	}
	reads, updates := split(ops, best)
	if len(reads) != 1 || reads[0] != 7 || len(updates) != 1 || updates[0] != 4 {
		t.Errorf("split = %v / %v, want [7] / [4]", reads, updates)
	}

	// Four passes of three reads: a neighbour's burst slows all of pass
	// 1, a pause inside the server slows one read of pass 2. Asked for
	// six reads, quietReads keeps the two passes with the lowest medians
	// — 3 and 2 — and with them the paused read; the burst is left out.
	reads3 := []op{{kind: "lp"}, {kind: "lp"}, {kind: "lp"}}
	four := []pass{{7, 7.5, 8}, {14, 15, 16}, {7.1, 7.2, 40}, {6.9, 7, 7.1}}
	got := quietReads(reads3, four, 6)
	sort.Float64s(got)
	if want := []float64{6.9, 7, 7.1, 7.1, 7.2, 40}; !slices.Equal(got, want) {
		t.Errorf("quietReads = %v, want %v", got, want)
	}
	if got := quietReads(reads3, four[:1], 6); len(got) != 3 {
		t.Errorf("a phase shorter than the pool gives %v, want its three reads", got)
	}
}

func TestSelfTimeNeverDoubleCounts(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},   // overlaps 2: the union is [10,60)
		{ID: 4, Parent: 1, Start: 35, End: 50},   // inside the union already
		{ID: 5, Parent: 1, Start: 90, End: 130},  // runs past the parent: clipped to [90,100)
		{ID: 6, Parent: 2, Start: 15, End: 20},   // grandchild: not the parent's to subtract
		{ID: 7, Parent: 1, Start: 200, End: 250}, // attributed to the parent but outside it
	}
	if got := selfTime(spans, 1); got != 40 {
		t.Errorf("selfTime(parent) = %v, want 40 (100 − [10,60) − [90,100))", got)
	}
	if got := selfTime(spans, 2); got != 25 {
		t.Errorf("selfTime(child with one child) = %v, want 25", got)
	}
	if got := selfTime(spans, 6); got != 5 {
		t.Errorf("selfTime(leaf) = %v, want its duration 5", got)
	}
}

func TestRecorderNesting(t *testing.T) {
	rec := &recorder{t0: time.Now()}
	root := rec.begin("op")
	rec.timed("a", func() { rec.timed("a.inner", func() {}) })
	rec.timed("b", func() {})
	rec.end(root)
	want := []struct {
		name   string
		parent int
	}{{"op", 0}, {"a", 1}, {"a.inner", 2}, {"b", 1}}
	for i, w := range want {
		if s := rec.spans[i]; s.Name != w.name || s.Parent != w.parent || s.End < s.Start {
			t.Errorf("span %d = %+v, want %s under %d", i, s, w.name, w.parent)
		}
	}
	if len(rec.open) != 0 {
		t.Errorf("%d spans left open", len(rec.open))
	}
}

// TestGeneratorDeterminism: the same seed gives the same op stream, a
// different seed a different one, and what either generates passes the
// output checks when answered by an in-process engine.
func TestGeneratorDeterminism(t *testing.T) {
	for i := range specs {
		w := &specs[i]
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			one, again, two := w.generate(1), w.generate(1), w.generate(2)
			if one.hash() != again.hash() {
				t.Error("the same seed generated two different op streams")
			}
			if one.hash() == two.hash() {
				t.Error("seeds 1 and 2 generated the same op stream")
			}
			for _, in := range []*instance{one, two} {
				answerAndCheck(t, w, in, 12)
			}
		})
	}
}

// answerAndCheck walks the first ops of the cycle (and the probes)
// against an in-process engine configured like the workload's server.
func answerAndCheck(t *testing.T, w *spec, in *instance, ops int) {
	t.Helper()
	o := newOracle(in)
	eng := service.NewEngine(service.Config{DisableCache: w.noCache})
	defer eng.Close()
	if _, _, err := eng.PutMatrix(matrixName, o.wire()); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for i := range in.ops {
		p := &in.ops[i]
		if i >= ops && kinds[p.kind] { // beyond the prefix, one op of each kind not seen yet
			continue
		}
		kinds[p.kind] = true
		if p.isUpdate() {
			if _, err := eng.UpdateRows(matrixName, p.update); err != nil {
				t.Fatalf("op %d update: %v", i, err)
			}
			o.apply(p.update)
			continue
		}
		res, err := eng.Estimate(context.Background(), p.req)
		if err != nil {
			t.Fatalf("op %d %s: %v", i, p.kind, err)
		}
		if v, _, why := o.check(p, res); v == wrong {
			t.Errorf("op %d %s: %s", i, p.kind, why)
		}
	}
	for i := range in.probe {
		res, err := eng.Estimate(context.Background(), in.probe[i].req)
		if err != nil {
			t.Fatal(err)
		}
		if v, _, why := o.check(&in.probe[i], res); v == wrong {
			t.Errorf("probe %s: %s", in.probe[i].kind, why)
		}
	}
}

// TestOracle pins the O(n) ℓ1 shortcut to the dense product through
// updates, and the three grades of the statistical check.
func TestOracle(t *testing.T) {
	in := genUpdateDurable(3)
	o := newOracle(in)
	denseL1 := func(q int) float64 {
		return float64(intmat.FromDense(in.queries[q]).MulDense(o.b).L1())
	}
	if got, want := o.exactL1(0), denseL1(0); got != want {
		t.Fatalf("exactL1 = %v, dense product ℓ1 = %v", got, want)
	}
	for i := range in.ops {
		if in.ops[i].isUpdate() {
			o.apply(in.ops[i].update)
		}
	}
	if got, want := o.exactL1(5), denseL1(5); got != want {
		t.Fatalf("after %d ops: exactL1 = %v, dense product ℓ1 = %v", len(in.ops), got, want)
	}
	if o.product(5).l1 != denseL1(5) {
		t.Fatal("cached product truth is stale after updates")
	}

	lp := &in.probe[0]
	exact := o.exactL1(lp.query)
	reply := func(est float64) *service.Result {
		return &service.Result{Kind: "lp", Seed: *lp.req.Seed, Estimate: est}
	}
	for _, tc := range []struct {
		est  float64
		want verdict
	}{
		{exact, ok}, {exact * (1 + 0.9*lpEps), ok}, {exact * (1 - 1.5*lpEps), violation}, {exact * (1 + 2.5*lpEps), wrong},
	} {
		v, relErr, _ := o.check(lp, reply(tc.est))
		if v != tc.want || math.Abs(relErr-math.Abs(tc.est-exact)/exact) > 1e-12 {
			t.Errorf("lp estimate %v of %v graded %v (rel err %v), want %v", tc.est, exact, v, relErr, tc.want)
		}
	}
	ex := &in.probe[1]
	if v, _, _ := o.check(ex, &service.Result{Kind: "exact", Seed: *ex.req.Seed, Estimate: exact + 1}); v != wrong {
		t.Error("an exact answer off by one passed")
	}
	if v, _, _ := o.check(ex, &service.Result{Kind: "lp", Seed: *ex.req.Seed, Estimate: exact}); v != wrong {
		t.Error("a reply of another kind passed")
	}
}

// TestContractNamesWorkloads: BENCHMARK.json lists exactly the
// workloads the harness runs, with the reasons the specs carry.
func TestContractNamesWorkloads(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Workloads []struct{ Name, Why string }
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(c.Workloads), len(specs))
	}
	for i, w := range c.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%s), the harness %q (%s)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
}

func TestSameAnswer(t *testing.T) {
	x := &service.Result{Estimate: 3, Bits: 10, Rounds: 2, Entries: []service.Entry{{I: 1, J: 2, Value: 3}}}
	y := *x
	y.Entries = []service.Entry{{I: 1, J: 2, Value: 3}}
	y.Elapsed = time.Second // server-side wall clock is not part of the answer
	if !sameAnswer(x, &y) {
		t.Error("equal answers differ")
	}
	y.Bits++
	if sameAnswer(x, &y) {
		t.Error("a different bit count passed")
	}
}
