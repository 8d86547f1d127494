package main

import (
	"fmt"
	"math"

	"repro/internal/intmat"
	"repro/service"
)

// verdict grades one reply. The statistical kinds (lp, linf,
// linfkappa, hh) carry a probabilistic guarantee: an answer outside it
// but inside twice its slack is a tallied violation
// (core.guarantee_violation_share); beyond that, and any failed hard
// check, is a wrong output.
type verdict int

const (
	ok verdict = iota
	violation
	wrong
)

// oracle is the harness's model of the served matrix: it applies every
// acknowledged update and answers, from dense arithmetic, what each
// reply must be.
type oracle struct {
	b       *intmat.Dense
	rowSum  []int64
	queries []*intmat.Dense
	colSum  [][]int64 // per query, column sums of A
	version int       // bumped per applied update; scopes truth
	truth   []*productTruth
}

// productTruth caches the scalars the ℓ∞ and hh checks need from the
// dense product C = A·B of one query, at one matrix version.
type productTruth struct {
	version int
	c       *intmat.Dense
	l1      float64
	max     int64
}

func newOracle(in *instance) *oracle {
	o := &oracle{b: in.b.Clone(), queries: in.queries, truth: make([]*productTruth, len(in.queries))}
	o.rowSum = make([]int64, o.b.Rows())
	for k := range o.rowSum {
		for _, v := range o.b.Row(k) {
			o.rowSum[k] += v
		}
	}
	for _, a := range in.queries {
		cs := make([]int64, a.Cols())
		for i := 0; i < a.Rows(); i++ {
			for k, v := range a.Row(i) {
				cs[k] += v
			}
		}
		o.colSum = append(o.colSum, cs)
	}
	return o
}

// apply folds one acknowledged update into the model, with the
// server's semantics: replace clears the row first, delta adds.
func (o *oracle) apply(u service.UpdateRequest) {
	for _, ru := range u.Updates {
		row := o.b.Row(ru.Row)
		if !u.Delta {
			clear(row)
		}
		for _, e := range ru.Entries {
			if u.Delta {
				row[e[0]] += e[1]
			} else {
				row[e[0]] = e[1]
			}
		}
		o.rowSum[ru.Row] = 0
		for _, v := range row {
			o.rowSum[ru.Row] += v
		}
	}
	o.version++
}

// wire is the model's current matrix in upload form.
func (o *oracle) wire() service.Matrix { return service.MatrixFromDense(o.b) }

// exactL1 is ‖A·B‖₁ for query q. Every generated matrix is
// non-negative, so the norm is the plain entry sum Σ_k colsum_A[k] ·
// rowsum_B[k] — the dense product's ℓ1 without forming it, which keeps
// the per-reply check O(n) while updates churn B (the generator tests
// pin it equal to the dense product's).
func (o *oracle) exactL1(q int) float64 {
	var s int64
	for k, c := range o.colSum[q] {
		s += c * o.rowSum[k]
	}
	return float64(s)
}

func (o *oracle) product(q int) *productTruth {
	if t := o.truth[q]; t != nil && t.version == o.version {
		return t
	}
	c := intmat.FromDense(o.queries[q]).MulDense(o.b)
	max, _, _ := c.Linf()
	t := &productTruth{version: o.version, c: c, l1: float64(c.L1()), max: max}
	o.truth[q] = t
	return t
}

// check grades res against the model. relErr is |estimate − exact| /
// exact for lp replies and −1 otherwise.
func (o *oracle) check(p *op, res *service.Result) (v verdict, relErr float64, why string) {
	relErr = -1
	if res.Kind != p.kind || res.Seed != *p.req.Seed {
		return wrong, relErr, fmt.Sprintf("reply is kind %q seed %d, asked %q seed %d", res.Kind, res.Seed, p.kind, *p.req.Seed)
	}
	a, q := o.queries[p.query], p.query
	switch p.kind {
	case "exact":
		if want := o.exactL1(q); res.Estimate != want {
			return wrong, relErr, fmt.Sprintf("exact = %v, dense ‖AB‖₁ = %v", res.Estimate, want)
		}
	case "lp":
		want := o.exactL1(q)
		relErr = math.Abs(res.Estimate-want) / want
		if relErr > 2*p.req.Eps {
			return wrong, relErr, fmt.Sprintf("lp = %v vs exact %v: relative error %.3f beyond 2ε", res.Estimate, want, relErr)
		}
		if relErr > p.req.Eps {
			return violation, relErr, ""
		}
	case "l0sample":
		var dot int64
		for k, av := range a.Row(res.I) {
			dot += av * o.b.Get(k, res.J)
		}
		if dot == 0 || float64(dot) != res.Estimate {
			return wrong, relErr, fmt.Sprintf("l0sample (%d,%d) = %v, true entry %d", res.I, res.J, res.Estimate, dot)
		}
	case "l1sample":
		if a.Get(res.I, res.Witness)*o.b.Get(res.Witness, res.J) == 0 {
			return wrong, relErr, fmt.Sprintf("l1sample witness %d does not join (%d,%d)", res.Witness, res.I, res.J)
		}
	case "linf":
		// (2+ε)-approximation from below, (1+ε) from above.
		max := float64(o.product(q).max)
		lo, hi := max/(2+p.req.Eps), max*(1+p.req.Eps)
		return gradeRange(res.Estimate, lo, hi, max, "linf")
	case "linfkappa":
		max := float64(o.product(q).max)
		return gradeRange(res.Estimate, max/p.req.Kappa, max*p.req.Kappa, max, "linfkappa")
	case "hh":
		return o.checkHH(p, res)
	default:
		return wrong, relErr, "unknown kind " + p.kind
	}
	return ok, relErr, ""
}

// gradeRange grades an approximation that must land in [lo, hi]:
// inside is ok, inside [lo/2, 2·hi] a violation, beyond wrong.
func gradeRange(est, lo, hi, truth float64, kind string) (verdict, float64, string) {
	switch {
	case est >= lo && est <= hi:
		return ok, -1, ""
	case est >= lo/2 && est <= 2*hi:
		return violation, -1, ""
	}
	return wrong, -1, fmt.Sprintf("%s = %v outside twice the guarantee around %v", kind, est, truth)
}

// checkHH grades HH_ϕ ⊆ S ⊆ HH_{ϕ−ε} for p = 1: missing an entry above
// ϕ+ε or reporting one below ϕ−2ε is wrong; the same inside those
// margins is a violation.
func (o *oracle) checkHH(p *op, res *service.Result) (verdict, float64, string) {
	t := o.product(p.query)
	phi, eps := p.req.Phi, p.req.Eps
	got := make(map[[2]int]bool, len(res.Entries))
	v := ok
	for _, e := range res.Entries {
		got[[2]int{e.I, e.J}] = true
		share := float64(t.c.Get(e.I, e.J)) / t.l1
		if share < phi-2*eps {
			return wrong, -1, fmt.Sprintf("hh reports (%d,%d) with share %.4f < ϕ−2ε", e.I, e.J, share)
		}
		if share < phi-eps {
			v = violation
		}
	}
	for _, e := range t.c.NonZeros() {
		share := float64(e.V) / t.l1
		if share < phi || got[[2]int{e.I, e.J}] {
			continue
		}
		if share >= phi+eps {
			return wrong, -1, fmt.Sprintf("hh misses (%d,%d) with share %.4f ≥ ϕ+ε", e.I, e.J, share)
		}
		v = violation
	}
	return v, -1, ""
}

// sameAnswer is the repo's byte-identical-transcript invariant seen
// from outside: the same pinned-seed request yields the same estimate,
// bits and rounds wherever it is answered.
func sameAnswer(x, y *service.Result) bool {
	if x.Estimate != y.Estimate || x.Bits != y.Bits || x.Rounds != y.Rounds ||
		x.I != y.I || x.J != y.J || x.Witness != y.Witness || len(x.Entries) != len(y.Entries) {
		return false
	}
	for i := range x.Entries {
		if x.Entries[i] != y.Entries[i] {
			return false
		}
	}
	return true
}
