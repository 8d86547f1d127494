package core

import (
	"math"
	"sort"
	"strconv"

	"repro/internal/comm"
	"repro/internal/intmat"
	"repro/internal/rng"
)

// EstimateLpMulti runs Algorithm 1 for several norm indices in a single
// two-round execution: round 1 carries one sketch family per (p, rep)
// pair and round 2 one sample set per (p, rep). This amortizes the round
// cost when a caller (e.g. a query optimizer wanting both the
// composition size ‖AB‖0 and the join size ‖AB‖1) needs several
// statistics of the same product: total bits are the sum of the
// individual protocols' bits, but rounds stay at 2 instead of 2·len(ps).
//
// The returned slice is aligned with ps. Every p must lie in [0, 2].
func EstimateLpMulti(a, b *intmat.Dense, ps []float64, o LpOpts) ([]float64, Cost, error) {
	if err := checkDims(a.Cols(), b.Rows()); err != nil {
		return nil, Cost{}, err
	}
	if len(ps) == 0 {
		return nil, Cost{}, ErrBadP
	}
	for _, p := range ps {
		if p < 0 || p > 2 {
			return nil, Cost{}, ErrBadP
		}
	}
	if err := o.setDefaults(); err != nil {
		return nil, Cost{}, err
	}
	beta := math.Sqrt(o.Eps)
	sizeWords := int(math.Ceil(o.SketchC / (beta * beta)))
	if sizeWords < 4 {
		sizeWords = 4
	}
	n := a.Cols()
	conn := comm.NewConn()
	shared := rng.New(o.Seed)

	// One sketch family per (p, rep).
	sketchers := make([][]rowSketcher, len(ps))
	for pi, p := range ps {
		sketchers[pi] = make([]rowSketcher, o.Reps)
		for rep := range sketchers[pi] {
			sketchers[pi][rep] = newRowSketcher(
				shared.Derive("lpmulti", strconv.Itoa(pi), strconv.Itoa(rep)), b.Cols(), p, sizeWords)
		}
	}

	// Round 1: Bob → Alice, all families batched.
	msg1 := comm.NewMessage()
	msg1.Label = "per-row ℓp sketches of B (all p, batched)"
	nz := intmat.FromDense(b)
	for _, fam := range sketchers {
		for _, rs := range fam {
			rs.encodeRowRange(msg1, nz, 0, nz.Rows())
		}
	}
	recv1 := conn.Send(comm.BobToAlice, msg1)

	// Alice: per p, group and sample exactly as EstimateLp.
	alicePriv := rng.New(o.Seed).Derive("alice-private", "lpmulti")
	as := intmat.FromDense(a)
	var picks [][]weightedPick
	for _, fam := range sketchers {
		picks = append(picks, readSketchBlock(recv1, fam, n).sampleRows(as, beta, o.RhoC/o.Eps, alicePriv, o.Shards)...)
	}
	msg2 := comm.NewMessage()
	msg2.Label = "sampled rows of A (all p, batched)"
	putSampledRows(msg2, as, picks)
	recv2 := conn.Send(comm.AliceToBob, msg2)

	// Bob: exact norms of sampled rows, median per family — BobLpState's
	// round 2, once per p.
	out := make([]float64, len(ps))
	for pi, p := range ps {
		var rowSums []int64
		if p == 1 {
			rowSums = l1RowSums(nz)
		}
		out[pi] = median(sampledRowSums(nz, rowSums, recv2, o.Reps, p, o.Shards))
	}
	return out, costOf(conn), nil
}

// weightedPick is one sampled row with its inverse-probability weight.
type weightedPick struct {
	i      int
	weight float64
}

// sampleRows performs Algorithm 1's group-and-sample step for every
// repetition of the block: estimate every row norm of every repetition
// in one sharded pass (rowNorms), then, repetition by repetition in
// order, partition the rows into (1+β)-geometric groups and sample each
// group at rate ∝ its share of the total. Only the sampling draws
// coins, sequentially and in the order a per-repetition pass drew them,
// so priv's stream is untouched by the shard count and the fused pass.
func (blk *sketchBlock) sampleRows(a *intmat.Sparse, beta, rho float64, priv *rng.RNG, shards int) [][]weightedPick {
	rowEst := blk.rowNorms(a, shards)
	picks := make([][]weightedPick, len(rowEst))
	for rep, est := range rowEst {
		picks[rep] = groupAndSample(est, beta, rho, priv)
	}
	return picks
}

// groupAndSample samples one repetition's rows from their estimated
// norms. The total is summed in row order, the sequential float order.
func groupAndSample(rowEst []float64, beta, rho float64, priv *rng.RNG) []weightedPick {
	// An empty row's estimate stayed +0, which leaves the sum as it is.
	total := 0.0
	for _, e := range rowEst {
		total += e
	}
	type group struct {
		members []int
		sum     float64
	}
	groups := map[int]*group{}
	logBase := math.Log(1 + beta)
	for i, e := range rowEst {
		if e <= 0 {
			continue
		}
		ell := int(math.Floor(math.Log(math.Max(e, 1)) / logBase))
		g := groups[ell]
		if g == nil {
			g = &group{}
			groups[ell] = g
		}
		g.members = append(g.members, i)
		g.sum += e
	}
	keys := make([]int, 0, len(groups))
	for ell := range groups {
		keys = append(keys, ell)
	}
	sort.Ints(keys)
	var picks []weightedPick
	for _, key := range keys {
		g := groups[key]
		pl := 1.0
		if total > 0 {
			pl = math.Min(1, rho/float64(len(g.members))*(g.sum/total))
		}
		for _, i := range g.members {
			if priv.Bernoulli(pl) {
				picks = append(picks, weightedPick{i: i, weight: 1 / pl})
			}
		}
	}
	return picks
}
