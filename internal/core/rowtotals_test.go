package core

import (
	"errors"
	"math"
	"math/big"
	"reflect"
	"testing"

	"repro/internal/intmat"
)

// dense builds a matrix from its rows.
func dense(rows ...[]int64) *intmat.Dense {
	m := intmat.NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		for j, v := range r {
			m.Set(i, j, v)
		}
	}
	return m
}

// TestRemark2RefusesOverflow: a total Remark 2 folds — ‖AB‖₁, the
// l1sample weights, hh's ‖|A|·|B|‖₁ scale, the bound on an lp row's
// products — that reaches 2⁶³ is refused with ErrOverflow by every kind
// that folds it, not wrapped into a wrong answer; so is a column of A
// whose total reaches 2⁶³ on its own. A total of 2⁶³ − 1 is answered.
func TestRemark2RefusesOverflow(t *testing.T) {
	const e31, e32, e62 = int64(1) << 31, int64(1) << 32, int64(1) << 62
	b := dense([]int64{e31}, []int64{e31})
	for _, c := range []struct {
		name string
		a, b *intmat.Dense
	}{
		{"‖AB‖₁ = 2⁶⁴", dense([]int64{e32, e32}), b},
		{"‖AB‖₁ = 5·2⁶²", dense([]int64{3 * e31, e32}), b},
		{"a column of A totals 2⁶³", dense([]int64{e62}, []int64{e62}), dense([]int64{1})},
	} {
		lpOnly := c.name == "a column of A totals 2⁶³" // no lp row reaches 2⁶³ there
		runs := map[string]func() error{
			"exact": func() error { _, _, err := ExactL1(c.a, c.b); return err },
			"l1sample": func() error {
				_, _, _, _, err := SampleL1(c.a, c.b, 1)
				return err
			},
			"hh": func() error {
				_, _, err := HeavyHitters(c.a, c.b, HHOpts{Phi: 0.5, Eps: 0.25, Seed: 1})
				return err
			},
		}
		if !lpOnly {
			runs["lp"] = func() error { _, _, err := EstimateLp(c.a, c.b, 1, LpOpts{Eps: 0.5, Seed: 1}); return err }
		}
		for kind, run := range runs {
			if err := run(); !errors.Is(err, ErrOverflow) {
				t.Errorf("%s, %s: %v, want ErrOverflow", c.name, kind, err)
			}
		}
	}
	got, _, err := ExactL1(dense([]int64{e62, e62 - 1}), dense([]int64{1}, []int64{1}))
	if err != nil || got != math.MaxInt64 {
		t.Fatalf("‖AB‖₁ = 2⁶³ − 1: %d, %v", got, err)
	}
}

// fuzzValues are the entries FuzzRowTotals draws: near ±2⁶², the int64
// extremes, and small values.
var fuzzValues = []int64{0, 1, -1, 3, -3, 1 << 31, 1 << 32, 1 << 62, -1 << 62, 1<<62 - 1, -(1<<62 - 1), 1<<62 + 1, math.MaxInt64, math.MinInt64}

// fuzzCoefs are the column totals FuzzRowTotals folds with.
var fuzzCoefs = []uint64{0, 1, 2, 3, 1 << 31, 1 << 32, 1 << 53, 1 << 62, 1 << 63, math.MaxUint64}

// FuzzRowTotals: B's row totals patched row by row are a fresh build's
// on the patched matrix, signed-row count included; and each fold —
// against a totals vector and against a sparse row — equals a math/big
// reference below its limit and refuses exactly when the reference
// reaches it, at both limits.
func FuzzRowTotals(f *testing.F) {
	f.Add([]byte{3, 2, 7, 8, 9, 0, 1, 2, 1, 0, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{5, 3, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 2, 4})
	f.Add([]byte{1, 1, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		n, m := 1+next()%6, 1+next()%4
		b := intmat.NewDense(n, m)
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				b.Set(i, j, fuzzValues[next()%len(fuzzValues)])
			}
		}
		tot := newRowTotals(n, 2, listTotal(b.List()))
		var rows []int
		for x := next() % 4; x > 0; x-- {
			k := next() % n
			rows = append(rows, k)
			for j := 0; j < m; j++ {
				b.Set(k, j, fuzzValues[next()%len(fuzzValues)])
			}
		}
		tot = tot.patched(listTotal(b), rows)
		if fresh := newRowTotals(n, 1, listTotal(b.List())); !reflect.DeepEqual(tot, fresh) {
			t.Fatalf("patched rows %v: %v, fresh build %v", rows, tot, fresh)
		}

		// The references: each row's true Σ|b_kj| and sign.
		rowAbs := make([]*big.Int, n)
		signed := make([]bool, n)
		for k := range rowAbs {
			rowAbs[k] = new(big.Int)
			for j := 0; j < m; j++ {
				v := big.NewInt(b.Get(k, j))
				signed[k] = signed[k] || v.Sign() < 0
				rowAbs[k].Add(rowAbs[k], v.Abs(v))
			}
		}
		c := make([]uint64, n)
		var cols []int32
		var vals []int64
		vecRef, rowRef, rowNonNeg := new(big.Int), new(big.Int), true
		for k := range c {
			c[k] = fuzzCoefs[next()%len(fuzzCoefs)]
			vecRef.Add(vecRef, new(big.Int).Mul(new(big.Int).SetUint64(c[k]), rowAbs[k]))
			if sel := next(); sel%3 != 0 {
				v := fuzzValues[sel%len(fuzzValues)]
				cols, vals = append(cols, int32(k)), append(vals, v)
				av := big.NewInt(v)
				rowNonNeg = rowNonNeg && av.Sign() >= 0 && !signed[k]
				rowRef.Add(rowRef, av.Mul(av.Abs(av), rowAbs[k]))
			}
		}
		for _, limit := range []uint64{intLimit, floatLimit} {
			bl := new(big.Int).SetUint64(limit)
			got, ok := foldTotals(tot, c, limit)
			if want := vecRef.Cmp(bl) < 0; ok != want || ok && new(big.Int).SetUint64(got).Cmp(vecRef) != 0 {
				t.Fatalf("limit %d: fold %d (ok %v), reference %v", limit, got, ok, vecRef)
			}
			got, nonNeg, ok := tot.foldRow(cols, vals, limit)
			if want := rowRef.Cmp(bl) < 0; ok != want || ok && (new(big.Int).SetUint64(got).Cmp(rowRef) != 0 || nonNeg != rowNonNeg) {
				t.Fatalf("limit %d: row fold %d (ok %v, nonNeg %v), reference %v (nonNeg %v)", limit, got, ok, nonNeg, rowRef, rowNonNeg)
			}
		}
	})
}

// TestRowTotalsShardSplitInvisible: the build's shards own whole sign
// words, so totals built over any split — 1293 rows of a signed
// matrix, 21 words, some rows empty — are the sequential build's,
// bit and count alike.
func TestRowTotalsShardSplitInvisible(t *testing.T) {
	b := randomInt(3300, 1293, 9, 0.2, 5, false)
	want := newRowTotals(b.Rows(), 1, listTotal(b.List()))
	if want.nSigned == 0 || want.nSigned == b.Rows() {
		t.Fatalf("%d of %d rows signed: the input should mix both", want.nSigned, b.Rows())
	}
	for _, shards := range []int{2, 3, 8} {
		if got := newRowTotals(b.Rows(), shards, listTotal(b.List())); !reflect.DeepEqual(got, want) {
			t.Fatalf("shards %d: totals differ from the sequential build", shards)
		}
	}
}
