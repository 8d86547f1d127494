package core

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/intmat"
)

// TestL1RowSumMatchesLpPow: wherever the row-sum path answers, its
// ‖row · B‖₁ is lpPow's at p = 1, bit for bit, and it answers for every
// non-negative row against non-negative B. B is drawn signed and
// non-negative, with all-zero rows; rows of A are mixed-sign,
// non-negative, and hold explicit zero coefficients.
func TestL1RowSumMatchesLpPow(t *testing.T) {
	rnd := rand.New(rand.NewSource(2620))
	for trial := 0; trial < 40; trial++ {
		nonNegB := trial%2 == 0
		b := randomInt(uint64(2621+trial), 30, 50, 0.3, 1+int64(trial)*7, nonNegB)
		nz := b.List()
		sums := l1RowSums(nz)
		y := make([]int64, nz.Cols())
		for row := 0; row < 50; row++ {
			nonNegA := row%2 == 0
			var cols []int32
			var vals []int64
			for k := 0; k < nz.Rows(); k++ {
				if rnd.Float64() < 0.3 {
					v := rnd.Int63n(9) // zero one time in nine
					if !nonNegA {
						v -= 4
					}
					cols, vals = append(cols, int32(k)), append(vals, v)
				}
			}
			want := lpPow(nz, y, cols, vals, 1)
			got, ok := l1RowSum(sums, cols, vals)
			if ok && math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d row %d: row sums give %v, lpPow %v", trial, row, got, want)
			}
			if !ok && nonNegA && nonNegB {
				t.Fatalf("trial %d row %d: a non-negative row against non-negative B fell back", trial, row)
			}
		}
	}
}

// TestL1RowSumFallsBackAt2Pow53: a total of 2⁵³ − 1 is answered from
// the row sums and equals lpPow's fold; a total of 2⁵³ — from one row of
// B, or from a coefficient times a row sum, or past int64 altogether —
// falls back, and lpPow stays the answer there.
func TestL1RowSumFallsBackAt2Pow53(t *testing.T) {
	const big = int64(1) << 53
	b := intmat.NewDense(4, 3)
	b.Set(0, 0, big/2) // row 0 sums to 2⁵³ − 1
	b.Set(0, 2, big/2-1)
	b.Set(1, 1, big/2) // row 1 sums to 2⁵³: no total through it is answered
	b.Set(1, 2, big/2)
	b.Set(2, 0, big/4) // row 2 sums to 2⁵¹
	b.Set(3, 1, 1<<62)
	nz := b.List()
	sums := l1RowSums(nz)
	if sums[0] != big-1 || sums[1] != -1 || sums[2] != big/4 || sums[3] != -1 {
		t.Fatalf("row sums %v", sums)
	}
	y := make([]int64, nz.Cols())
	for _, c := range []struct {
		name string
		cols []int32
		vals []int64
		ok   bool
	}{
		{"one row summing to 2⁵³ − 1", []int32{0}, []int64{1}, true},
		{"a row sum times 3, plus 2⁵³ − 1 − 3·2⁵¹", []int32{0, 2}, []int64{0, 3}, true},
		{"one row summing to 2⁵³", []int32{1}, []int64{1}, false},
		{"a coefficient times a row sum reaching 2⁵³", []int32{2}, []int64{4}, false},
		{"a sum reaching 2⁵³", []int32{0, 2}, []int64{1, 1}, false},
		{"a product past int64", []int32{2}, []int64{1 << 40}, false},
	} {
		got, ok := l1RowSum(sums, c.cols, c.vals)
		if ok != c.ok {
			t.Fatalf("%s: answered %v, want %v", c.name, ok, c.ok)
		}
		if want := lpPow(nz, y, c.cols, c.vals, 1); ok && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: row sums give %v, lpPow %v", c.name, got, want)
		}
	}
	if got, _ := l1RowSum(sums, []int32{0}, []int64{1}); got != float64(big-1) {
		t.Fatalf("2⁵³ − 1 came back as %v", got)
	}
}

// TestBobLpUpdateRowsKeepsRowSums: an update that turns a row of B
// negative marks its sum, one that turns it back restores it, and at
// every step the state's sums — and round-1 bytes — are a fresh
// state's on the same matrix.
func TestBobLpUpdateRowsKeepsRowSums(t *testing.T) {
	o := LpOpts{Eps: 0.5, Seed: 2630}
	b := randomInt(2631, 16, 20, 0.3, 5, true)
	st, err := NewBobLpState(b, 1, o)
	if err != nil {
		t.Fatal(err)
	}
	signed := b.Clone()
	signed.Set(3, 7, -2)
	signed.Set(9, 0, 4)
	for step, next := range []*intmat.Dense{signed, b} {
		if st, err = st.UpdateRows(next, []int{3, 9}); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewBobLpState(next, 1, o)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(st.rowSums, fresh.rowSums) || string(st.round1) != string(fresh.round1) {
			t.Fatalf("step %d: updated sums %v, fresh %v", step, st.rowSums, fresh.rowSums)
		}
		if neg := st.rowSums[3] == -1; neg != (step == 0) {
			t.Fatalf("step %d: row 3's sum is %d", step, st.rowSums[3])
		}
	}
	if p2, _ := NewBobLpState(b, 2, o); p2.rowSums != nil {
		t.Fatal("a p = 2 state kept row sums")
	}
}

// scriptedBob sends msg as round 1 and reads round 2 — or, when Alice
// refused round 1 and hung up, the transport's error.
func scriptedBob(msg *comm.Message) func(comm.Transport) error {
	return func(tr comm.Transport) (err error) {
		defer recoverDecodeError(&err)
		tr.Send(comm.BobToAlice, msg)
		tr.Recv(comm.AliceToBob)
		return nil
	}
}

// round1Rows writes a scripted round 1: reps × n rows of width words
// each (field words at p = 0), every word v, except that the last row's
// last word is last.
func round1Rows(p float64, reps, n, width int, v, last float64) *comm.Message {
	msg := comm.NewMessage()
	for r := 0; r < reps*n; r++ {
		if p == 0 {
			row := make([]uint64, width)
			msg.PutUint64Slice(row)
			continue
		}
		row := make([]float64, width)
		for i := range row {
			row[i] = v
		}
		if r == reps*n-1 && width > 0 {
			row[width-1] = last
		}
		msg.PutFloat64Slice(row)
	}
	return msg
}

// TestAliceLpRefusesMalformedRound1: round 1 is fixed-width rows of
// finite words. A peer whose rows are a word short or long for the
// family, whose payload ends early, or whose float words are NaN or ±Inf
// gets a malformed-message error, not an estimate, at every shard count.
func TestAliceLpRefusesMalformedRound1(t *testing.T) {
	a := randomInt(2640, 20, 12, 0.4, 3, true)
	for _, p := range []float64{0, 1} {
		for _, shards := range []int{1, 2} {
			o := LpOpts{Eps: 0.25, Seed: 2641, Shards: shards}
			st, err := NewAliceLpState(9, p, o)
			if err != nil {
				t.Fatal(err)
			}
			reps, n := len(st.sketchers), a.Cols()
			var width int
			if rs := st.sketchers[0]; p == 0 {
				width = rs.l0.Dim()
			} else {
				width = rs.fl.Dim() // 33 at ε = 0.25
			}
			cases := map[string]*comm.Message{
				"a word short": round1Rows(p, reps, n, width-1, 1, 1),
				"a word long":  round1Rows(p, reps, n, width+1, 1, 1),
				"a row short":  round1Rows(p, reps, n-1, width, 1, 1),
			}
			if p != 0 {
				cases["a NaN word"] = round1Rows(p, reps, n, width, 1, math.NaN())
				cases["a +Inf word"] = round1Rows(p, reps, n, width, 1, math.Inf(1))
				cases["a −Inf word"] = round1Rows(p, reps, n, width, -1, math.Inf(-1))
			}
			for name, msg := range cases {
				_, err := runPair(func(tr comm.Transport) error { return st.Serve(tr, a) }, scriptedBob(msg))
				if err == nil || !strings.Contains(err.Error(), "core: malformed protocol message") {
					t.Errorf("p %g shards %d, %s: %v, want a malformed-message error", p, shards, name, err)
				}
			}
			// The well-formed script of the same shape is served.
			msg := round1Rows(p, reps, n, width, 1, 1)
			if _, err := runPair(func(tr comm.Transport) error { return st.Serve(tr, a) }, scriptedBob(msg)); err != nil {
				t.Errorf("p %g shards %d: well-formed round 1 refused: %v", p, shards, err)
			}
		}
	}
}

// FuzzAliceLpRound1 feeds arbitrary bytes to Alice as round 1: her
// Serve may refuse them or sample from them, but a panic must never
// escape it (on the shard goroutines either: A's 16 rows split in two).
// The shapes keep a well-formed round 1 to a few hundred bytes, so the
// fuzzer's mutations stay cheap to run and to minimize.
func FuzzAliceLpRound1(f *testing.F) {
	a := randomInt(2650, 16, 3, 0.5, 3, false)
	b := randomInt(2651, 3, 4, 0.5, 3, false)
	o := LpOpts{Eps: 1, Reps: 2, SketchC: 2, Seed: 2652, Shards: 2}
	var alices []*AliceLpState
	for i, p := range []float64{0, 0.5, 1, 2} {
		bob, err := NewBobLpState(b, p, o)
		if err != nil {
			f.Fatal(err)
		}
		alices = append(alices, bob.AliceState())
		f.Add(bob.round1, uint8(i))
		f.Add(bob.round1[:len(bob.round1)/2], uint8(i))
	}
	f.Add([]byte{0x80}, uint8(1))
	f.Fuzz(func(t *testing.T, round1 []byte, pi uint8) {
		st := alices[int(pi)%len(alices)]
		runPair(func(tr comm.Transport) error { return st.Serve(tr, a) }, scriptedBob(comm.FromBytes(round1)))
	})
}

// TestSparseRowLenMatchesEncoding: the size Alice grows round 2 to is
// the bytes putSparseRow writes, for gaps and values of every varint
// width (and the empty row).
func TestSparseRowLenMatchesEncoding(t *testing.T) {
	rnd := rand.New(rand.NewSource(2660))
	for trial := 0; trial < 2000; trial++ {
		cols, vals := []int32{0, 1 << 30}, []int64{math.MinInt64, math.MaxInt64}
		if trial > 0 {
			cols, vals = nil, nil
		}
		for c := int32(rnd.Intn(3)); trial > 0 && len(cols) < trial%40; c += 1 + int32(rnd.Int63n(1<<uint(rnd.Intn(20)))) {
			cols = append(cols, c)
			vals = append(vals, rnd.Int63n(1<<uint(rnd.Intn(63)))-rnd.Int63n(1<<uint(rnd.Intn(63))))
		}
		msg := comm.NewMessage()
		putSparseRow(msg, cols, vals)
		if got := sparseRowLen(cols, vals); got != msg.Len() {
			t.Fatalf("row %v %v: sparseRowLen %d, encoding %d bytes", cols, vals, got, msg.Len())
		}
	}
}
