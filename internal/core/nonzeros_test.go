package core

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/intmat"
	"repro/internal/rng"
	"repro/internal/sketch"
)

// The message builders and readers that follow the non-zeros, each
// against the dense layout it replaced — kept here as the reference: the
// sparse message must decode, word for word, to what the dense one
// decodes to — and the checks on what an untrusted peer puts in those
// messages.

// denseFactor is the compressed factor of b as the dense word array of
// ts.CompressedSize() words the message lays out: the reach of every row
// under every repetition, written at its place and zero elsewhere. (That
// the words are the dense ColCompress's is package sketch's to pin, next
// to the reference it keeps.)
func denseFactor(ts *sketch.TensorCS, b *intmat.Dense) []int64 {
	words := make([]int64, ts.CompressedSize())
	rc, nz := ts.NewRowCompressor(), intmat.FromDense(b)
	for rep := 0; rep < ts.Reps(); rep++ {
		for k := 0; k < b.Rows(); k++ {
			cols, vals := nz.Row(k)
			buckets, ws := rc.Row(rep, cols, vals)
			for x, v := range buckets {
				words[(rep*b.Rows()+k)*ts.GridSide()+int(v)] = ws[x]
			}
		}
	}
	return words
}

// putVarintSlice writes the plain form of a word vector: its length,
// then one varint per word.
func putVarintSlice(m *comm.Message, words []int64) {
	m.PutUvarint(uint64(len(words)))
	for _, w := range words {
		m.PutVarint(w)
	}
}

// scatter lays sparse words out as the dense vector of dimension dim.
func scatter[W int64 | uint64](dim int, idx []int, words []W) []W {
	v := make([]W, dim)
	for x, i := range idx {
		v[i] = words[x]
	}
	return v
}

// TestCompressedFactorBytesMatchDenseForm: putCompressedFactor's message
// decodes to the words the dense layout's message (a length, one varint
// per word) decodes to, never costs more than 2× of it, and Alice's read
// recovers from it what a word-by-word read of the dense form recovers —
// over signed values, one-byte and multi-byte words, buckets that
// cancel, empty rows, rectangular shapes, odd and even repetition
// counts, and a sketch too small for the product.
func TestCompressedFactorBytesMatchDenseForm(t *testing.T) {
	cases := []struct {
		name             string
		rows, inner, col int
		density          float64
		maxAbs           int64
		s                int
	}{
		{"signed", 24, 24, 24, 0.15, 3, 120},
		{"unit-values-cancel", 30, 30, 30, 0.3, 1, 4},
		{"multi-byte", 16, 20, 18, 0.2, 1 << 40, 80},
		{"edge-of-one-byte", 16, 20, 18, 0.1, 70, 80},
		{"wide", 7, 40, 33, 0.1, 3, 40},
		{"tall", 20, 30, 12, 0.1, 3, 40},
		{"undersized", 40, 40, 40, 0.1, 3, 1},
		{"empty", 9, 9, 9, 0, 1, 1},
	}
	for ci, c := range cases {
		for _, reps := range []int{1, 4, 5, 11} {
			t.Run(fmt.Sprintf("%s/reps=%d", c.name, reps), func(t *testing.T) {
				a := randomInt(uint64(3000+ci), c.rows, c.inner, c.density, c.maxAbs, false)
				b := randomInt(uint64(3100+ci), c.inner, c.col, c.density, c.maxAbs, false)
				for x := 0; x < c.col; x++ {
					b.Set(c.inner/2, x, 0) // a row of B without non-zeros
				}
				ts := sketch.NewTensorCS(rng.New(uint64(3200+ci)), c.rows, c.inner, c.col, c.s, reps)

				ref := comm.NewMessage()
				putVarintSlice(ref, denseFactor(ts, b))
				words := make([]int64, ref.Uvarint())
				for i := range words {
					words[i] = ref.Varint()
				}
				got := comm.NewMessage()
				putCompressedFactor(got, ts, intmat.FromDense(b))
				if got.Len() > 2*ref.Len() {
					t.Fatalf("payload of %d bytes against the dense form's %d: beyond the 2× worst case", got.Len(), ref.Len())
				}
				idx, ws := comm.FromBytes(got.Bytes()).AppendSparseVarints(len(words), nil, nil)
				if !slices.Equal(scatter(len(words), idx, ws), words) {
					t.Fatal("the sparse message does not decode to the dense message's words")
				}

				conn := comm.NewConn()
				recovered := ts.Recover(intmat.FromDense(a), readCompressedFactor(conn.Send(comm.BobToAlice, got), ts))
				if got.Remaining() != 0 {
					t.Fatalf("the read left %d bytes", got.Remaining())
				}
				plain := ts.NewFactor()
				for idx, w := range words {
					plain.Add(idx, w)
				}
				dense := ts.Recover(intmat.FromDense(a), plain)
				if len(recovered) != len(dense) {
					t.Fatalf("recovered %d entries, the dense pipeline %d", len(recovered), len(dense))
				}
				for x := range dense {
					if recovered[x] != dense[x] {
						t.Fatalf("entry %d: %+v, the dense pipeline has %+v", x, recovered[x], dense[x])
					}
				}
			})
		}
	}
}

// wantMalformed runs Bob's driver against a scripted Alice and requires
// the malformed-message error.
func wantMalformed(t *testing.T, what string, alice, bob func(comm.Transport) error) {
	t.Helper()
	_, err := runPair(alice, bob)
	if err == nil || !strings.Contains(err.Error(), "malformed protocol message") {
		t.Fatalf("%s: got %v, want a malformed-message error", what, err)
	}
}

// swapSend is Bob's transport with his nth message replaced on its way
// out.
type swapSend struct {
	comm.Transport
	nth  int
	swap func(*comm.Message) *comm.Message
}

func (s *swapSend) Send(dir comm.Direction, msg *comm.Message) *comm.Message {
	if s.nth--; s.nth == 0 {
		msg = s.swap(msg)
	}
	return s.Transport.Send(dir, msg)
}

// TestCompressedFactorRejectsWrongSize: Alice sizes the factor from her
// own sketch and refuses whatever does not fit it — a count with too
// few or too many pairs behind it, an index at or past the sketch's
// word count, a zero word or gap, a cut payload, bytes after the last
// pair, the dense layout — first at the reader, then through the
// driver, where the refusal is the request's error.
func TestCompressedFactorRejectsWrongSize(t *testing.T) {
	a := randomInt(3300, 12, 12, 0.3, 3, true)
	b := randomInt(3301, 12, 12, 0.3, 3, true)
	// raw writes a count and the pairs as they come, canonical or not.
	raw := func(count int, idx []int, words []int64) *comm.Message {
		m := comm.NewMessage()
		m.PutUvarint(uint64(count))
		prev := -1
		for x, i := range idx {
			m.PutUvarint(uint64(i - prev))
			m.PutVarint(words[x])
			prev = i
		}
		return m
	}
	type edit func(size int, idx []int, words []int64) *comm.Message
	unedited := func(_ int, idx []int, words []int64) *comm.Message { return raw(len(idx), idx, words) }
	edits := map[string]edit{
		"count one above the pairs": func(_ int, idx []int, words []int64) *comm.Message { return raw(len(idx)+1, idx, words) },
		"count one below the pairs": func(_ int, idx []int, words []int64) *comm.Message { return raw(len(idx)-1, idx, words) },
		"count beyond the payload":  func(_ int, idx []int, words []int64) *comm.Message { return raw(1<<50, idx, words) },
		"last index at the word count": func(size int, idx []int, words []int64) *comm.Message {
			idx[len(idx)-1] = size
			return raw(len(idx), idx, words)
		},
		"a gap that runs far past the sketch": func(_ int, idx []int, words []int64) *comm.Message {
			idx[len(idx)-1] = 1 << 50
			return raw(len(idx), idx, words)
		},
		"zero word": func(_ int, idx []int, words []int64) *comm.Message {
			words[2] = 0
			return raw(len(idx), idx, words)
		},
		"zero gap": func(_ int, idx []int, words []int64) *comm.Message {
			idx[2] = idx[1]
			return raw(len(idx), idx, words)
		},
		"trailing byte": func(_ int, idx []int, words []int64) *comm.Message {
			m := raw(len(idx), idx, words)
			m.PutUvarint(0)
			return m
		},
		"cut in half": func(_ int, idx []int, words []int64) *comm.Message {
			m := raw(len(idx), idx, words)
			return comm.FromBytes(m.Bytes()[:m.Len()/2])
		},
		"the dense layout": func(_ int, idx []int, words []int64) *comm.Message {
			m := comm.NewMessage()
			putVarintSlice(m, scatter(idx[len(idx)-1]+1, idx, words)) // cut after the last non-zero word
			return m
		},
	}
	// rewrite decodes Bob's factor at dimension size and sends what e
	// makes of it.
	rewrite := func(size int, e edit) func(*comm.Message) *comm.Message {
		return func(good *comm.Message) *comm.Message {
			idx, words := good.AppendSparseVarints(size, nil, nil)
			if len(idx) < 4 {
				t.Fatalf("the factor under test has %d words", len(idx))
			}
			return e(size, idx, words)
		}
	}

	// At the reader: the message is the factor and nothing else.
	ts := sketch.NewTensorCS(rng.New(3303), a.Rows(), b.Rows(), b.Cols(), 40, 5)
	read := func(e edit) (refused any) {
		defer func() { refused = recover() }()
		good := comm.NewMessage()
		putCompressedFactor(good, ts, intmat.FromDense(b))
		recv := rewrite(ts.CompressedSize(), e)(good)
		readCompressedFactor(recv, ts)
		if recv.Remaining() != 0 {
			panic("trailing bytes")
		}
		return nil
	}
	if r := read(unedited); r != nil {
		t.Fatalf("Bob's own factor, decoded and re-encoded: %v", r)
	}
	for name, e := range edits {
		if read(e) == nil {
			t.Fatalf("%s: the reader accepted it", name)
		}
	}

	// Through the driver, where the refusal is the request's error. The
	// sketch's size is private to the run, so the rewrite decodes at a
	// dimension nothing reaches.
	o := HHOpts{Phi: 0.2, Eps: 0.1, Seed: 3302}
	serve := func(e edit) error {
		_, err := runPair(
			func(tr comm.Transport) error { return AliceHH(tr, a, b.Cols(), true, o) },
			func(tr comm.Transport) error {
				_, err := BobHH(&swapSend{Transport: tr, nth: 2, swap: rewrite(1<<40, e)}, b, a.Rows(), true, o)
				return err
			})
		return err
	}
	if err := serve(unedited); err != nil {
		t.Fatalf("Bob's own factor, decoded and re-encoded: %v", err)
	}
	for name, e := range edits {
		if err := serve(e); err == nil || !strings.Contains(err.Error(), "malformed protocol message") {
			t.Fatalf("%s: AliceHH returned %v, want a malformed-message error", name, err)
		}
	}
}

// TestHHServeRefusesForeignCandidates: message 4 names entries of an
// m1×m2 product in ascending order; Bob used to append whatever indices
// it carried.
func TestHHServeRefusesForeignCandidates(t *testing.T) {
	const m1, n, m2 = 16, 16, 16
	b := randomInt(3401, n, m2, 0.3, 3, true)
	o := HHOpts{Phi: 0.2, Eps: 0.1, Seed: 3402}
	type cand struct {
		i, j uint64
		v    int64
	}
	script := func(count uint64, cands ...cand) func(comm.Transport) error {
		return func(tr comm.Transport) error {
			msg1 := comm.NewMessage()
			for k := 0; k < n; k++ {
				msg1.PutUvarint(1)
			}
			tr.Send(comm.AliceToBob, msg1)
			tr.Recv(comm.BobToAlice)
			tr.Recv(comm.BobToAlice)
			msg4 := comm.NewMessage()
			msg4.PutUvarint(count)
			for _, c := range cands {
				msg4.PutUvarint(c.i)
				msg4.PutUvarint(c.j)
				msg4.PutVarint(c.v)
			}
			tr.Send(comm.AliceToBob, msg4)
			return nil
		}
	}
	for _, shards := range []int{1, 2} {
		o.Shards = shards
		st, err := NewBobHHState(b, o)
		if err != nil {
			t.Fatal(err)
		}
		bob := func(tr comm.Transport) error { _, err := st.Serve(tr, m1, true); return err }
		wantMalformed(t, "row and column outside the product", script(1, cand{999, 12345, 1 << 40}), bob)
		wantMalformed(t, "row m1", script(1, cand{m1, 0, 1 << 40}), bob)
		wantMalformed(t, "column m2", script(1, cand{0, m2, 1 << 40}), bob)
		wantMalformed(t, "more candidates than cells", script(m1*m2+1), bob)
		wantMalformed(t, "the same entry twice", script(2, cand{3, 4, 1 << 40}, cand{3, 4, 1 << 40}), bob)
		wantMalformed(t, "columns descending", script(2, cand{3, 4, 1 << 40}, cand{3, 2, 1 << 40}), bob)
		wantMalformed(t, "rows descending", script(2, cand{3, 4, 1 << 40}, cand{2, 9, 1 << 40}), bob)
		wantMalformed(t, "count beyond the payload", script(3, cand{3, 4, 1 << 40}), bob)

		// The same script in order is served: both heavy candidates come
		// back, rescaled.
		var out []WeightedPair
		_, err = runPair(script(2, cand{3, 4, 1 << 40}, cand{m1 - 1, m2 - 1, -(1 << 40)}),
			func(tr comm.Transport) (err error) { out, err = st.Serve(tr, m1, true); return err })
		if err != nil || len(out) != 2 || out[0].I != 3 || out[0].J != 4 || out[1].I != m1-1 || out[1].J != m2-1 {
			t.Fatalf("in-order candidates: %v, %v", out, err)
		}
	}
}

// putDenseL0Message writes round 1 of Theorem 3.2 in the dense layout
// the sparse one replaced — per column of A, both sketches as a length
// and every word, eight bytes each — by gathering the column and
// applying the sketches to it.
func putDenseL0Message(m *comm.Message, a *intmat.Dense, l0 *sketch.L0, sampler *sketch.L0Sampler) {
	col := make([]int64, a.Rows())
	for k := 0; k < a.Cols(); k++ {
		for i := range col {
			col[i] = a.Get(i, k)
		}
		m.PutUint64Slice(l0.Apply(col))
		m.PutUint64Slice(sampler.Apply(col))
	}
}

// TestL0SampleServeChecksVectorLengths: every received vector is read at
// its sketch's dimension, Bob's own, so a vector cannot be longer than
// its sketch; a count past the pairs, an index at the dimension, a zero
// word, a missing vector or bytes after the last one are all refused as
// malformed. (In the dense layout short vectors were once combined as
// far as they reached and reported as a failed sample; long ones
// reached an index panic inside a shard.)
func TestL0SampleServeChecksVectorLengths(t *testing.T) {
	const m1, n = 12, 10
	b := randomInt(3500, n, 14, 0.4, 3, false)
	a := randomInt(3502, m1, n, 0.4, 3, false)
	for _, shards := range []int{1, 2} {
		o := L0SampleOpts{Eps: 0.5, Seed: 3501, Shards: shards}
		st, err := NewBobL0SampleState(b, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.setDefaults(); err != nil {
			t.Fatal(err)
		}
		l0, sampler := l0SampleSketches(o, m1)
		// script sends 2·vectors vectors, all empty but the norm sketch and
		// the sampler sketch of badColumn, which are written by norm and
		// samp, then tail.
		type put func(m *comm.Message, dim int)
		empty := func(m *comm.Message, _ int) { m.PutUvarint(0) }
		script := func(vectors, badColumn int, norm, samp put, tail ...byte) func(comm.Transport) error {
			return func(tr comm.Transport) error {
				msg := comm.NewMessage()
				for k := 0; k < vectors; k++ {
					if k == badColumn {
						norm(msg, l0.Dim())
						samp(msg, sampler.Dim())
						continue
					}
					empty(msg, 0)
					empty(msg, 0)
				}
				for _, b := range tail {
					msg.PutUvarint(uint64(b))
				}
				tr.Send(comm.AliceToBob, msg)
				return nil
			}
		}
		wordAt := func(offset int) put { // one word at dim+offset
			return func(m *comm.Message, dim int) {
				m.PutUvarint(1)
				m.PutUvarint(uint64(dim + offset + 1))
				m.PutUint64(77)
			}
		}
		bob := func(tr comm.Transport) error { _, _, err := st.Serve(tr, m1); return err }
		wantMalformed(t, "norm index at the dimension", script(n, 0, wordAt(0), empty), bob)
		wantMalformed(t, "sampler index at the dimension", script(n, 2, empty, wordAt(0)), bob)
		wantMalformed(t, "sampler index far past the dimension", script(n, n-1, empty, wordAt(1<<40)), bob)
		wantMalformed(t, "count past the pairs", script(n, 4, func(m *comm.Message, _ int) { m.PutUvarint(2); m.PutUvarint(1); m.PutUint64(77) }, empty), bob)
		wantMalformed(t, "count past the dimension", script(n, 4, func(m *comm.Message, dim int) { m.PutUvarint(uint64(dim + 1)) }, empty), bob)
		wantMalformed(t, "zero word", script(n, 5, func(m *comm.Message, _ int) { m.PutUvarint(1); m.PutUvarint(1); m.PutUint64(0) }, empty), bob)
		wantMalformed(t, "zero gap", script(n, 5, empty, func(m *comm.Message, _ int) { m.PutUvarint(1); m.PutUvarint(0); m.PutUint64(77) }), bob)
		wantMalformed(t, "truncated word", script(n, n-1, empty, func(m *comm.Message, _ int) { m.PutUvarint(1); m.PutUvarint(1); m.PutUvarint(77) }), bob)
		wantMalformed(t, "one column short", script(n-1, -1, empty, empty), bob)
		wantMalformed(t, "one vector short", script(n, n-1, empty, func(*comm.Message, int) {}), bob)
		wantMalformed(t, "a trailing byte", script(n, -1, empty, empty, 0), bob)
		wantMalformed(t, "one column too many", script(n+1, -1, empty, empty), bob)
		wantMalformed(t, "the dense layout", func(tr comm.Transport) error {
			msg := comm.NewMessage()
			putDenseL0Message(msg, a, l0, sampler)
			tr.Send(comm.AliceToBob, msg)
			return nil
		}, bob)
		// Words in range are combined, not refused: the last index of each
		// family, in a message about nothing decodable.
		if _, err := runPair(script(n, 3, wordAt(-1), wordAt(-1)), bob); err != nil && err != ErrSampleFailed {
			t.Fatalf("words at the last indices: %v", err)
		}
		// All-empty vectors are a well-formed message about an empty
		// product.
		if _, err := runPair(script(n, -1, empty, empty), bob); err != ErrSampleFailed {
			t.Fatalf("well-formed zero sketches: %v, want ErrSampleFailed", err)
		}
	}
}

// TestAliceL0SampleMessageMatchesColumnGather: round 1 built from A's
// non-zeros by column decodes, vector for vector and word for word, to
// what the dense layout's message — every column gathered, both
// sketches applied to it — decodes to; it is fully consumed by 2n reads
// at the sketches' dimensions, and never costs more than 1.25× the
// dense message.
func TestAliceL0SampleMessageMatchesColumnGather(t *testing.T) {
	holes := randomInt(3602, 20, 18, 0.3, 3, false)
	for i := 0; i < holes.Rows(); i++ {
		holes.Set(i, 0, 0)
		holes.Set(i, 7, 0)
		holes.Set(i, 17, 0)
	}
	for name, a := range map[string]*intmat.Dense{
		"sparse":       randomInt(3600, 30, 26, 0.05, 3, true),
		"dense":        randomInt(3601, 14, 12, 1, 2, true),
		"signed":       randomInt(3603, 20, 18, 0.3, 1<<40, false),
		"cancelling":   randomInt(3604, 40, 6, 0.9, 1, false), // ±1 columns: 1-sparse cells whose value sums cancel
		"zero-columns": holes,
		"zero":         intmat.NewDense(9, 11),
	} {
		for _, eps := range []float64{0.5, 0.25} {
			o := L0SampleOpts{Eps: eps, Seed: 3610}
			conn := comm.NewConn()
			if err := AliceL0Sample(conn, a, o); err != nil {
				t.Fatal(err)
			}
			got := conn.Recv(comm.AliceToBob)

			if err := o.setDefaults(); err != nil {
				t.Fatal(err)
			}
			l0, sampler := l0SampleSketches(o, a.Rows())
			want := comm.NewMessage()
			putDenseL0Message(want, a, l0, sampler)
			if 4*got.Len() > 5*want.Len() {
				t.Fatalf("%s, ε = %v: message of %d bytes against the dense layout's %d: beyond 1.25×", name, eps, got.Len(), want.Len())
			}
			cancelled := 0
			for v := 0; v < 2*a.Cols(); v++ {
				dense := want.Uint64Slice()
				idx, words := got.AppendSparseUint64s(len(dense), nil, nil)
				if !slices.Equal(scatter(len(dense), idx, words), dense) {
					t.Fatalf("%s, ε = %v: vector %d decodes to other words than the dense layout's", name, eps, v)
				}
				if v%2 == 1 { // sampler cells are (Sum, IxSum, Finger) triples
					for x := 0; x < len(dense); x += 3 {
						if dense[x] == 0 && dense[x+1] != 0 {
							cancelled++
						}
					}
				}
			}
			if got.Remaining() != 0 || want.Remaining() != 0 {
				t.Fatalf("%s, ε = %v: %d bytes left, %d in the dense layout", name, eps, got.Remaining(), want.Remaining())
			}
			if name == "cancelling" && cancelled == 0 {
				t.Fatalf("ε = %v: no reached word cancelled; the case does not cover the zero-word skip", eps)
			}
		}
	}
}

// TestL0SampleShardsAgree: Bob's in-place combine returns one sample
// whatever the shard count.
func TestL0SampleShardsAgree(t *testing.T) {
	a := randomInt(3700, 24, 20, 0.2, 3, false)
	b := randomInt(3701, 20, 28, 0.2, 3, false)
	type sample struct {
		p Pair
		v int64
	}
	var first sample
	for _, shards := range []int{1, 2, 4} {
		p, v, _, err := SampleL0(a, b, L0SampleOpts{Eps: 0.25, Seed: 3702, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if c := a.Mul(b); c.Get(p.I, p.J) != v || v == 0 {
			t.Fatalf("shards %d: sample (%d, %d) = %d, the product has %d", shards, p.I, p.J, v, c.Get(p.I, p.J))
		}
		if shards == 1 {
			first = sample{p, v}
		} else if got := (sample{p, v}); got != first {
			t.Fatalf("shards %d sampled %+v, sequential %+v", shards, got, first)
		}
	}
}

// TestBobHHStateListsFollowUpdates: the non-zero lists a served hh state
// compresses from are the rebuilt state's after a chain of row updates
// — emptied rows, refilled rows, a sign flip there and back — and so is
// the factor they produce.
func TestBobHHStateListsFollowUpdates(t *testing.T) {
	b := randomInt(3800, 20, 22, 0.2, 3, true)
	o := HHOpts{Phi: 0.2, Eps: 0.1, Seed: 3801}
	st, err := NewBobHHState(b, o)
	if err != nil {
		t.Fatal(err)
	}
	cur := b
	for step, rows := range [][]int{{0}, {5, 19}, {5}, {7, 7, 2}} {
		next := patchIntRows(uint64(3810+step), cur, rows, 3, step != 1)
		if step == 0 {
			for j := 0; j < next.Cols(); j++ {
				next.Set(0, j, 0) // a row emptied
			}
		}
		if st, err = st.UpdateRows(next, rows); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewBobHHState(next, o)
		if err != nil {
			t.Fatal(err)
		}
		if st.nz.Rows() != fresh.nz.Rows() || st.Bytes() != fresh.Bytes() || st.tot.nSigned != fresh.tot.nSigned {
			t.Fatalf("step %d: %d rows / %d bytes / %d signed rows, rebuilt %d / %d / %d", step,
				st.nz.Rows(), st.Bytes(), st.tot.nSigned, fresh.nz.Rows(), fresh.Bytes(), fresh.tot.nSigned)
		}
		for k := 0; k < fresh.nz.Rows(); k++ {
			cols, vals := st.nz.Row(k)
			fcols, fvals := fresh.nz.Row(k)
			if !slices.Equal(cols, fcols) || !slices.Equal(vals, fvals) {
				t.Fatalf("step %d: row %d lists %v %v, rebuilt %v %v", step, k, cols, vals, fcols, fvals)
			}
		}
		if !reflect.DeepEqual(st.tot, fresh.tot) {
			t.Fatalf("step %d: row totals diverged", step)
		}
		ts := hhTensorSketch(st.opts, 16, next.Rows(), next.Cols(), 1, 500)
		mu, mf := comm.NewMessage(), comm.NewMessage()
		putCompressedFactor(mu, ts, st.nz)
		putCompressedFactor(mf, ts, fresh.nz)
		if !bytes.Equal(mu.Bytes(), mf.Bytes()) {
			t.Fatalf("step %d: the updated state's factor differs from the rebuilt state's", step)
		}
		cur = next
	}
}
