package comm

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// The writers and readers an exchange over mostly-zero vectors is built
// from: the two (gap, word) forms against the dense vectors they stand
// for, and the plain word-by-word forms against encoding/binary.

// putVarints writes the plain slice form of a word vector: a uvarint
// count, then the varints.
func putVarints(m *Message, v []int64) {
	m.PutUvarint(uint64(len(v)))
	for _, x := range v {
		m.PutVarint(x)
	}
}

// varints reads a vector written by putVarints.
func varints(m *Message) []int64 {
	out := make([]int64, m.Uvarint())
	for i := range out {
		out[i] = m.Varint()
	}
	return out
}

// sparseOf lists the non-zero words of a dense vector.
func sparseOf[W int64 | uint64](v []W) (idx []int, words []W) {
	for i, w := range v {
		if w != 0 {
			idx, words = append(idx, i), append(words, w)
		}
	}
	return idx, words
}

// denseOf is sparseOf's inverse at dimension dim.
func denseOf[W int64 | uint64](dim int, idx []int, words []W) []W {
	v := make([]W, dim)
	for x, i := range idx {
		v[i] = words[x]
	}
	return v
}

// uvarintLen is the byte count of v as a uvarint.
func uvarintLen(v uint64) int { return len(binary.AppendUvarint(nil, v)) }

// pairBytes is what the sparse forms must take for the words at idx:
// uvarint(count) + Σ uvarint(gap), plus the varint words or eight bytes
// a word.
func pairBytes(idx []int, words []int64) (varint, fixed int) {
	n, prev := uvarintLen(uint64(len(idx))), -1
	for _, i := range idx {
		n += uvarintLen(uint64(i - prev))
		prev = i
	}
	varint = n
	for _, w := range words {
		varint += len(binary.AppendVarint(nil, w))
	}
	return varint, n + 8*len(idx)
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected a panic", what)
		}
	}()
	f()
}

// TestVarintSingleByteEdges: the one-byte path of PutVarint and Varint
// is binary.AppendVarint's encoding on both sides of its range.
func TestVarintSingleByteEdges(t *testing.T) {
	values := []int64{0, 1, -1, 63, -64, 64, -65, 127, -128, math.MinInt64, math.MaxInt64}
	var want []byte
	m := NewMessage()
	for _, v := range values {
		one := NewMessage()
		one.PutVarint(v)
		if enc := binary.AppendVarint(nil, v); !bytes.Equal(one.Bytes(), enc) {
			t.Fatalf("PutVarint(%d) = %x, binary.AppendVarint gives %x", v, one.Bytes(), enc)
		}
		if (v >= -64 && v <= 63) != (one.Len() == 1) {
			t.Fatalf("PutVarint(%d) took %d bytes", v, one.Len())
		}
		if got := one.Varint(); got != v || one.Remaining() != 0 {
			t.Fatalf("Varint after PutVarint(%d) = %d, %d bytes left", v, got, one.Remaining())
		}
		want = binary.AppendVarint(want, v)
		m.PutVarint(v)
	}
	if !bytes.Equal(m.Bytes(), want) {
		t.Fatal("a run of PutVarint differs from a run of binary.AppendVarint")
	}

	// A payload cut inside a multi-byte varint still panics.
	mustPanic(t, "varint cut after its first byte", func() { FromBytes([]byte{0x80}).Varint() })
	mustPanic(t, "varint on an empty payload", func() { FromBytes(nil).Varint() })
}

// TestUint64SliceForms: PutUint64Slice writes the word-by-word bytes
// whatever share of the words is zero, and the reader refuses a count
// the payload cannot hold.
func TestUint64SliceForms(t *testing.T) {
	for _, v := range [][]uint64{
		nil,
		{0},
		{0, 0, 0, 0},
		{1, 0, math.MaxUint64, 0, 0, 1 << 61, 0},
		{5, 6, 7},
	} {
		m := NewMessage()
		m.PutVarint(-70) // misalign
		m.PutUint64Slice(v)
		m.PutUint64Slice(v) // a second vector lands after the first, not over it
		ref := NewMessage()
		ref.PutVarint(-70)
		for rep := 0; rep < 2; rep++ {
			ref.PutUvarint(uint64(len(v)))
			for _, x := range v {
				ref.PutUint64(x)
			}
		}
		if !bytes.Equal(m.Bytes(), ref.Bytes()) {
			t.Fatalf("PutUint64Slice(%v) = %x, word by word %x", v, m.Bytes(), ref.Bytes())
		}
		m.Varint()
		for rep := 0; rep < 2; rep++ {
			if got := m.Uint64Slice(); !slices.Equal(got, v) {
				t.Fatalf("vector %d read back as %v, want %v", rep, got, v)
			}
		}
		if m.Remaining() != 0 {
			t.Fatalf("%d bytes left", m.Remaining())
		}
	}
	mustPanic(t, "slice count beyond the payload", func() { FromBytes([]byte{2, 1, 2, 3, 4, 5, 6, 7, 8}).Uint64Slice() })
}

// sparseCases are the shapes a sparse vector comes in: empty, a single
// word, a word at the last index (the largest gap the dimension
// allows), every word non-zero (every gap 1), and gaps on both sides of
// one uvarint byte.
func sparseCases() map[string][]int64 {
	last := make([]int64, 300)
	last[299] = -7
	full := make([]int64, 40)
	for i := range full {
		full[i] = int64(i) - 50
	}
	wide := make([]int64, 20000)
	wide[0], wide[127], wide[128], wide[256], wide[16640], wide[19999] = 1, -1, 64, -65, math.MaxInt64, math.MinInt64
	return map[string][]int64{
		"empty-dim0":  {},
		"empty":       make([]int64, 17),
		"single":      {0, 0, 0, 9, 0},
		"first":       {3, 0, 0},
		"last-index":  last,
		"all-nonzero": full,
		"wide-gaps":   wide,
	}
}

// TestSparseFormsRoundTrip: write → read is the identity on both forms,
// two vectors in a row land one after the other, and the byte count is
// exactly uvarint(count) + Σ (uvarint(gap) + word bytes).
func TestSparseFormsRoundTrip(t *testing.T) {
	for name, v := range sparseCases() {
		idx, words := sparseOf(v)
		fixed := make([]uint64, len(words))
		for x, w := range words {
			fixed[x] = uint64(w) // non-zero wherever w is
		}
		wantVar, wantFixed := pairBytes(idx, words)

		m := NewMessage()
		m.PutUvarint(300) // misalign
		m.PutSparseVarints(idx, words)
		if m.Len() != 2+wantVar {
			t.Fatalf("%s: varint form took %d bytes, the pairs come to %d", name, m.Len()-2, wantVar)
		}
		m.PutSparseUint64s(idx, fixed)
		if m.Len() != 2+wantVar+wantFixed {
			t.Fatalf("%s: fixed form took %d bytes, the pairs come to %d", name, m.Len()-2-wantVar, wantFixed)
		}
		m.PutSparseVarints(idx, words)

		m.Uvarint()
		gotIdx, gotWords := m.AppendSparseVarints(len(v), nil, nil)
		if !slices.Equal(denseOf(len(v), gotIdx, gotWords), v) || !slices.Equal(gotIdx, idx) {
			t.Fatalf("%s: varint form read back %v %v", name, gotIdx, gotWords)
		}
		fIdx, fWords := m.AppendSparseUint64s(len(v), nil, nil)
		if !slices.Equal(fIdx, idx) || !slices.Equal(fWords, fixed) {
			t.Fatalf("%s: fixed form read back %v %v", name, fIdx, fWords)
		}
		// The second varint vector lands on the end of the first's block.
		gotIdx, gotWords = m.AppendSparseVarints(len(v), gotIdx, gotWords)
		if len(gotIdx) != 2*len(idx) || !slices.Equal(gotIdx[len(idx):], idx) || !slices.Equal(gotWords[len(idx):], words) {
			t.Fatalf("%s: appended read %v %v", name, gotIdx, gotWords)
		}
		if m.Remaining() != 0 {
			t.Fatalf("%s: %d bytes left", name, m.Remaining())
		}
	}
}

// TestSparseFormsWorstCase pins the cost statement of DESIGN.md's
// "Encodings": with every word non-zero and one byte long the varint
// form is its count plus 2× the dense form's words, the field form its
// count plus 9⁄8 of them (≤ 1.25× with the prefixes); the dense form is
// the shorter one only above ½ and 8⁄9 fill.
func TestSparseFormsWorstCase(t *testing.T) {
	const dim = 1000
	for _, fill := range []int{dim / 2, dim/2 + 1, dim * 8 / 9, dim*8/9 + 1, dim} {
		idx, small, field := make([]int, fill), make([]int64, fill), make([]uint64, fill)
		for x := range idx {
			idx[x], small[x], field[x] = x*dim/fill, -1, 1<<61-2
		}
		sv, sf := NewMessage(), NewMessage()
		sv.PutSparseVarints(idx, small)
		sf.PutSparseUint64s(idx, field)
		// Count and length prefixes are both two bytes here and cancel.
		denseVar, denseFixed := 2+dim, 2+8*dim
		if fill <= dim/2 && sv.Len() > denseVar {
			t.Errorf("fill %d/%d: varint pairs %d B, dense %d B: the dense form must not win at or below ½", fill, dim, sv.Len(), denseVar)
		}
		if fill > dim/2 && sv.Len() <= denseVar {
			t.Errorf("fill %d/%d: varint pairs %d B, dense %d B: the dense form wins above ½", fill, dim, sv.Len(), denseVar)
		}
		if fill <= dim*8/9 && sf.Len() > denseFixed {
			t.Errorf("fill %d/%d: field pairs %d B, dense %d B: the dense form must not win at or below 8⁄9", fill, dim, sf.Len(), denseFixed)
		}
		if fill > dim*8/9 && sf.Len() <= denseFixed {
			t.Errorf("fill %d/%d: field pairs %d B, dense %d B: the dense form wins above 8⁄9", fill, dim, sf.Len(), denseFixed)
		}
		if fill == dim {
			if sv.Len() != 2+2*dim || sf.Len() != 2+9*dim {
				t.Errorf("full vectors: %d and %d bytes, want %d and %d", sv.Len(), sf.Len(), 2+2*dim, 2+9*dim)
			}
			if float64(sv.Len()) > 2*float64(denseVar) || float64(sf.Len()) > 1.25*float64(denseFixed) {
				t.Errorf("full vectors cost %d / %d bytes against %d / %d dense: beyond 2× / 1.25×", sv.Len(), sf.Len(), denseVar, denseFixed)
			}
		}
	}
}

// TestSparseReadersRefuse: what a peer can get wrong in a sparse vector,
// each refused before anything is sized from it. Both readers share the
// count and gap checks; the word checks are per form.
func TestSparseReadersRefuse(t *testing.T) {
	word := []byte{5, 0, 0, 0, 0, 0, 0, 0}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	readers := map[string]struct {
		read func(*Message, int)
		word []byte // one non-zero word
		zero []byte // the zero word
	}{
		"varint": {func(m *Message, dim int) { m.AppendSparseVarints(dim, nil, nil) }, []byte{5}, []byte{0}},
		"fixed":  {func(m *Message, dim int) { m.AppendSparseUint64s(dim, nil, nil) }, word, make([]byte, 8)},
	}
	for name, r := range readers {
		bad := map[string]struct {
			dim     int
			payload []byte
		}{
			"count beyond the dimension":     {2, cat([]byte{3, 1}, r.word, []byte{1}, r.word, []byte{1}, r.word)},
			"count beyond the payload":       {1 << 30, cat([]byte{0xff, 0xff, 0xff, 0x7f, 1}, r.word)},
			"count of 2^63":                  {1 << 30, []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}},
			"index at the dimension":         {4, cat([]byte{1, 5}, r.word)},
			"second gap past the dimension":  {4, cat([]byte{2, 2}, r.word, []byte{3}, r.word)},
			"gap of 2^63":                    {4, cat([]byte{1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, r.word)},
			"zero gap":                       {4, cat([]byte{2, 1}, r.word, []byte{0}, r.word)},
			"zero gap first":                 {4, cat([]byte{1, 0}, r.word)},
			"zero word":                      {4, cat([]byte{1, 1}, r.zero)},
			"truncated pair":                 {4, cat([]byte{2, 1}, r.word, []byte{1})},
			"truncated word":                 {4, cat([]byte{1, 1}, r.word[:len(r.word)-1])},
			"a word in a vector of no words": {0, cat([]byte{1, 1}, r.word)},
			"negative dimension":             {-1, []byte{0}},
			"empty payload":                  {4, nil},
		}
		for what, c := range bad {
			if len(r.word) == 1 && what == "truncated word" {
				continue // a one-byte word cut short is the truncated pair
			}
			mustPanic(t, name+": "+what, func() { r.read(FromBytes(c.payload), c.dim) })
		}
		// The same bytes with the fault taken out are read.
		m := FromBytes(cat([]byte{2, 1}, r.word, []byte{3}, r.word, []byte{9}))
		r.read(m, 4)
		if m.Remaining() != 1 {
			t.Fatalf("%s: a well-formed vector left %d bytes, want the 1 that follows it", name, m.Remaining())
		}
	}
	// Writers refuse what the readers would: the form is canonical.
	mustPanic(t, "writer: zero word", func() { NewMessage().PutSparseVarints([]int{1}, []int64{0}) })
	mustPanic(t, "writer: zero field word", func() { NewMessage().PutSparseUint64s([]int{1}, []uint64{0}) })
	mustPanic(t, "writer: repeated index", func() { NewMessage().PutSparseVarints([]int{1, 1}, []int64{2, 3}) })
	mustPanic(t, "writer: descending indices", func() { NewMessage().PutSparseUint64s([]int{4, 2}, []uint64{2, 3}) })
	mustPanic(t, "writer: unequal lengths", func() { NewMessage().PutSparseVarints([]int{1, 2}, []int64{2}) })
}

// TestGrowKeepsPayload: Grow changes capacity only.
func TestGrowKeepsPayload(t *testing.T) {
	m := NewMessage()
	m.PutUvarint(300)
	before := append([]byte(nil), m.Bytes()...)
	m.Grow(1 << 16)
	if !bytes.Equal(m.Bytes(), before) || cap(m.buf)-len(m.buf) < 1<<16 {
		t.Fatalf("Grow left %x with %d spare bytes", m.Bytes(), cap(m.buf)-len(m.buf))
	}
	for i := 0; i < 1<<13; i++ {
		m.PutUint64(0)
	}
	if m.Len() != len(before)+1<<16 {
		t.Fatalf("Len after 2^13 words = %d", m.Len())
	}
}
