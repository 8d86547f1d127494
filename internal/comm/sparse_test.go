package comm

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// The writers and readers an exchange over mostly-zero vectors is built
// from: each must produce, or accept, exactly the bytes of the plain
// word-by-word form.

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

// TestPutZerosSkipZeros: PutZeros(n) is n zero varints; SkipZeros stops
// at the limit, at the first non-zero byte, and at the end of the
// payload, whichever comes first, for runs on both sides of its 8-byte
// stride.
func TestPutZerosSkipZeros(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 64, 1000} {
		m := NewMessage()
		m.PutUvarint(7) // misalign the run
		m.PutZeros(n)
		m.PutVarint(-3)
		if want := append(append([]byte{7}, make([]byte, n)...), 5); !bytes.Equal(m.Bytes(), want) {
			t.Fatalf("PutZeros(%d) wrote %x", n, m.Bytes())
		}
		for _, limit := range []int{0, 1, n - 1, n, n + 1, n + 100} {
			if limit < 0 {
				continue
			}
			m.pos = 0
			m.Uvarint()
			want := min(limit, n)
			if got := m.SkipZeros(limit); got != want {
				t.Fatalf("run of %d zeros: SkipZeros(%d) = %d, want %d", n, limit, got, want)
			}
			if m.Remaining() != n-want+1 {
				t.Fatalf("run of %d zeros: SkipZeros(%d) left the cursor %d bytes from the end", n, limit, m.Remaining())
			}
		}
		// Past the end of the payload there is nothing to skip.
		tail := FromBytes(make([]byte, n))
		if got := tail.SkipZeros(n + 8); got != n || tail.Remaining() != 0 {
			t.Fatalf("SkipZeros over an all-zero %d-byte payload = %d", n, got)
		}
	}
}

// TestUint64SliceForms: PutUint64Slice writes the word-by-word bytes
// whatever share of the words is zero, Uint64SliceRaw hands back exactly
// the words' bytes, and both readers refuse a count the payload cannot
// hold.
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
		raw := m.Uint64SliceRaw()
		if len(raw) != 8*len(v) {
			t.Fatalf("Uint64SliceRaw returned %d bytes for %d words", len(raw), len(v))
		}
		for i, x := range v {
			if got := binary.LittleEndian.Uint64(raw[8*i:]); got != x {
				t.Fatalf("raw word %d = %d, want %d", i, got, x)
			}
		}
		if got := m.Uint64Slice(); len(got) != len(v) || m.Remaining() != 0 {
			t.Fatalf("second vector: %d words, %d bytes left", len(got), m.Remaining())
		}
	}
	mustPanic(t, "raw slice count beyond the payload", func() { FromBytes([]byte{2, 1, 2, 3, 4, 5, 6, 7, 8}).Uint64SliceRaw() })
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
	m.PutZeros(1 << 16)
	if m.Len() != len(before)+1<<16 {
		t.Fatalf("Len after PutZeros = %d", m.Len())
	}
}
