package comm

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// Fuzz targets for the wire encodings: writers followed by readers must
// round-trip, and readers on arbitrary bytes must either decode or
// panic — never read out of bounds or loop.

func FuzzVarintRoundTrip(f *testing.F) {
	f.Add(int64(0), uint64(0))
	f.Add(int64(-1), uint64(1))
	f.Add(int64(1<<62), uint64(1<<63))
	f.Add(int64(-64), uint64(127))
	f.Add(int64(-65), uint64(128))
	f.Add(int64(63), uint64(0))
	f.Add(int64(64), uint64(0))
	f.Fuzz(func(t *testing.T, sv int64, uv uint64) {
		m := NewMessage()
		m.PutVarint(sv)
		m.PutUvarint(uv)
		if want := binary.AppendUvarint(binary.AppendVarint(nil, sv), uv); !bytes.Equal(m.Bytes(), want) {
			t.Fatalf("PutVarint(%d), PutUvarint(%d) = %x, encoding/binary gives %x", sv, uv, m.Bytes(), want)
		}
		m.pos = 0
		if got := m.Varint(); got != sv {
			t.Fatalf("varint %d != %d", got, sv)
		}
		if got := m.Uvarint(); got != uv {
			t.Fatalf("uvarint %d != %d", got, uv)
		}
		if m.Remaining() != 0 {
			t.Fatal("bytes left over")
		}
	})
}

// FuzzZeroRuns: a vector written as runs of zeros around its non-zero
// varints is the bytes of the plain slice form, and reading it back by
// skipping the runs finds the same words at the same positions.
func FuzzZeroRuns(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 200, 0})
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 127, 128, 255})
	f.Fuzz(func(t *testing.T, raw []byte) {
		words := make([]int64, len(raw))
		for i, b := range raw {
			switch {
			case b < 128: // zero, as most words of a sparse vector are
			case b < 192: // one byte, either sign
				words[i] = int64(b) - 160
			default: // several bytes, either sign
				words[i] = (int64(b) - 223) << (b % 50)
			}
		}
		ref := NewMessage()
		putVarints(ref, words)

		m := NewMessage()
		m.PutUvarint(uint64(len(words)))
		run := 0
		for _, w := range words {
			if w == 0 {
				run++
				continue
			}
			m.PutZeros(run)
			m.PutVarint(w)
			run = 0
		}
		m.PutZeros(run)
		if !bytes.Equal(m.Bytes(), ref.Bytes()) {
			t.Fatalf("zero-run form %x differs from the slice form %x", m.Bytes(), ref.Bytes())
		}

		m.pos = 0
		n := int(m.Uvarint())
		got := make([]int64, n)
		for idx := m.SkipZeros(n); idx < n; idx += 1 + m.SkipZeros(n-idx-1) {
			got[idx] = m.Varint()
		}
		if m.Remaining() != 0 {
			t.Fatalf("%d bytes left after the skipping read", m.Remaining())
		}
		for i := range words {
			if got[i] != words[i] {
				t.Fatalf("word %d read back as %d, want %d", i, got[i], words[i])
			}
		}
	})
}

func FuzzBitmapRoundTrip(f *testing.F) {
	f.Add([]byte{0xff, 0x00, 0xaa}, uint16(20))
	f.Fuzz(func(t *testing.T, raw []byte, nRaw uint16) {
		n := int(nRaw) % (len(raw)*8 + 1)
		bits := make([]bool, n)
		for i := range bits {
			bits[i] = raw[i/8]&(1<<uint(i%8)) != 0
		}
		m := NewMessage()
		m.PutBitmap(bits)
		m.pos = 0
		got := m.Bitmap()
		if len(got) != n {
			t.Fatalf("decoded %d bits, want %d", len(got), n)
		}
		for i := range bits {
			if got[i] != bits[i] {
				t.Fatalf("bit %d mismatch", i)
			}
		}
	})
}

func FuzzReaderOnArbitraryBytes(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x03})
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Any of the readers may panic on malformed input (that is the
		// contract — malformed messages are protocol bugs), but they
		// must not hang or read out of bounds. The recover below makes
		// panics acceptable; the fuzzer still catches slice overruns as
		// runtime errors distinct from our explicit panics because both
		// surface identically — what we are really testing is
		// termination and memory safety under the race/fuzz harness.
		decoders := []func(*Message){
			func(m *Message) { m.Uvarint() },
			func(m *Message) { m.Varint() },
			func(m *Message) { m.Float64() },
			func(m *Message) { m.Bitmap() },
			func(m *Message) { m.IndexList() },
			func(m *Message) { m.Float64Slice() },
			func(m *Message) { m.Uint64Slice() },
			func(m *Message) { m.Uint64SliceRaw() },
			func(m *Message) { m.Sparse(2, 4) },
			func(m *Message) { m.SkipZeros(len(raw) / 2); m.Varint() },
		}
		for _, dec := range decoders {
			m := &Message{buf: raw}
			func() {
				defer func() { recover() }()
				dec(m)
			}()
		}
	})
}
