package comm

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
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

// FuzzZeroRuns: a vector that is mostly runs of zeros, written in each
// sparse form, takes exactly count + Σ (gap + word) bytes and reads back
// as the same words at the same positions — and a dimension one short
// of the last non-zero index is refused.
func FuzzZeroRuns(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 200, 0})
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 127, 128, 255})
	f.Fuzz(func(t *testing.T, raw []byte) {
		dense := make([]int64, len(raw))
		for i, b := range raw {
			switch {
			case b < 128: // zero, as most words of a sparse vector are
			case b < 192: // one byte, either sign
				dense[i] = int64(b) - 160
			default: // several bytes, either sign
				dense[i] = (int64(b) - 223) << (b % 50)
			}
		}
		dense = append(dense, make([]int64, 200*(len(raw)%3))...) // a long zero tail, or none
		idx, words := sparseOf(dense)
		fixed := make([]uint64, len(words))
		for x, w := range words {
			fixed[x] = uint64(w)
		}

		m := NewMessage()
		m.PutSparseVarints(idx, words)
		varLen := m.Len()
		m.PutSparseUint64s(idx, fixed)
		if wantVar, wantFixed := pairBytes(idx, words); varLen != wantVar || m.Len()-varLen != wantFixed {
			t.Fatalf("the two forms of %v took %d and %d bytes, the pairs come to %d and %d", dense, varLen, m.Len()-varLen, wantVar, wantFixed)
		}

		gotIdx, gotWords := m.AppendSparseVarints(len(dense), nil, nil)
		if !slices.Equal(denseOf(len(dense), gotIdx, gotWords), dense) {
			t.Fatalf("varint form read back %v %v, want %v", gotIdx, gotWords, dense)
		}
		fIdx, fWords := m.AppendSparseUint64s(len(dense), nil, nil)
		if !slices.Equal(fIdx, idx) || !slices.Equal(fWords, fixed) {
			t.Fatalf("fixed form read back %v %v", fIdx, fWords)
		}
		if m.Remaining() != 0 {
			t.Fatalf("%d bytes left after both vectors", m.Remaining())
		}
		if len(idx) > 0 {
			m.pos = 0
			last := idx[len(idx)-1]
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("a reader of dimension %d accepted index %d", last, last)
					}
				}()
				m.AppendSparseVarints(last, nil, nil)
			}()
		}
	})
}

// FuzzFloat24RoundTrip: any finite float64 pattern comes back through
// PutFloat24s and Float24sInto finite, with its sign, as a word with
// nothing below its top 24 bits, and — when normal — within 2⁻¹³ of
// itself; an infinity or NaN is written with exponent 0x7FF, and the
// reader refuses it.
func FuzzFloat24RoundTrip(f *testing.F) {
	f.Add(math.Float64bits(1))
	f.Add(math.Float64bits(math.MaxFloat64))
	f.Add(math.Float64bits(-0x1.fff8p0))
	f.Add(uint64(1))
	f.Add(math.Float64bits(math.Inf(-1)))
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		m := NewMessage()
		m.PutFloat24s([]float64{x})
		w := make([]uint32, 1)
		if math.IsInf(x, 0) || math.IsNaN(x) {
			defer func() {
				if recover() == nil {
					t.Fatalf("the reader took %v back as %#x", x, w[0])
				}
			}()
		}
		m.Float24sInto(w)
		got := Float24(w[0])
		if w[0]&0xFF != 0 || math.IsInf(got, 0) || math.IsNaN(got) || math.Signbit(got) != math.Signbit(x) {
			t.Fatalf("%v (%#x) came back as %v (%#x)", x, bits, got, w[0])
		}
		if a := math.Abs(x); a >= 0x1p-1022 && math.Abs(got-x)/a > 0x1p-13 {
			t.Fatalf("%v came back as %v: relative error %g", x, got, math.Abs(got-x)/a)
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
			func(m *Message) { m.Float24sInto(make([]uint32, len(raw)/3+len(raw)%2)) },
			func(m *Message) { m.Uint64Slice() },
			func(m *Message) { m.AppendSparseVarints(len(raw), nil, nil) },
			func(m *Message) { m.AppendSparseUint64s(1<<40, nil, nil) },
			func(m *Message) { m.Sparse(2, 4) },
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
