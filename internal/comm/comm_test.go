package comm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/intmat"
)

func TestRoundCounting(t *testing.T) {
	c := NewConn()
	// Two consecutive Alice messages are one round; a flip starts a new one.
	c.Send(AliceToBob, NewMessage())
	c.Send(AliceToBob, NewMessage())
	if got := c.Stats().Rounds; got != 1 {
		t.Fatalf("rounds = %d, want 1", got)
	}
	c.Send(BobToAlice, NewMessage())
	if got := c.Stats().Rounds; got != 2 {
		t.Fatalf("rounds = %d, want 2", got)
	}
	c.Send(BobToAlice, NewMessage())
	c.Send(AliceToBob, NewMessage())
	if got := c.Stats().Rounds; got != 3 {
		t.Fatalf("rounds = %d, want 3", got)
	}
	if got := c.Stats().Messages; got != 5 {
		t.Fatalf("messages = %d, want 5", got)
	}
}

func TestBitAccounting(t *testing.T) {
	c := NewConn()
	m := NewMessage()
	m.PutFloat64(3.14) // 8 bytes
	c.Send(AliceToBob, m)
	if got := c.Stats().BitsAliceToBob; got != 64 {
		t.Fatalf("A→B bits = %d, want 64", got)
	}
	m2 := NewMessage()
	m2.PutUint64(7) // 8 bytes
	c.Send(BobToAlice, m2)
	if got := c.Stats().BitsBobToAlice; got != 64 {
		t.Fatalf("B→A bits = %d, want 64", got)
	}
	if got := c.Stats().TotalBits(); got != 128 {
		t.Fatalf("total = %d, want 128", got)
	}
}

func TestVarintRoundTrip(t *testing.T) {
	m := NewMessage()
	values := []int64{0, 1, -1, 300, -300, 1 << 40, -(1 << 40)}
	for _, v := range values {
		m.PutVarint(v)
	}
	m.PutUvarint(12345)
	m.pos = 0
	for _, v := range values {
		if got := m.Varint(); got != v {
			t.Fatalf("Varint = %d, want %d", got, v)
		}
	}
	if got := m.Uvarint(); got != 12345 {
		t.Fatalf("Uvarint = %d", got)
	}
	if m.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", m.Remaining())
	}
}

// TestFloatSliceRoundTrip: Float24 words take 3 bytes each and no
// prefix, and a float whose mantissa fits in 12 bits comes back exactly.
func TestFloatSliceRoundTrip(t *testing.T) {
	m := NewMessage()
	in := []float64{1.5, -2.25, 0, math.Copysign(0, -1), 0x1.fffp+1000, -0x1p-1022, 4097}
	m.PutFloat24s(in)
	if m.Len() != 3*len(in) {
		t.Fatalf("%d words took %d bytes, want %d", len(in), m.Len(), 3*len(in))
	}
	out := make([]uint32, len(in))
	m.Float24sInto(out)
	for i := range in {
		if got := Float24(out[i]); math.Float64bits(got) != math.Float64bits(in[i]) {
			t.Fatalf("word %d = %v, want %v", i, got, in[i])
		}
	}
	if m.Remaining() != 0 {
		t.Fatalf("%d bytes left", m.Remaining())
	}
}

// TestFixedWidthSlicesShareOneBlock: the fixed-width readers land
// several vectors in one caller-sized block; they refuse a Float24 word
// that is not finite, and, before they write a word, a vector the
// payload cannot hold or — for the prefixed field words — a length
// prefix other than the width they were given.
func TestFixedWidthSlicesShareOneBlock(t *testing.T) {
	m := NewMessage()
	m.PutFloat24s([]float64{1.5, -2.25})
	m.PutFloat24s([]float64{0x1p300, 0})
	m.PutUint64Slice([]uint64{7, 1 << 60})
	block := make([]uint32, 4)
	m.Float24sInto(block[:2])
	m.Float24sInto(block[2:])
	want := []float64{1.5, -2.25, 0x1p300, 0}
	for i, w := range block {
		if Float24(w) != want[i] {
			t.Fatalf("block = %x, want %v side by side", block, want)
		}
	}
	words := make([]uint64, 2)
	if m.Uint64SliceInto(words); words[0] != 7 || words[1] != 1<<60 {
		t.Fatalf("Uint64SliceInto = %v", words)
	}
	before := slices.Clone(block)
	for _, c := range []struct {
		name string
		put  func(*Message)
		read func(*Message)
	}{
		{"short", func(m *Message) { m.PutFloat24s([]float64{1, 2, 3}) }, func(m *Message) { m.Float24sInto(block) }},
		{"a byte short", func(m *Message) { m.PutFloat24s([]float64{1, 2}); m.buf = m.buf[:5] }, func(m *Message) { m.Float24sInto(block[:2]) }},
		{"not finite", func(m *Message) { m.PutFloat24s([]float64{1, math.Inf(1)}) }, func(m *Message) { m.Float24sInto(make([]uint32, 2)) }},
		{"long", func(m *Message) { m.PutUint64Slice([]uint64{1, 2, 3}) }, func(m *Message) { m.Uint64SliceInto(words) }},
		{"beyond the payload", func(m *Message) { m.PutUvarint(2) }, func(m *Message) { m.Uint64SliceInto(words) }},
	} {
		m := NewMessage()
		c.put(m)
		mustPanic(t, c.name, func() { c.read(m) })
	}
	if !slices.Equal(block, before) || words[0] != 7 {
		t.Fatalf("a refused vector wrote into the block: %x, %v", block, words)
	}
}

// TestFloat24Words holds the Float24 form to its contract on 10⁵ seeded
// words and on the edges (±0, subnormals, every power of two and its two
// neighbours, ties, MaxFloat64): a word reads back as exactly the top 24
// bits of the written float's pattern rounded to nearest, ties to even,
// on the magnitude; the sign survives; a normal word's relative error is
// at most 2⁻¹³; a finite word stays finite, the largest truncated
// instead of rounded to infinity; and the reader refuses every word of
// exponent 0x7FF.
func TestFloat24Words(t *testing.T) {
	rnd := rand.New(rand.NewSource(27))
	var in []float64
	for e := -1074; e <= 1023; e++ {
		p := math.Ldexp(1, e)
		in = append(in, p, -p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)))
	}
	in = append(in, 0, math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64,
		0x1.0008p0, 0x1.0018p0, 0x1.00080001p0, 0x1.fff8p0, 0x1.fff8p1023, -0x1.fff7fffp1023)
	for len(in) < 100_000 {
		var b uint64
		switch rnd.Intn(3) {
		case 0: // any pattern
			b = rnd.Uint64()
		case 1: // the magnitudes sketches hold
			b = math.Float64bits(rnd.NormFloat64() * math.Pow(10, float64(rnd.Intn(100)-50)))
		default: // a tie at the 12th mantissa bit, or one unit either side of it
			b = rnd.Uint64()&^(1<<40-1) | 1<<39 + uint64(rnd.Intn(3)) - 1
		}
		if x := math.Float64frombits(b); !math.IsNaN(x) && !math.IsInf(x, 0) {
			in = append(in, x)
		}
	}
	m := NewMessage()
	m.PutFloat24s(in)
	if m.Len() != 3*len(in) {
		t.Fatalf("%d words took %d bytes", len(in), m.Len())
	}
	out := make([]uint32, len(in))
	m.Float24sInto(out)
	for i, x := range in {
		got := Float24(out[i])
		if out[i]&0xFF != 0 {
			t.Fatalf("%v: word %#x keeps bits below the top 24", x, out[i])
		}
		if math.Signbit(got) != math.Signbit(x) {
			t.Fatalf("%v came back as %v: the sign moved", x, got)
		}
		// The 24-bit patterns either side of |x|: the one above when |x|
		// is past the half-way point, or at it with an odd one below —
		// unless the one above is infinite.
		b := math.Float64bits(math.Abs(x))
		down := b &^ (1<<40 - 1)
		want := down
		if rest := b - down; (rest > 1<<39 || rest == 1<<39 && down>>40&1 == 1) && (down+1<<40)>>52 != 0x7FF {
			want = down + 1<<40
		}
		if gb := math.Float64bits(math.Abs(got)); gb != want {
			t.Fatalf("%v (%#x) came back as %v (%#x), want %#x", x, b, got, gb, want)
		}
		if math.IsInf(got, 0) {
			t.Fatalf("%v came back infinite", x)
		}
		if a := math.Abs(x); a >= 0x1p-1022 {
			if rel := math.Abs(got-x) / a; rel > 0x1p-13 {
				t.Fatalf("%v came back as %v: relative error %g > 2⁻¹³", x, got, rel)
			}
		}
	}
	if got := Float24(out[slices.Index(in, math.MaxFloat64)]); got != 0x1.fffp1023 {
		t.Fatalf("MaxFloat64 came back as %v, want it truncated to 0x1.fffp1023", got)
	}
	for _, bad := range []uint64{0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000, 0x7FFFFF0000000000, 0xFFF0010000000000} {
		raw := []byte{0, 0, 0, byte(bad >> 40), byte(bad >> 48), byte(bad >> 56)}
		dst := []uint32{7, 7}
		mustPanic(t, fmt.Sprintf("pattern %#x", bad), func() { FromBytes(raw).Float24sInto(dst) })
	}
}

func TestBitmapRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 130} {
		in := make([]bool, n)
		for i := range in {
			in[i] = i%3 == 0
		}
		m := NewMessage()
		m.PutBitmap(in)
		wantBytes := (n+7)/8 + 1 // payload + 1-byte length for small n
		if n >= 128 {
			wantBytes++ // two-byte varint length
		}
		if m.Len() != wantBytes {
			t.Errorf("n=%d: bitmap encoded to %d bytes, want %d", n, m.Len(), wantBytes)
		}
		m.pos = 0
		out := m.Bitmap()
		if len(out) != n {
			t.Fatalf("n=%d: decoded length %d", n, len(out))
		}
		for i := range in {
			if in[i] != out[i] {
				t.Fatalf("n=%d: bit %d mismatch", n, i)
			}
		}
	}
}

func TestWordBitmapRoundTrip(t *testing.T) {
	words := []uint64{0xdeadbeefcafebabe, 0x0123456789abcdef, 0x1}
	nbits := 130
	m := NewMessage()
	m.PutWordBitmap(words, nbits)
	m.pos = 0
	got, n := m.WordBitmap()
	if n != nbits {
		t.Fatalf("nbits = %d, want %d", n, nbits)
	}
	for i := 0; i < nbits; i++ {
		want := words[i/64]&(1<<uint(i%64)) != 0
		have := got[i/64]&(1<<uint(i%64)) != 0
		if want != have {
			t.Fatalf("bit %d mismatch", i)
		}
	}
}

func TestIndexListRoundTrip(t *testing.T) {
	in := []int{0, 3, 4, 100, 1000}
	m := NewMessage()
	m.PutIndexList(in)
	m.pos = 0
	out := m.IndexList()
	if len(out) != len(in) {
		t.Fatal("length mismatch")
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("index %d: %d != %d", i, out[i], in[i])
		}
	}
}

func TestIndexListRejectsUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unsorted index list")
		}
	}()
	NewMessage().PutIndexList([]int{3, 3})
}

func TestSparseRoundTrip(t *testing.T) {
	s := intmat.NewSparse(5, 7, []intmat.Entry{
		{I: 0, J: 1, V: 5}, {I: 0, J: 6, V: -2}, {I: 2, J: 0, V: 100}, {I: 4, J: 3, V: -77},
	})
	m := NewMessage()
	m.PutSparse(s)
	m.pos = 0
	got := m.Sparse(5, 7)
	if !got.ToDense().Equal(s.ToDense()) {
		t.Fatal("sparse round trip mismatch")
	}
}

// TestSparseChecksDeclaredDimensions: the reader knows the matrix's
// shape beforehand and sizes nothing from what the peer declares — the
// eight bytes {rows 2⁴⁰, cols 4, nnz 0} are a malformed message, not an
// allocation of 2⁴⁰ row lists, and so is a well-formed matrix of another
// width.
func TestSparseChecksDeclaredDimensions(t *testing.T) {
	huge := NewMessage()
	huge.PutUvarint(1 << 40)
	huge.PutUvarint(4)
	huge.PutUvarint(0)
	if huge.Len() != 8 {
		t.Fatalf("the message is %d bytes, want 8", huge.Len())
	}
	mustPanic(t, "2^40 declared rows", func() { huge.Sparse(2, 4) })

	m := NewMessage()
	m.PutSparse(intmat.NewSparse(5, 7, []intmat.Entry{{I: 4, J: 6, V: 1}}))
	mustPanic(t, "declared cols differ", func() { FromBytes(m.Bytes()).Sparse(5, 8) })
	mustPanic(t, "declared rows differ", func() { FromBytes(m.Bytes()).Sparse(4, 7) })
	if got := FromBytes(m.Bytes()).Sparse(5, 7); got.NNZ() != 1 {
		t.Fatalf("the matching read kept %d entries, want 1", got.NNZ())
	}
}

func TestTruncatedReadsPanic(t *testing.T) {
	m := NewMessage()
	m.PutUvarint(4)
	m.pos = 0
	m.Uvarint()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on truncated read")
		}
	}()
	m.Float64()
}

func TestQuickVarintSlice(t *testing.T) {
	f := func(v []int64) bool {
		m := NewMessage()
		putVarints(m, v)
		m.pos = 0
		got := varints(m)
		if len(got) != len(v) {
			return false
		}
		for i := range v {
			if got[i] != v[i] {
				return false
			}
		}
		return m.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickUint64Slice(t *testing.T) {
	f := func(v []uint64) bool {
		m := NewMessage()
		m.PutUint64Slice(v)
		m.pos = 0
		got := m.Uint64Slice()
		if len(got) != len(v) {
			return false
		}
		for i := range v {
			if got[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStatsString(t *testing.T) {
	c := NewConn()
	m := NewMessage()
	m.PutUvarint(1)
	c.Send(AliceToBob, m)
	if s := c.Stats().String(); s == "" {
		t.Fatal("empty stats string")
	}
	if AliceToBob.String() != "Alice→Bob" || BobToAlice.String() != "Bob→Alice" {
		t.Fatal("direction strings wrong")
	}
}
