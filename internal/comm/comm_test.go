package comm

import (
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

func TestFloatSliceRoundTrip(t *testing.T) {
	m := NewMessage()
	in := []float64{1.5, -2.25, 0, 1e300}
	m.PutFloat64Slice(in)
	m.pos = 0
	out := m.Float64Slice()
	if len(out) != len(in) {
		t.Fatal("length mismatch")
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("slice[%d] = %v, want %v", i, out[i], in[i])
		}
	}
}

// TestFixedWidthSlicesShareOneBlock: the fixed-width readers land
// several vectors in one caller-sized block, and refuse a length prefix
// other than the width they were given — shorter, longer, or beyond
// what the payload holds — before they write a word.
func TestFixedWidthSlicesShareOneBlock(t *testing.T) {
	m := NewMessage()
	m.PutFloat64Slice([]float64{1.5, -2.25})
	m.PutFloat64Slice([]float64{1e300, 0})
	m.PutUint64Slice([]uint64{7, 1 << 60})
	m.pos = 0
	block := make([]float64, 4)
	m.Float64SliceInto(block[:2])
	m.Float64SliceInto(block[2:])
	if block[0] != 1.5 || block[1] != -2.25 || block[2] != 1e300 || block[3] != 0 {
		t.Fatalf("block = %v, want the two vectors side by side", block)
	}
	words := make([]uint64, 2)
	if m.Uint64SliceInto(words); words[0] != 7 || words[1] != 1<<60 {
		t.Fatalf("Uint64SliceInto = %v", words)
	}
	for _, c := range []struct {
		name string
		put  func(*Message)
		read func(*Message)
	}{
		{"short", func(m *Message) { m.PutFloat64Slice([]float64{1}) }, func(m *Message) { m.Float64SliceInto(block[:2]) }},
		{"long", func(m *Message) { m.PutUint64Slice([]uint64{1, 2, 3}) }, func(m *Message) { m.Uint64SliceInto(words) }},
		{"beyond the payload", func(m *Message) { m.PutUvarint(2) }, func(m *Message) { m.Float64SliceInto(block[:2]) }},
	} {
		m := NewMessage()
		c.put(m)
		mustPanic(t, c.name, func() { c.read(m) })
	}
	if block[0] != 1.5 || words[0] != 7 {
		t.Fatalf("a refused vector wrote into the block: %v, %v", block, words)
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
