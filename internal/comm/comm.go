package comm

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/intmat"
)

// Direction identifies who is sending a message.
type Direction int

// The two message directions.
const (
	AliceToBob Direction = iota
	BobToAlice
)

// String names the direction for traces and error messages.
func (d Direction) String() string {
	if d == AliceToBob {
		return "Alice→Bob"
	}
	return "Bob→Alice"
}

// Stats aggregates the cost of a protocol execution.
type Stats struct {
	BitsAliceToBob int64 // payload bits sent by Alice
	BitsBobToAlice int64 // payload bits sent by Bob
	Messages       int   // number of Send calls
	Rounds         int   // number of direction alternations (maximal one-way blocks)
}

// TotalBits returns the total communication in bits.
func (s Stats) TotalBits() int64 { return s.BitsAliceToBob + s.BitsBobToAlice }

// String formats the cost summary in one line.
func (s Stats) String() string {
	return fmt.Sprintf("bits=%d (A→B %d, B→A %d), rounds=%d, messages=%d",
		s.TotalBits(), s.BitsAliceToBob, s.BitsBobToAlice, s.Rounds, s.Messages)
}

// MessageInfo describes one transmitted message for tracing.
type MessageInfo struct {
	// Direction is who sent the message.
	Direction Direction
	// Bits is the message's payload size.
	Bits int64
	// Round is the round the message belonged to.
	Round int
	// Label is the sender's annotation of what the message carries.
	Label string
}

// Conn is a two-party connection that accounts communication. The zero
// value is ready to use. Conn implements Transport: it is the in-process
// simulation, where both parties run interleaved in one function and
// Send hands the payload straight to the receiving code.
type Conn struct {
	stats   Stats
	lastDir Direction
	started bool
	trace   []MessageInfo
	pending [2]*Message
}

// NewConn returns a fresh connection with zeroed counters.
func NewConn() *Conn { return &Conn{} }

// Trace returns the per-message log of the execution so far: direction,
// size, round and the label the protocol attached (via Message.Label).
func (c *Conn) Trace() []MessageInfo { return c.trace }

// Send accounts for the transmission of msg in the given direction and
// returns a reader positioned at the start of the payload. In this
// in-process simulation the receiver reads the same buffer; Send is the
// single point where cost is recorded, so protocols must route every
// exchanged byte through it.
func (c *Conn) Send(dir Direction, msg *Message) *Message {
	bits := int64(len(msg.buf)) * 8
	if dir == AliceToBob {
		c.stats.BitsAliceToBob += bits
	} else {
		c.stats.BitsBobToAlice += bits
	}
	c.stats.Messages++
	if !c.started || c.lastDir != dir {
		c.stats.Rounds++
		c.lastDir = dir
		c.started = true
	}
	c.trace = append(c.trace, MessageInfo{
		Direction: dir,
		Bits:      bits,
		Round:     c.stats.Rounds,
		Label:     msg.Label,
	})
	msg.pos = 0
	c.pending[dir] = msg
	return msg
}

// Recv returns the message most recently Sent in direction dir, with
// the read cursor rewound — the receiving party's view in the
// in-process simulation. It panics if nothing is pending: interleaved
// protocol code receiving before the matching Send is an implementation
// bug, never a runtime condition.
func (c *Conn) Recv(dir Direction) *Message {
	msg := c.pending[dir]
	if msg == nil {
		panic("comm: Recv with no pending message in direction " + dir.String())
	}
	c.pending[dir] = nil
	msg.pos = 0
	return msg
}

// Stats returns the accumulated cost.
func (c *Conn) Stats() Stats { return c.stats }

// Message is an append-only byte buffer with typed write helpers and a
// read cursor with matching typed read helpers. Protocols build a Message,
// Send it, and the peer reads it back field by field. Reads past the end
// or of the wrong framing panic: a malformed message is always a protocol
// implementation bug, never a runtime condition.
type Message struct {
	// Label optionally names the message's role ("row sketches",
	// "sampled rows", …) for the connection trace. It is metadata, not
	// payload, and costs no bits.
	Label string

	buf []byte
	pos int
}

// NewMessage returns an empty message.
func NewMessage() *Message { return &Message{} }

// checkLen panics unless n elements of at least elemBytes each can still
// be read. It runs before any length-prefixed allocation so a corrupt
// prefix cannot demand unbounded memory.
func (m *Message) checkLen(n, elemBytes int) {
	if n < 0 || elemBytes <= 0 || n > (len(m.buf)-m.pos)/elemBytes {
		panic("comm: length prefix exceeds payload")
	}
}

// Len returns the current payload size in bytes.
func (m *Message) Len() int { return len(m.buf) }

// Grow reserves room for n more payload bytes, so a writer that knows
// its message size builds it in one allocation.
func (m *Message) Grow(n int) { m.buf = slices.Grow(m.buf, n) }

// PutUvarint appends an unsigned varint.
func (m *Message) PutUvarint(v uint64) {
	m.buf = binary.AppendUvarint(m.buf, v)
}

// Uvarint reads an unsigned varint. Values below 128 — one byte, and
// nearly every column gap and count of a sampled row — skip the general
// decoder, as Varint's do.
func (m *Message) Uvarint() uint64 {
	if m.pos < len(m.buf) && m.buf[m.pos] < 0x80 {
		b := m.buf[m.pos]
		m.pos++
		return uint64(b)
	}
	v, n := binary.Uvarint(m.buf[m.pos:])
	if n <= 0 {
		panic("comm: malformed uvarint")
	}
	m.pos += n
	return v
}

// PutVarint appends a signed varint (zig-zag). Values in [−64, 63] —
// one byte, and nearly every word of a compressed factor — skip the
// general encoder.
func (m *Message) PutVarint(v int64) {
	if uint64(v+64) < 128 {
		m.buf = append(m.buf, byte(v<<1)^byte(v>>63))
		return
	}
	m.buf = binary.AppendVarint(m.buf, v)
}

// Varint reads a signed varint.
func (m *Message) Varint() int64 {
	if m.pos < len(m.buf) && m.buf[m.pos] < 0x80 {
		b := m.buf[m.pos]
		m.pos++
		return int64(b>>1) ^ -int64(b&1)
	}
	v, n := binary.Varint(m.buf[m.pos:])
	if n <= 0 {
		panic("comm: malformed varint")
	}
	m.pos += n
	return v
}

// PutFloat64 appends a float64 as 8 bytes.
func (m *Message) PutFloat64(v float64) {
	m.buf = binary.LittleEndian.AppendUint64(m.buf, math.Float64bits(v))
}

// Float64 reads a float64.
func (m *Message) Float64() float64 {
	if m.pos+8 > len(m.buf) {
		panic("comm: truncated float64")
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(m.buf[m.pos:]))
	m.pos += 8
	return v
}

// PutFloat64Slice appends a length-prefixed vector of float64s
// (8 bytes per entry — the "word" of the paper's word model).
func (m *Message) PutFloat64Slice(v []float64) {
	m.PutUvarint(uint64(len(v)))
	for _, x := range v {
		m.PutFloat64(x)
	}
}

// Float64Slice reads a vector written by PutFloat64Slice.
func (m *Message) Float64Slice() []float64 {
	v := make([]float64, m.wordCount())
	m.readFloat64s(v)
	return v
}

// Float64SliceInto reads a vector written by PutFloat64Slice into dst,
// for a reader that knows the vector's length (a sketch family's width)
// and lands many vectors in one block: a length prefix other than
// len(dst) panics, as a prefix the payload cannot back does.
func (m *Message) Float64SliceInto(dst []float64) {
	m.wantWords(len(dst))
	m.readFloat64s(dst)
}

// wordCount reads the length prefix of a vector of 8-byte words and
// checks it against the payload before the caller allocates.
func (m *Message) wordCount() int {
	n := int(m.Uvarint())
	m.checkLen(n, 8)
	return n
}

// wantWords reads the length prefix of a fixed-width vector of 8-byte
// words and panics unless it is n.
func (m *Message) wantWords(n int) {
	if got := m.wordCount(); got != n {
		panic(fmt.Sprintf("comm: %d-word vector where the reader expects %d", got, n))
	}
}

// readFloat64s fills dst from the next 8·len(dst) bytes.
func (m *Message) readFloat64s(dst []float64) {
	src := m.buf[m.pos : m.pos+8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	m.pos += 8 * len(dst)
}

// PutUint64 appends a fixed 8-byte unsigned integer (used for field
// elements, where values are uniform over ~2^61 and varints would not
// compress anyway).
func (m *Message) PutUint64(v uint64) {
	m.buf = binary.LittleEndian.AppendUint64(m.buf, v)
}

// Uint64 reads a fixed 8-byte unsigned integer.
func (m *Message) Uint64() uint64 {
	if m.pos+8 > len(m.buf) {
		panic("comm: truncated uint64")
	}
	v := binary.LittleEndian.Uint64(m.buf[m.pos:])
	m.pos += 8
	return v
}

// PutUint64Slice appends a length-prefixed slice of fixed 8-byte values,
// every word written whether or not it is zero: the form of vectors that
// are dense (Freivalds witnesses) or spliced at fixed offsets (lp's round
// 1 at p = 0). A vector that is mostly zeros travels as
// PutSparseUint64s.
func (m *Message) PutUint64Slice(v []uint64) {
	m.PutUvarint(uint64(len(v)))
	for _, x := range v {
		m.PutUint64(x)
	}
}

// Uint64Slice reads a slice written by PutUint64Slice.
func (m *Message) Uint64Slice() []uint64 {
	v := make([]uint64, m.wordCount())
	m.readUint64s(v)
	return v
}

// Uint64SliceInto is Float64SliceInto for PutUint64Slice's vectors.
func (m *Message) Uint64SliceInto(dst []uint64) {
	m.wantWords(len(dst))
	m.readUint64s(dst)
}

// readUint64s fills dst from the next 8·len(dst) bytes.
func (m *Message) readUint64s(dst []uint64) {
	src := m.buf[m.pos : m.pos+8*len(dst)]
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(src[8*i:])
	}
	m.pos += 8 * len(dst)
}

// The two sparse-vector forms. A vector whose words are mostly zero
// travels as its non-zero words only: a uvarint count, then one
// (uvarint gap, word) pair per non-zero word in ascending index order,
// where gap is the distance from the previous non-zero index (from −1
// for the first), so every gap is ≥ 1. The form is canonical — no zero
// word, indices strictly ascending — so a vector has exactly one
// encoding and transcripts stay a function of (inputs, seed). Its cost
// is count·(gap bytes + word bytes) whatever the dimension: below the
// dense form while the fill stays under ½ (varint words) or 8⁄9 (field
// words), at worst 2× and 1.125× of it plus the count (DESIGN.md,
// "Encodings").
//
// The dimension is not on the wire. Readers take it from the caller,
// who knows it from the sketch the vector belongs to, and refuse an
// index at or past it, a zero word, a zero gap, and a count the
// remaining payload cannot hold — so what a reader allocates is bounded
// by the bytes that arrived, never by a number the peer declares.

// PutSparseVarints appends a vector of signed words in the sparse form:
// words[x] ≠ 0 sits at index idx[x], idx strictly ascending. Words are
// zig-zag varints.
func (m *Message) PutSparseVarints(idx []int, words []int64) {
	m.Grow(1 + 2*len(idx)) // a one-byte gap and a one-byte word each, at least
	m.putSparseCount(idx, len(words))
	prev := -1
	for x, i := range idx {
		if words[x] == 0 {
			panic("comm: sparse vector holds a zero word")
		}
		m.putGap(i, prev)
		m.PutVarint(words[x])
		prev = i
	}
}

// AppendSparseVarints reads a vector of dimension dim written by
// PutSparseVarints onto the ends of idx and words, so a reader of many
// vectors can land them in one block; the dense vector is never built.
func (m *Message) AppendSparseVarints(dim int, idx []int, words []int64) ([]int, []int64) {
	n := m.sparseCount(dim, 2)
	idx, words = slices.Grow(idx, n), slices.Grow(words, n)
	prev := -1
	for ; n > 0; n-- {
		prev = m.gap(prev, dim)
		w := m.Varint()
		if w == 0 {
			panic("comm: zero word in a sparse vector")
		}
		idx, words = append(idx, prev), append(words, w)
	}
	return idx, words
}

// PutSparseUint64s is PutSparseVarints for fixed 8-byte words (field
// elements, uniform over ~2^61, which varints would not shorten).
func (m *Message) PutSparseUint64s(idx []int, words []uint64) {
	m.Grow(1 + 9*len(idx))
	m.putSparseCount(idx, len(words))
	prev := -1
	for x, i := range idx {
		if words[x] == 0 {
			panic("comm: sparse vector holds a zero word")
		}
		m.putGap(i, prev)
		m.PutUint64(words[x])
		prev = i
	}
}

// AppendSparseUint64s is AppendSparseVarints for PutSparseUint64s's
// vectors.
func (m *Message) AppendSparseUint64s(dim int, idx []int, words []uint64) ([]int, []uint64) {
	n := m.sparseCount(dim, 9)
	idx, words = slices.Grow(idx, n), slices.Grow(words, n)
	prev := -1
	for ; n > 0; n-- {
		prev = m.gap(prev, dim)
		w := m.Uint64()
		if w == 0 {
			panic("comm: zero word in a sparse vector")
		}
		idx, words = append(idx, prev), append(words, w)
	}
	return idx, words
}

func (m *Message) putSparseCount(idx []int, words int) {
	if len(idx) != words {
		panic("comm: sparse vector with unequal index and word counts")
	}
	m.PutUvarint(uint64(len(idx)))
}

func (m *Message) putGap(i, prev int) {
	if i <= prev {
		panic("comm: sparse vector indices must be strictly ascending")
	}
	m.PutUvarint(uint64(i - prev))
}

// sparseCount reads a sparse vector's count and refuses one beyond the
// dimension or beyond what the remaining payload holds at pairBytes a
// pair at least.
func (m *Message) sparseCount(dim, pairBytes int) int {
	n := m.Uvarint()
	if dim < 0 || n > uint64(dim) {
		panic(fmt.Sprintf("comm: %d non-zero words in a vector of dimension %d", n, dim))
	}
	m.checkLen(int(n), pairBytes)
	return int(n)
}

// gap reads one gap and returns the index it leads to from prev.
func (m *Message) gap(prev, dim int) int {
	g := m.Uvarint()
	if g == 0 || g > uint64(dim-1-prev) {
		panic(fmt.Sprintf("comm: gap %d after index %d in a sparse vector of dimension %d", g, prev, dim))
	}
	return prev + int(g)
}

// PutBitmap appends an n-bit bitmap packed into ⌈n/8⌉ bytes. This is the
// cheapest encoding of a dense Boolean row (n bits, as the paper counts).
func (m *Message) PutBitmap(bits []bool) {
	m.PutUvarint(uint64(len(bits)))
	b := byte(0)
	for i, v := range bits {
		if v {
			b |= 1 << uint(i%8)
		}
		if i%8 == 7 {
			m.buf = append(m.buf, b)
			b = 0
		}
	}
	if len(bits)%8 != 0 {
		m.buf = append(m.buf, b)
	}
}

// Bitmap reads a bitmap written by PutBitmap.
func (m *Message) Bitmap() []bool {
	n := int(m.Uvarint())
	nb := (n + 7) / 8
	if m.pos+nb > len(m.buf) {
		panic("comm: truncated bitmap")
	}
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		out[i] = m.buf[m.pos+i/8]&(1<<uint(i%8)) != 0
	}
	m.pos += nb
	return out
}

// PutWordBitmap appends an n-bit bitmap given as packed uint64 words,
// avoiding a []bool round trip for bit-matrix rows.
func (m *Message) PutWordBitmap(words []uint64, nbits int) {
	m.PutUvarint(uint64(nbits))
	nb := (nbits + 7) / 8
	for i := 0; i < nb; i++ {
		m.buf = append(m.buf, byte(words[i/8]>>uint(8*(i%8))))
	}
}

// WordBitmap reads a bitmap into packed uint64 words.
func (m *Message) WordBitmap() (words []uint64, nbits int) {
	nbits = int(m.Uvarint())
	nb := (nbits + 7) / 8
	if m.pos+nb > len(m.buf) {
		panic("comm: truncated bitmap")
	}
	words = make([]uint64, (nbits+63)/64)
	for i := 0; i < nb; i++ {
		words[i/8] |= uint64(m.buf[m.pos+i]) << uint(8*(i%8))
	}
	m.pos += nb
	return words, nbits
}

// PutIndexList appends a strictly increasing list of indices using delta
// varint coding — the natural encoding of "the set of rows containing item
// j" exchanged in Algorithms 2 and 3.
func (m *Message) PutIndexList(idx []int) {
	m.PutUvarint(uint64(len(idx)))
	prev := -1
	for _, v := range idx {
		if v <= prev {
			panic("comm: PutIndexList requires strictly increasing indices")
		}
		m.PutUvarint(uint64(v - prev))
		prev = v
	}
}

// IndexList reads a list written by PutIndexList.
func (m *Message) IndexList() []int {
	n := int(m.Uvarint())
	m.checkLen(n, 1)
	out := make([]int, n)
	prev := -1
	for i := range out {
		prev += int(m.Uvarint())
		out[i] = prev
	}
	return out
}

// PutSparse appends a sparse integer matrix: dimensions, nnz, then
// row-major (delta-row, col, value) triples with varint coding.
func (m *Message) PutSparse(s *intmat.Sparse) {
	entries := s.Entries()
	m.PutUvarint(uint64(s.Rows()))
	m.PutUvarint(uint64(s.Cols()))
	m.PutUvarint(uint64(len(entries)))
	prevRow := 0
	for _, e := range entries {
		m.PutUvarint(uint64(e.I - prevRow))
		prevRow = e.I
		m.PutUvarint(uint64(e.J))
		m.PutVarint(e.V)
	}
}

// Sparse reads a rows × cols matrix written by PutSparse. The
// dimensions are catalog metadata the reader knows before the message
// arrives; a message that declares others is malformed, and nothing is
// sized from what it declares.
func (m *Message) Sparse(rows, cols int) *intmat.Sparse {
	if r, c := m.Uvarint(), m.Uvarint(); r != uint64(rows) || c != uint64(cols) {
		panic(fmt.Sprintf("comm: sparse matrix declared %d×%d, want %d×%d", r, c, rows, cols))
	}
	nnz := int(m.Uvarint())
	m.checkLen(nnz, 3) // at least one byte each for row delta, col, value
	entries := make([]intmat.Entry, nnz)
	row := 0
	for i := range entries {
		row += int(m.Uvarint())
		j := int(m.Uvarint())
		v := m.Varint()
		entries[i] = intmat.Entry{I: row, J: j, V: v}
	}
	return intmat.NewSparse(rows, cols, entries)
}

// Remaining reports how many unread bytes are left; protocols use it in
// tests to assert messages are fully consumed.
func (m *Message) Remaining() int { return len(m.buf) - m.pos }

// Bytes returns the serialized payload of the message. Together with
// FromBytes it lets callers move messages across real transports
// (sockets, pipes) instead of the in-process connection.
func (m *Message) Bytes() []byte { return m.buf }

// FromBytes wraps a received payload as a readable message.
func FromBytes(payload []byte) *Message { return &Message{buf: payload} }
