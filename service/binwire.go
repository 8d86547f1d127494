package service

// Binary hot-path wire format. The protocol transcripts are already
// framed binary (comm.NetConn); this codec extends the same economy to
// the HTTP hop for the hot endpoints (/estimate, /estimate/batch,
// PATCH /v1/matrices/{name}/rows, and the gateway's replica re-seed
// uploads), where the JSON envelope otherwise dominates both bytes and
// allocations around a sketch that is tiny by design.
//
// Frame layout (see docs/API.md "Wire format"):
//
//	'M' 'P' version(1) tag(1) payload…
//
// The payload is a field-by-field encoding using unsigned varints
// (encoding/binary Uvarint), zigzag varints for signed integers,
// fixed 8-byte little-endian IEEE 754 for floats, and length-prefixed
// strings. Slices encode nil-awareness as uvarint(len+1) with 0
// meaning a nil slice, so decode(encode(v)) reproduces v exactly —
// the property the fuzz oracle pins. Matrix entries get two payload
// forms selected by a flag byte: order-preserving delta-coded sparse
// triples, or a row-major bitset when the matrix is a canonical
// Boolean wire form (what MatrixFromBool emits) and the bitset is
// smaller — the join workloads ship 0/1 matrices whose triples waste
// ~24× the information content.
//
// Every encode and decode runs through sync.Pool-pooled buffers; the
// O(nnz) inner loops write into pre-sized spans and carry
// //mp:hotpath so mpvet enforces the zero-alloc contract mechanically.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"
)

// MediaTypeBinary is the content type of the binary hot-path wire
// format, negotiated via Content-Type (requests) and Accept
// (responses). JSON remains the compatibility default.
const MediaTypeBinary = "application/x-mp-binary"

const (
	binMagic0  = 'M'
	binMagic1  = 'P'
	binVersion = 1
)

// Type tags, one per binary-encodable API type. The tag byte makes a
// frame self-describing: a decoder handed the wrong type fails cleanly
// instead of misparsing.
const (
	tagMatrix byte = iota + 1
	tagRequest
	tagResult
	tagBatchRequest
	tagBatchResponse
	tagUpdateRequest
	tagUpdateReply
	tagUploadReply
)

// errBinWire is the generic malformed-frame error; decodeBinary wraps
// it with the frame's tag context.
var errBinWire = errors.New("malformed binary frame")

// wireBuf is a pooled encode/decode buffer. Both tiers (service
// handlers and the client, hence also the gateway's backend clients)
// draw from one pool, so steady-state hot-path traffic encodes and
// decodes without per-request buffer allocations.
type wireBuf struct{ b []byte }

// maxPooledWireBuf caps the capacity returned to the pool: a single
// huge upload body must not pin hundreds of megabytes forever.
const maxPooledWireBuf = 4 << 20

var wireBufPool = sync.Pool{New: func() any { return &wireBuf{b: make([]byte, 0, 4096)} }}

func getWireBuf() *wireBuf { return wireBufPool.Get().(*wireBuf) }

func putWireBuf(w *wireBuf) {
	if cap(w.b) > maxPooledWireBuf {
		return
	}
	w.b = w.b[:0]
	wireBufPool.Put(w)
}

// BinaryEncodable reports whether v (a value or pointer of an API
// type) has a binary wire form. Types without one fall back to JSON
// under content negotiation.
func BinaryEncodable(v any) bool {
	switch v.(type) {
	case Matrix, *Matrix, Request, *Request, Result, *Result,
		BatchRequest, *BatchRequest, BatchResponse, *BatchResponse,
		UpdateRequest, *UpdateRequest, UpdateReply, *UpdateReply,
		UploadReply, *UploadReply:
		return true
	}
	return false
}

// AppendBinary appends the framed binary encoding of v to dst,
// returning the extended slice. Types without a binary form (see
// BinaryEncodable) are an error. Encoding never fails for encodable
// types, so the append-style signature composes with pooled buffers.
func AppendBinary(dst []byte, v any) ([]byte, error) {
	b, ok := appendBinary(dst, v)
	if !ok {
		return dst, fmt.Errorf("%w: type %T has no binary form", errBinWire, v)
	}
	return b, nil
}

// DecodeBinary decodes one framed binary value into v, which must be a
// pointer to a binary-encodable type. The whole frame must be
// consumed; trailing bytes are an error.
func DecodeBinary(data []byte, v any) error { return decodeBinary(data, v) }

// appendBinary appends the framed binary encoding of v to b, reporting
// whether v's type has a binary form.
func appendBinary(b []byte, v any) ([]byte, bool) {
	switch v := v.(type) {
	case Matrix:
		return appendFrame(b, tagMatrix, v, appendMatrix), true
	case *Matrix:
		return appendFrame(b, tagMatrix, *v, appendMatrix), true
	case Request:
		return appendFrame(b, tagRequest, v, appendRequest), true
	case *Request:
		return appendFrame(b, tagRequest, *v, appendRequest), true
	case Result:
		return appendFrame(b, tagResult, v, appendResult), true
	case *Result:
		return appendFrame(b, tagResult, *v, appendResult), true
	case BatchRequest:
		return appendFrame(b, tagBatchRequest, v, appendBatchRequest), true
	case *BatchRequest:
		return appendFrame(b, tagBatchRequest, *v, appendBatchRequest), true
	case BatchResponse:
		return appendFrame(b, tagBatchResponse, v, appendBatchResponse), true
	case *BatchResponse:
		return appendFrame(b, tagBatchResponse, *v, appendBatchResponse), true
	case UpdateRequest:
		return appendFrame(b, tagUpdateRequest, v, appendUpdateRequest), true
	case *UpdateRequest:
		return appendFrame(b, tagUpdateRequest, *v, appendUpdateRequest), true
	case UpdateReply:
		return appendFrame(b, tagUpdateReply, v, appendUpdateReply), true
	case *UpdateReply:
		return appendFrame(b, tagUpdateReply, *v, appendUpdateReply), true
	case UploadReply:
		return appendFrame(b, tagUploadReply, v, appendUploadReply), true
	case *UploadReply:
		return appendFrame(b, tagUploadReply, *v, appendUploadReply), true
	}
	return b, false
}

func appendFrame[T any](b []byte, tag byte, v T, enc func([]byte, T) []byte) []byte {
	b = append(b, binMagic0, binMagic1, binVersion, tag)
	return enc(b, v)
}

// decodeBinary decodes one framed value into v (which must be a
// pointer to a binary-encodable type). The whole frame must be
// consumed: trailing garbage is an error, which keeps the decoder's
// accept set exactly the encoder's image.
func decodeBinary(data []byte, v any) error {
	if len(data) < 4 || data[0] != binMagic0 || data[1] != binMagic1 {
		return fmt.Errorf("%w: bad magic", errBinWire)
	}
	if data[2] != binVersion {
		return fmt.Errorf("%w: unsupported version %d", errBinWire, data[2])
	}
	tag := data[3]
	r := &binReader{b: data[4:]}
	var want byte
	switch v := v.(type) {
	case *Matrix:
		want = tagMatrix
		if tag == want {
			*v = r.matrix()
		}
	case *Request:
		want = tagRequest
		if tag == want {
			*v = r.request()
		}
	case *Result:
		want = tagResult
		if tag == want {
			*v = r.result()
		}
	case *BatchRequest:
		want = tagBatchRequest
		if tag == want {
			*v = r.batchRequest()
		}
	case *BatchResponse:
		want = tagBatchResponse
		if tag == want {
			*v = r.batchResponse()
		}
	case *UpdateRequest:
		want = tagUpdateRequest
		if tag == want {
			*v = r.updateRequest()
		}
	case *UpdateReply:
		want = tagUpdateReply
		if tag == want {
			*v = r.updateReply()
		}
	case *UploadReply:
		want = tagUploadReply
		if tag == want {
			*v = r.uploadReply()
		}
	default:
		return fmt.Errorf("%w: type %T has no binary form", errBinWire, v)
	}
	if tag != want {
		return fmt.Errorf("%w: tag %d, want %d for %T", errBinWire, tag, want, v)
	}
	if r.bad {
		return fmt.Errorf("%w: truncated or invalid payload (tag %d)", errBinWire, tag)
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes after payload (tag %d)", errBinWire, len(r.b)-r.off, tag)
	}
	return nil
}

// ---- primitive encoders (append-style; header-sized work) ----

func zigzag(x int64) uint64   { return uint64(x<<1) ^ uint64(x>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarintLen is the encoded size of x in bytes.
//
//mp:hotpath
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func putUvar(b []byte, x uint64) []byte { return binary.AppendUvarint(b, x) }
func putZig(b []byte, x int64) []byte   { return binary.AppendUvarint(b, zigzag(x)) }

func putF64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func putU64(b []byte, u uint64) []byte { return binary.LittleEndian.AppendUint64(b, u) }

func putStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func putBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// ---- primitive decoder ----

// binReader is a sequential payload reader: the first malformed field
// marks the reader bad and every subsequent read returns zero values,
// so composite decoders need no per-field error plumbing.
type binReader struct {
	b   []byte
	off int
	bad bool
}

func (r *binReader) fail() {
	r.bad = true
}

func (r *binReader) rem() int { return len(r.b) - r.off }

func (r *binReader) uvar() uint64 {
	if r.bad {
		return 0
	}
	u, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return u
}

func (r *binReader) zig() int64 { return unzigzag(r.uvar()) }

// intv reads a zigzag varint that must fit the platform int.
func (r *binReader) intv() int {
	x := r.zig()
	if int64(int(x)) != x {
		r.fail()
		return 0
	}
	return int(x)
}

func (r *binReader) f64() float64 {
	if r.bad || r.rem() < 8 {
		r.fail()
		return 0
	}
	u := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return math.Float64frombits(u)
}

func (r *binReader) u64() uint64 {
	if r.bad || r.rem() < 8 {
		r.fail()
		return 0
	}
	u := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return u
}

func (r *binReader) str() string {
	n := r.uvar()
	if r.bad || n > uint64(r.rem()) {
		r.fail()
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *binReader) boolv() bool {
	if r.bad || r.rem() < 1 {
		r.fail()
		return false
	}
	v := r.b[r.off]
	r.off++
	if v > 1 {
		r.fail()
		return false
	}
	return v == 1
}

func (r *binReader) byte() byte {
	if r.bad || r.rem() < 1 {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// sliceLen reads a nil-aware slice length: 0 is a nil slice (ok
// false), u is a slice of u-1 elements. minElem bounds the allocation
// against hostile counts: a slice of n elements needs at least
// n*minElem payload bytes still unread.
func (r *binReader) sliceLen(minElem int) (n int, ok bool) {
	u := r.uvar()
	if r.bad || u == 0 {
		return 0, false
	}
	u--
	if u > uint64(r.rem())/uint64(minElem)+1 {
		r.fail()
		return 0, false
	}
	return int(u), true
}

// ---- Matrix ----

// canonicalBoolWire reports whether m is the canonical wire form of a
// Boolean matrix — in-bounds entries, strictly increasing in row-major
// order, every value exactly 1 — which is what MatrixFromBool emits.
// Only canonical matrices may take the bitset payload: decoding a
// bitset regenerates exactly the canonical triple sequence, so the
// round-trip is lossless.
func canonicalBoolWire(m Matrix) bool {
	if m.Rows <= 0 || m.Cols <= 0 || len(m.Entries) == 0 {
		return false
	}
	if int64(m.Rows)*int64(m.Cols) > maxMatrixElems {
		return false
	}
	return canonicalBoolEntries(m.Entries, int64(m.Rows), int64(m.Cols))
}

// canonicalBoolEntries is canonicalBoolWire's O(nnz) scan.
//
//mp:hotpath
func canonicalBoolEntries(entries [][3]int64, rows, cols int64) bool {
	prev := int64(-1)
	for _, e := range entries {
		if e[2] != 1 || e[0] < 0 || e[0] >= rows || e[1] < 0 || e[1] >= cols {
			return false
		}
		cell := e[0]*cols + e[1]
		if cell <= prev {
			return false
		}
		prev = cell
	}
	return true
}

const (
	matrixPayloadSparse byte = 0
	matrixPayloadBitset byte = 1
)

func appendMatrix(b []byte, m Matrix) []byte {
	b = putZig(b, int64(m.Rows))
	b = putZig(b, int64(m.Cols))
	if m.Entries == nil {
		b = append(b, matrixPayloadSparse)
		return putUvar(b, 0)
	}
	// A sparse triple costs at least 3 bytes; the bitset costs a fixed
	// rows·cols/8. Pick the bitset only when it is strictly smaller and
	// the matrix is canonical Boolean wire (lossless regeneration).
	bitsetBytes := (int64(m.Rows)*int64(m.Cols) + 7) / 8
	if bitsetBytes < int64(len(m.Entries))*3 && canonicalBoolWire(m) {
		b = append(b, matrixPayloadBitset)
		b = putUvar(b, uint64(len(m.Entries)))
		b = slices.Grow(b, int(bitsetBytes))
		dst := b[len(b) : len(b)+int(bitsetBytes)]
		clear(dst)
		packBitsetInto(dst, m.Entries, int64(m.Cols))
		return b[:len(b)+int(bitsetBytes)]
	}
	b = append(b, matrixPayloadSparse)
	b = putUvar(b, uint64(len(m.Entries))+1)
	n := sizeEntries(m.Entries)
	b = slices.Grow(b, n)
	encodeEntriesInto(b[len(b):len(b)+n], m.Entries)
	return b[:len(b)+n]
}

// sizeEntries is the exact encoded size of the delta-coded triples, so
// the encoder grows its buffer once and the hot loop never appends.
//
//mp:hotpath
func sizeEntries(entries [][3]int64) int {
	var prevI, prevJ int64
	n := 0
	for _, e := range entries {
		n += uvarintLen(zigzag(e[0]-prevI)) + uvarintLen(zigzag(e[1]-prevJ)) + uvarintLen(zigzag(e[2]))
		prevI, prevJ = e[0], e[1]
	}
	return n
}

// encodeEntriesInto writes the delta-coded triples into dst (exactly
// sizeEntries bytes). Rows and columns are delta-coded against the
// previous entry — row-sorted uploads then cost ~1 byte per index —
// and deltas are zigzag-coded so arbitrary entry orders still
// round-trip exactly.
//
//mp:hotpath
func encodeEntriesInto(dst []byte, entries [][3]int64) {
	var prevI, prevJ int64
	off := 0
	for _, e := range entries {
		off += binary.PutUvarint(dst[off:], zigzag(e[0]-prevI))
		off += binary.PutUvarint(dst[off:], zigzag(e[1]-prevJ))
		off += binary.PutUvarint(dst[off:], zigzag(e[2]))
		prevI, prevJ = e[0], e[1]
	}
}

// decodeEntriesInto fills dst from the delta-coded stream, returning
// the bytes consumed and whether the stream was well-formed.
//
//mp:hotpath
func decodeEntriesInto(dst [][3]int64, src []byte) (int, bool) {
	var prevI, prevJ int64
	off := 0
	for k := range dst {
		di, n := binary.Uvarint(src[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		dj, n := binary.Uvarint(src[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		v, n := binary.Uvarint(src[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		prevI += unzigzag(di)
		prevJ += unzigzag(dj)
		dst[k][0] = prevI
		dst[k][1] = prevJ
		dst[k][2] = unzigzag(v)
	}
	return off, true
}

// packBitsetInto sets one bit per entry in the row-major bitset dst
// (caller-zeroed, (rows·cols+7)/8 bytes). Entries are canonical
// Boolean wire: in bounds, so the index arithmetic cannot escape dst.
//
//mp:hotpath
func packBitsetInto(dst []byte, entries [][3]int64, cols int64) {
	for _, e := range entries {
		cell := e[0]*cols + e[1]
		dst[cell>>3] |= 1 << uint(cell&7)
	}
}

// unpackBitsetInto regenerates the canonical triples from the
// row-major bitset, reporting whether exactly len(dst) bits were set.
//
//mp:hotpath
func unpackBitsetInto(dst [][3]int64, src []byte, rows, cols int64) bool {
	k := 0
	total := rows * cols
	for bi, by := range src {
		if by == 0 {
			continue
		}
		base := int64(bi) * 8
		for bit := int64(0); bit < 8; bit++ {
			if by&(1<<uint(bit)) == 0 {
				continue
			}
			cell := base + bit
			if cell >= total || k >= len(dst) {
				return false
			}
			dst[k][0] = cell / cols
			dst[k][1] = cell % cols
			dst[k][2] = 1
			k++
		}
	}
	return k == len(dst)
}

func (r *binReader) matrix() Matrix {
	var m Matrix
	m.Rows = r.intv()
	m.Cols = r.intv()
	switch r.byte() {
	case matrixPayloadSparse:
		n, ok := r.sliceLen(3)
		if !ok {
			return m
		}
		m.Entries = make([][3]int64, n)
		used, ok := decodeEntriesInto(m.Entries, r.b[r.off:])
		if !ok {
			r.fail()
			return m
		}
		r.off += used
	case matrixPayloadBitset:
		nnz := r.uvar()
		if r.bad {
			return m
		}
		if m.Rows <= 0 || m.Cols <= 0 || int64(m.Rows)*int64(m.Cols) > maxMatrixElems {
			r.fail()
			return m
		}
		bitsetBytes := (int64(m.Rows)*int64(m.Cols) + 7) / 8
		if nnz > uint64(m.Rows)*uint64(m.Cols) || bitsetBytes > int64(r.rem()) {
			r.fail()
			return m
		}
		m.Entries = make([][3]int64, nnz)
		if !unpackBitsetInto(m.Entries, r.b[r.off:r.off+int(bitsetBytes)], int64(m.Rows), int64(m.Cols)) {
			r.fail()
			return m
		}
		r.off += int(bitsetBytes)
	default:
		r.fail()
	}
	return m
}

// ---- Request / Result ----

func appendRequest(b []byte, q Request) []byte {
	b = putStr(b, q.Matrix)
	b = putStr(b, q.Kind)
	b = appendMatrix(b, q.A)
	b = putF64(b, q.P)
	b = putF64(b, q.Eps)
	b = putF64(b, q.Phi)
	b = putF64(b, q.Kappa)
	if q.Seed == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	return putU64(b, *q.Seed)
}

func (r *binReader) request() Request {
	var q Request
	q.Matrix = r.str()
	q.Kind = r.str()
	q.A = r.matrix()
	q.P = r.f64()
	q.Eps = r.f64()
	q.Phi = r.f64()
	q.Kappa = r.f64()
	if r.boolv() {
		s := r.u64()
		q.Seed = &s
	}
	return q
}

func appendResult(b []byte, res Result) []byte {
	b = putStr(b, res.Kind)
	b = putStr(b, res.Matrix)
	b = putF64(b, res.Estimate)
	b = putZig(b, int64(res.I))
	b = putZig(b, int64(res.J))
	b = putZig(b, int64(res.Witness))
	if res.Entries == nil {
		b = putUvar(b, 0)
	} else {
		b = putUvar(b, uint64(len(res.Entries))+1)
		for _, e := range res.Entries {
			b = putZig(b, int64(e.I))
			b = putZig(b, int64(e.J))
			b = putF64(b, e.Value)
		}
	}
	b = putZig(b, res.Bits)
	b = putZig(b, int64(res.Rounds))
	b = putU64(b, res.Seed)
	return putZig(b, int64(res.Elapsed))
}

func (r *binReader) result() Result {
	var res Result
	res.Kind = r.str()
	res.Matrix = r.str()
	res.Estimate = r.f64()
	res.I = r.intv()
	res.J = r.intv()
	res.Witness = r.intv()
	if n, ok := r.sliceLen(10); ok {
		res.Entries = make([]Entry, n)
		for k := range res.Entries {
			res.Entries[k].I = r.intv()
			res.Entries[k].J = r.intv()
			res.Entries[k].Value = r.f64()
		}
	}
	res.Bits = r.zig()
	res.Rounds = r.intv()
	res.Seed = r.u64()
	res.Elapsed = time.Duration(r.zig())
	return res
}

// ---- batches ----

func appendBatchRequest(b []byte, br BatchRequest) []byte {
	if br.Queries == nil {
		return putUvar(b, 0)
	}
	b = putUvar(b, uint64(len(br.Queries))+1)
	for _, q := range br.Queries {
		b = appendRequest(b, q)
	}
	return b
}

func (r *binReader) batchRequest() BatchRequest {
	var br BatchRequest
	if n, ok := r.sliceLen(16); ok {
		br.Queries = make([]Request, n)
		for k := range br.Queries {
			br.Queries[k] = r.request()
		}
	}
	return br
}

func appendBatchResponse(b []byte, br BatchResponse) []byte {
	if br.Results == nil {
		return putUvar(b, 0)
	}
	b = putUvar(b, uint64(len(br.Results))+1)
	for _, it := range br.Results {
		if it.Result == nil {
			b = append(b, 0)
		} else {
			b = append(b, 1)
			b = appendResult(b, *it.Result)
		}
		b = putStr(b, it.Error)
	}
	return b
}

func (r *binReader) batchResponse() BatchResponse {
	var br BatchResponse
	if n, ok := r.sliceLen(2); ok {
		br.Results = make([]BatchItem, n)
		for k := range br.Results {
			if r.boolv() {
				res := r.result()
				br.Results[k].Result = &res
			}
			br.Results[k].Error = r.str()
		}
	}
	return br
}

// ---- row updates ----

func appendRowEntries(b []byte, entries [][2]int64) []byte {
	if entries == nil {
		return putUvar(b, 0)
	}
	b = putUvar(b, uint64(len(entries))+1)
	for _, e := range entries {
		b = putZig(b, e[0])
		b = putZig(b, e[1])
	}
	return b
}

func (r *binReader) rowEntries() [][2]int64 {
	n, ok := r.sliceLen(2)
	if !ok {
		return nil
	}
	ents := make([][2]int64, n)
	for k := range ents {
		ents[k][0] = r.zig()
		ents[k][1] = r.zig()
	}
	return ents
}

func appendUpdateRequest(b []byte, u UpdateRequest) []byte {
	if u.Updates == nil {
		b = putUvar(b, 0)
	} else {
		b = putUvar(b, uint64(len(u.Updates))+1)
		for _, up := range u.Updates {
			b = putZig(b, int64(up.Row))
			b = appendRowEntries(b, up.Entries)
		}
	}
	if u.Row == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = putZig(b, int64(*u.Row))
	}
	b = appendRowEntries(b, u.Entries)
	b = putBool(b, u.Delta)
	return putUvar(b, u.Key)
}

func (r *binReader) updateRequest() UpdateRequest {
	var u UpdateRequest
	if n, ok := r.sliceLen(2); ok {
		u.Updates = make([]RowUpdate, n)
		for k := range u.Updates {
			u.Updates[k].Row = r.intv()
			u.Updates[k].Entries = r.rowEntries()
		}
	}
	if r.boolv() {
		row := r.intv()
		u.Row = &row
	}
	u.Entries = r.rowEntries()
	u.Delta = r.boolv()
	u.Key = r.uvar()
	return u
}

// ---- catalog replies ----

func appendMatrixInfo(b []byte, mi MatrixInfo) []byte {
	b = putStr(b, mi.Name)
	b = putZig(b, int64(mi.Rows))
	b = putZig(b, int64(mi.Cols))
	b = putZig(b, int64(mi.NNZ))
	b = putBool(b, mi.Binary)
	b = putBool(b, mi.NonNeg)
	// Seconds + nanoseconds: covers the full time.Time instant range
	// (UnixNano alone mangles the zero time). Decoded as UTC.
	b = putZig(b, mi.Uploaded.Unix())
	return putUvar(b, uint64(mi.Uploaded.Nanosecond()))
}

func (r *binReader) matrixInfo() MatrixInfo {
	var mi MatrixInfo
	mi.Name = r.str()
	mi.Rows = r.intv()
	mi.Cols = r.intv()
	mi.NNZ = r.intv()
	mi.Binary = r.boolv()
	mi.NonNeg = r.boolv()
	sec := r.zig()
	nsec := r.uvar()
	if nsec >= 1e9 {
		r.fail()
		return mi
	}
	mi.Uploaded = time.Unix(sec, int64(nsec)).UTC()
	return mi
}

func appendUpdateReply(b []byte, u UpdateReply) []byte {
	b = appendMatrixInfo(b, u.MatrixInfo)
	b = putUvar(b, u.Sub)
	b = putZig(b, int64(u.RowsApplied))
	b = putZig(b, int64(u.CacheRefreshed))
	return putZig(b, int64(u.CacheDropped))
}

func (r *binReader) updateReply() UpdateReply {
	var u UpdateReply
	u.MatrixInfo = r.matrixInfo()
	u.Sub = r.uvar()
	u.RowsApplied = r.intv()
	u.CacheRefreshed = r.intv()
	u.CacheDropped = r.intv()
	return u
}

func appendUploadReply(b []byte, u UploadReply) []byte {
	b = appendMatrixInfo(b, u.MatrixInfo)
	if u.Evicted == nil {
		return putUvar(b, 0)
	}
	b = putUvar(b, uint64(len(u.Evicted))+1)
	for _, s := range u.Evicted {
		b = putStr(b, s)
	}
	return b
}

func (r *binReader) uploadReply() UploadReply {
	var u UploadReply
	u.MatrixInfo = r.matrixInfo()
	if n, ok := r.sliceLen(1); ok {
		u.Evicted = make([]string, n)
		for k := range u.Evicted {
			u.Evicted[k] = r.str()
		}
	}
	return u
}
