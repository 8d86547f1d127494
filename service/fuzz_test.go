package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/intmat"
)

// Native fuzz targets for the service's untrusted surfaces: the JSON
// request decoders, the wire-matrix validator, chunked-upload staging,
// and the row-update path. Seed corpora live in testdata/fuzz; CI runs
// each target for a short -fuzztime on every push and for longer on
// the nightly schedule.

// fuzzEngine is a small engine for decoder fuzzing: tiny limits so a
// hostile input cannot make a fuzz exec slow.
func fuzzEngine() *Engine {
	return NewEngine(Config{
		Workers: 2, QueueDepth: 2, MaxMatrices: 4, Shards: 1,
		MaxUploads: 4, MaxStagedElems: 1 << 16,
	})
}

// FuzzMatrixToDense feeds arbitrary JSON to the wire-matrix decoder
// and validator. Invariants: no panic; an accepted matrix has in-range
// dimensions, and its reported flags agree with a scan of the dense
// form it produced.
func FuzzMatrixToDense(f *testing.F) {
	f.Add([]byte(`{"rows":2,"cols":2,"entries":[[0,0,1],[1,1,-3]]}`))
	f.Add([]byte(`{"rows":1,"cols":1,"entries":[[0,0,0]]}`))
	f.Add([]byte(`{"rows":-1,"cols":5}`))
	f.Add([]byte(`{"rows":9999999999,"cols":9999999999}`))
	f.Add([]byte(`{"rows":2,"cols":2,"entries":[[0,0,1],[0,0,2]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Matrix
		if json.Unmarshal(data, &m) != nil {
			return
		}
		if len(m.Entries) > 1<<12 || int64(m.Rows)*int64(m.Cols) > 1<<20 {
			return // keep a fuzz exec cheap; big shapes are covered by unit tests
		}
		list, isBinary, nonNeg, err := m.List()
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("List returned a non-request error: %v", err)
			}
			return
		}
		d := list.ToDense()
		if !dimsInRange(m.Rows, m.Cols) {
			t.Fatalf("accepted out-of-range dims %dx%d", m.Rows, m.Cols)
		}
		c := scanDense(d)
		if wantBinary, wantNonNeg := c.nonBinary == 0, c.negative == 0; isBinary != wantBinary || nonNeg != wantNonNeg {
			t.Fatalf("flags (%v,%v) disagree with dense scan (%v,%v)", isBinary, nonNeg, wantBinary, wantNonNeg)
		}
		if c.nnz > len(m.Entries) {
			t.Fatalf("NNZ %d exceeds wire entries %d", c.nnz, len(m.Entries))
		}
	})
}

// cellByCellDense is the wire-matrix validator the listing replaced —
// every cell bounds-checked, marked in a CellSet and stored in a zeroed
// dense matrix, in wire order — kept as the reference FuzzWireMatrixListing
// holds the listing to.
func cellByCellDense(m Matrix) (d *intmat.Dense, binary, nonNeg bool, err error) {
	if err := CheckDims(m.Rows, m.Cols); err != nil {
		return nil, false, false, err
	}
	d = intmat.NewDense(m.Rows, m.Cols)
	var seen CellSet
	seen.Reset(m.Rows, m.Cols)
	binary, nonNeg = true, true
	for _, e := range m.Entries {
		i, j, v := e[0], e[1], e[2]
		if i < 0 || i >= int64(m.Rows) || j < 0 || j >= int64(m.Cols) {
			return nil, false, false, fmt.Errorf("%w: entry (%d, %d) outside %dx%d matrix", ErrBadRequest, i, j, m.Rows, m.Cols)
		}
		if seen.Add(i, j) {
			return nil, false, false, errDuplicateEntry(i, j)
		}
		if v != 0 && v != 1 {
			binary = false
		}
		if v < 0 {
			nonNeg = false
		}
		d.Set(int(i), int(j), v)
	}
	return d, binary, nonNeg, nil
}

// FuzzWireMatrixListing builds a small matrix's wire entries from the
// fuzz stream — unsorted, repeated, explicit zeros, a step outside the
// matrix on every side — and holds Matrix.List to the cell-by-cell
// reference: it refuses exactly the inputs the reference refuses (with a
// request-level error that is the reference's own whenever the input has
// a single fault), and otherwise lists FromDense of the reference's
// matrix with the same two flags.
func FuzzWireMatrixListing(f *testing.F) {
	// After the two dimension words, an entry is (row+1, col+1, value+2).
	f.Add([]byte{3, 0, 3, 0, 1, 1, 3, 1, 3, 3, 2, 2, 5, 3, 1, 1})          // row-major, no fault
	f.Add([]byte{3, 0, 3, 0, 3, 3, 3, 1, 2, 4, 3, 1, 5, 1, 1, 3, 2, 2, 1}) // shuffled, no fault
	f.Add([]byte{2, 0, 2, 0, 1, 1, 3, 2, 1, 3, 1, 1, 4})                   // (0,0) twice
	f.Add([]byte{2, 0, 2, 0, 1, 2, 2, 1, 2, 5})                            // an explicit zero, then its cell again
	f.Add([]byte{4, 0, 4, 0, 0, 1, 3, 2, 2, 3, 2, 2, 3})                   // row -1, then a duplicate
	f.Add([]byte{4, 0, 4, 0, 2, 2, 3, 2, 2, 3, 5, 1, 3})                   // a duplicate, then row 4
	f.Fuzz(func(t *testing.T, data []byte) {
		off := 0
		m := Matrix{Rows: fuzzWord(data, &off) % 9, Cols: fuzzWord(data, &off) % 9}
		for ; off+3 <= len(data); off += 3 {
			// Rows and columns from -1 to one past the last; values -2 … 3.
			m.Entries = append(m.Entries, [3]int64{
				int64(int(data[off])%(m.Rows+2)) - 1,
				int64(int(data[off+1])%(m.Cols+2)) - 1,
				int64(data[off+2]%6) - 2,
			})
		}
		want, wantBinary, wantNonNeg, wantErr := cellByCellDense(m)
		got, binary, nonNeg, err := m.List()
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%+v: list err %v, the cell-by-cell reference %v", m, err, wantErr)
		}
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("%+v: list returned a non-request error: %v", m, err)
			}
			// The two walk the entries in different orders, so they may name
			// different faults of an input that has several; a single fault
			// both must name, in the same words.
			if faults(m) == 1 && err.Error() != wantErr.Error() {
				t.Fatalf("%+v: list says %q, the reference %q", m, err, wantErr)
			}
			return
		}
		if !got.Equal(intmat.FromDense(want)) || binary != wantBinary || nonNeg != wantNonNeg {
			t.Fatalf("%+v: list gives %v (binary %v, non-negative %v), the reference %v (%v, %v)",
				m, got.Entries(), binary, nonNeg, want.NonZeros(), wantBinary, wantNonNeg)
		}
	})
}

// faults counts what is wrong with a wire matrix of in-range dimensions:
// entries outside it, and entries on a cell an earlier entry holds.
func faults(m Matrix) (n int) {
	seen := map[[2]int64]bool{}
	for _, e := range m.Entries {
		switch cell := [2]int64{e[0], e[1]}; {
		case e[0] < 0 || e[0] >= int64(m.Rows) || e[1] < 0 || e[1] >= int64(m.Cols):
			n++
		case seen[cell]:
			n++
		default:
			seen[cell] = true
		}
	}
	return n
}

// FuzzRequestDecoders runs arbitrary bodies through DecodeJSON for
// each request shape the HTTP layer accepts. Invariants: no panic, and
// every failure is a recognized request-level error.
func FuzzRequestDecoders(f *testing.F) {
	f.Add([]byte(`{"op":"begin","rows":4,"cols":4}`))
	f.Add([]byte(`{"op":"append","upload":"up-1-2","row_start":0,"row_end":2,"entries":[[0,0,1]]}`))
	f.Add([]byte(`{"matrix":"m","kind":"lp","a":{"rows":1,"cols":1,"entries":[[0,0,1]]}}`))
	f.Add([]byte(`{"updates":[{"row":1,"entries":[[0,2]]}],"delta":true}`))
	f.Add([]byte(`{"queries":[]}`))
	f.Add([]byte(`garbage`))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, v := range []any{&ChunkRequest{}, &Request{}, &UpdateRequest{}, &BatchRequest{}} {
			r := httptest.NewRequest("POST", "/fuzz", bytes.NewReader(data))
			w := httptest.NewRecorder()
			if err := DecodeJSON(w, r, v); err != nil {
				if !errors.Is(err, ErrBadRequest) && !errors.Is(err, ErrBodyTooLarge) {
					t.Fatalf("DecodeJSON returned a non-request error: %v", err)
				}
			}
		}
	})
}

// fuzzWord reads the next little-endian uint16 from the fuzz stream.
func fuzzWord(data []byte, off *int) int {
	if *off+2 > len(data) {
		return 0
	}
	v := int(binary.LittleEndian.Uint16(data[*off:]))
	*off += 2
	return v
}

// FuzzChunkedUploadLifecycle drives the staging validator with
// fuzz-derived chunks. Invariants: no panic; every rejection is a
// recognized error; and when the upload commits, the installed matrix
// is identical — info and estimate-visible content — to a single-body
// PutMatrix of the accumulated entries.
func FuzzChunkedUploadLifecycle(f *testing.F) {
	f.Add([]byte{4, 0, 4, 0, 0, 0, 2, 0, 1, 0, 1, 0, 1, 0})
	f.Add([]byte{2, 0, 2, 0, 0, 0, 2, 0, 0, 0, 0, 0, 5, 0})
	f.Add([]byte{8, 0, 8, 0, 1, 0, 3, 0, 2, 0, 2, 0, 200, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		e := fuzzEngine()
		defer e.Close()
		off := 0
		rows := fuzzWord(data, &off)%16 + 1
		cols := fuzzWord(data, &off)%16 + 1
		up, err := e.BeginUpload("fz", rows, cols)
		if err != nil {
			t.Fatalf("begin %dx%d: %v", rows, cols, err)
		}
		var accepted [][3]int64
		for off+8 <= len(data) {
			rowStart := fuzzWord(data, &off) % (rows + 2)
			rowEnd := fuzzWord(data, &off) % (rows + 2)
			i := fuzzWord(data, &off)
			j := fuzzWord(data, &off) % (cols + 2)
			v := int64(i%5) - 2
			entries := [][3]int64{{int64(rowStart + i%2), int64(j), v}}
			if _, err := e.AppendChunk("fz", up.Upload, rowStart, rowEnd, entries); err != nil {
				if !errors.Is(err, ErrBadRequest) && !errors.Is(err, ErrUploadNotFound) {
					t.Fatalf("append: unexpected error class %v", err)
				}
				continue
			}
			accepted = append(accepted, entries...)
		}
		info, _, err := e.CommitUpload("fz", up.Upload)
		if err != nil {
			t.Fatalf("commit: %v", err)
		}
		ref := fuzzEngine()
		defer ref.Close()
		want, _, err := ref.PutMatrix("fz", Matrix{Rows: rows, Cols: cols, Entries: accepted})
		if err != nil {
			t.Fatalf("single-body PutMatrix of accepted chunks rejected: %v", err)
		}
		if info.NNZ != want.NNZ || info.Binary != want.Binary || info.NonNeg != want.NonNeg ||
			info.Rows != want.Rows || info.Cols != want.Cols {
			t.Fatalf("chunked install %+v diverged from single-body install %+v", info, want)
		}
	})
}

// FuzzUpdateRowsEngine drives the row-update validator and apply path
// with fuzz-derived patches against a fixed served matrix. Invariants:
// no panic; rejections are request-level; an accepted update reports
// catalog flags identical to a fresh upload of the naively patched
// matrix, and the exact protocol answers the naive matrix's value.
func FuzzUpdateRowsEngine(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 0}, false)
	f.Add([]byte{3, 0, 0, 0, 0, 0, 9, 0}, true)
	f.Add([]byte{1, 0, 1, 0, 1, 0, 1, 0}, false)
	f.Fuzz(func(t *testing.T, data []byte, delta bool) {
		const n = 6
		base := Matrix{Rows: n, Cols: n, Entries: [][3]int64{{0, 0, 1}, {1, 2, 2}, {3, 3, 1}, {5, 1, 3}}}
		e := fuzzEngine()
		defer e.Close()
		if _, _, err := e.PutMatrix("m", base); err != nil {
			t.Fatal(err)
		}
		var req UpdateRequest
		req.Delta = delta
		off := 0
		for off+4 <= len(data) && len(req.Updates) < 4 {
			u := RowUpdate{Row: fuzzWord(data, &off)%(n+2) - 1}
			for k := 0; k < 2 && off+2 <= len(data); k++ {
				w := fuzzWord(data, &off)
				u.Entries = append(u.Entries, [2]int64{int64(w%(n+2)) - 1, int64(w%7) - 3})
			}
			req.Updates = append(req.Updates, u)
		}
		rep, err := e.UpdateRows("m", req)
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		// Naively apply the same patch to a dense oracle.
		list, _, _, _ := base.List()
		d := list.ToDense()
		for _, u := range req.Updates {
			row := d.Row(u.Row)
			if !delta {
				clear(row)
			}
			for _, ent := range u.Entries {
				if delta {
					row[ent[0]] += ent[1]
				} else {
					row[ent[0]] = ent[1]
				}
			}
		}
		ref := fuzzEngine()
		defer ref.Close()
		want, _, err := ref.PutMatrix("m", MatrixFromDense(d))
		if err != nil {
			t.Fatalf("oracle upload: %v", err)
		}
		if rep.NNZ != want.NNZ || rep.Binary != want.Binary || rep.NonNeg != want.NonNeg {
			t.Fatalf("update info %+v diverged from oracle %+v", rep.MatrixInfo, want)
		}
		if !want.NonNeg {
			return // exact kind needs non-negative inputs
		}
		ident := Matrix{Rows: n, Cols: n}
		for i := 0; i < n; i++ {
			ident.Entries = append(ident.Entries, [3]int64{int64(i), int64(i), 1})
		}
		got, err := e.Estimate(context.Background(), Request{Matrix: "m", Kind: "exact", A: ident})
		if err != nil {
			t.Fatalf("exact after update: %v", err)
		}
		oracle, err := ref.Estimate(context.Background(), Request{Matrix: "m", Kind: "exact", A: ident})
		if err != nil {
			t.Fatalf("exact on oracle: %v", err)
		}
		if got.Estimate != oracle.Estimate {
			t.Fatalf("exact after update = %v, oracle %v", got.Estimate, oracle.Estimate)
		}
	})
}

// TestFuzzSeedsSmoke replays the checked-in corpus directories in a
// normal test run (go test executes corpus entries even without
// -fuzz), and keeps the corpus paths referenced so a rename breaks
// loudly.
func TestFuzzSeedsSmoke(t *testing.T) {
	for _, dir := range []string{
		"FuzzMatrixToDense", "FuzzRequestDecoders",
		"FuzzChunkedUploadLifecycle", "FuzzUpdateRowsEngine",
	} {
		if strings.ContainsAny(dir, " /") {
			t.Fatalf("bad corpus dir %q", dir)
		}
	}
}
