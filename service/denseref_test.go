package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/bitmat"
	"repro/internal/intmat"
)

// A served matrix used to be held as dense cells — scanned at install,
// cloned and patched cell by cell on a row update, converted to bit rows
// — and is now held once, as non-zero lists. The dense forms live on here
// as the references the list forms are held to: replaced, not forked.

// scanDense tallies a dense matrix in one pass.
func scanDense(d *intmat.Dense) cellCounts {
	var c cellCounts
	for i := 0; i < d.Rows(); i++ {
		for _, v := range d.Row(i) {
			if v == 0 {
				continue
			}
			c.nnz++
			if v != 1 {
				c.nonBinary++
			}
			if v < 0 {
				c.negative++
			}
		}
	}
	return c
}

// toBool is the bit form of a 0/1 dense matrix.
func toBool(d *intmat.Dense) *bitmat.Matrix {
	b := bitmat.New(d.Rows(), d.Cols())
	for i := 0; i < d.Rows(); i++ {
		for j, v := range d.Row(i) {
			if v != 0 {
				b.Set(i, j, true)
			}
		}
	}
	return b
}

// patchDense is the dense-cell row patch: a clone, each patched row
// cleared (replace) and its entries stored or added.
func patchDense(d *intmat.Dense, ups []RowUpdate, delta bool) *intmat.Dense {
	next := d.Clone()
	for _, u := range ups {
		row := next.Row(u.Row)
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
	return next
}

// TestPatchRows: the shared patcher on a hand-checkable matrix — a row
// replaced, a delta that cancels one cell and creates another — and the
// three position faults it refuses before touching anything.
func TestPatchRows(t *testing.T) {
	w, _, _, err := Matrix{Rows: 4, Cols: 4, Entries: [][3]int64{{0, 0, 2}, {1, 1, 3}, {1, 3, 4}, {2, 2, 1}}}.List()
	if err != nil {
		t.Fatal(err)
	}
	got, rows, err := PatchRows(w, []RowUpdate{{Row: 1, Entries: [][2]int64{{0, 9}}}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, []int{1}) {
		t.Fatalf("rows = %v", rows)
	}
	if want := [][3]int64{{0, 0, 2}, {1, 0, 9}, {2, 2, 1}}; !reflect.DeepEqual(MatrixFromList(got).Entries, want) {
		t.Fatalf("replace: got %v want %v", MatrixFromList(got).Entries, want)
	}
	got, _, err = PatchRows(w, []RowUpdate{{Row: 1, Entries: [][2]int64{{2, 5}, {1, -3}}}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][3]int64{{0, 0, 2}, {1, 2, 5}, {1, 3, 4}, {2, 2, 1}}; !reflect.DeepEqual(MatrixFromList(got).Entries, want) {
		t.Fatalf("delta: got %v want %v", MatrixFromList(got).Entries, want)
	}
	if got.NNZ() != 4 || w.NNZ() != 4 {
		t.Fatalf("NNZ %d after the delta, %d in the matrix it was derived from", got.NNZ(), w.NNZ())
	}
	for name, ups := range map[string][]RowUpdate{
		"row out of range": {{Row: 4}},
		"col out of range": {{Row: 0, Entries: [][2]int64{{4, 1}}}},
		"duplicate column": {{Row: 0, Entries: [][2]int64{{1, 1}, {1, 2}}}},
	} {
		if _, _, err := PatchRows(w, ups, false); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestRowPatchMatchesDensePatch drives random patch histories — replace
// and delta, rows emptied and refilled, values that walk the matrix
// through signed / non-negative / 0-1, deltas that cancel cells to zero —
// through the engine, and holds every step to the dense-cell patch: equal
// lists, NNZ and flags, bit rows, and the cache_refreshed /
// cache_dropped the contracts of the cached kinds imply.
func TestRowPatchMatchesDensePatch(t *testing.T) {
	const n = 14
	kinds := []string{"lp", "l0sample", "l1sample", "exact", "linf", "linfkappa", "hh"}
	seed := uint64(77)
	for trial := 0; trial < 3; trial++ {
		rnd := rand.New(rand.NewSource(int64(5200 + trial)))
		e := NewEngine(Config{Shards: 1})
		base := testBinaryMatrix(uint64(5210+trial), n, 0.3)
		if _, _, err := e.PutMatrix("m", base); err != nil {
			t.Fatal(err)
		}
		baseList, _, _, _ := base.List()
		ref := baseList.ToDense()
		alice := testBinaryMatrix(uint64(5220+trial), n, 0.3)
		cached := map[string]bool{}
		warm := func() {
			for _, kind := range kinds {
				req := Request{Matrix: "m", Kind: kind, A: alice, P: 1, Eps: 0.5, Seed: &seed}
				if kind == "hh" {
					req.Eps = 0.1 // at most the default ϕ = 0.2
				}
				_, err := e.Estimate(context.Background(), req)
				if err != nil && !errors.Is(err, ErrBadRequest) {
					t.Fatalf("warming %s: %v", kind, err)
				}
				cached[kind] = err == nil
			}
		}
		warm()
		for step := 0; step < 40; step++ {
			delta := rnd.Intn(2) == 0
			vals := [][2]int64{{1, 1}, {0, 3}, {-3, 3}}[rnd.Intn(3)]
			lo, hi := vals[0], vals[1]
			touched := 1 + rnd.Intn(3)
			if step%10 == 9 { // every row replaced by a 0/1 row: both flags regained
				delta, lo, hi, touched = false, 1, 1, n
			}
			var ups []RowUpdate
			for _, k := range rnd.Perm(n)[:touched] {
				u := RowUpdate{Row: k}
				switch mode := rnd.Intn(5); {
				case mode == 0 && !delta: // the row emptied
				case mode == 1 && delta: // every cell of the row cancelled to zero
					for j, v := range ref.Row(k) {
						if v != 0 {
							u.Entries = append(u.Entries, [2]int64{int64(j), -v})
						}
					}
				default:
					for _, j := range rnd.Perm(n)[:rnd.Intn(n)] {
						u.Entries = append(u.Entries, [2]int64{int64(j), lo + rnd.Int63n(hi-lo+1)})
					}
				}
				ups = append(ups, u)
			}
			rep, err := e.UpdateRows("m", UpdateRequest{Updates: ups, Delta: delta})
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			ref = patchDense(ref, ups, delta)
			want := scanDense(ref)
			sm, _ := e.reg.peek("m")
			if !sm.list.Equal(intmat.FromDense(ref)) {
				t.Fatalf("trial %d step %d: the patched lists are not the dense patch's", trial, step)
			}
			if sm.cells != want || rep.NNZ != want.nnz || rep.Binary != (want.nonBinary == 0) || rep.NonNeg != (want.negative == 0) {
				t.Fatalf("trial %d step %d: tallies %+v reply %+v, a scan of the dense patch counts %+v", trial, step, sm.cells, rep.MatrixInfo, want)
			}
			if (sm.bits != nil) != rep.Binary || (sm.bits != nil && !sm.bits.Equal(toBool(ref))) {
				t.Fatalf("trial %d step %d: bit rows differ from the dense patch's", trial, step)
			}
			// lp, l0sample and hh take any matrix; exact and l1sample need
			// it non-negative, the ℓ∞ kinds 0/1.
			wantRefreshed, wantDropped := 0, 0
			for _, kind := range kinds {
				ok := true
				switch kind {
				case "exact", "l1sample":
					ok = rep.NonNeg
				case "linf", "linfkappa":
					ok = rep.Binary
				}
				switch {
				case !cached[kind]:
				case ok:
					wantRefreshed++
				default:
					wantDropped++
				}
			}
			if rep.CacheRefreshed != wantRefreshed || rep.CacheDropped != wantDropped {
				t.Fatalf("trial %d step %d: cache_refreshed %d cache_dropped %d, want %d and %d (cached %v, flags %+v)",
					trial, step, rep.CacheRefreshed, rep.CacheDropped, wantRefreshed, wantDropped, cached, rep.MatrixInfo)
			}
			warm()
		}
		e.Close()
	}
}

// allocDelta is the bytes fn allocates (MemStats.TotalAlloc, so a
// collection in between does not hide them).
func allocDelta(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRowUpdateAllocationFollowsTouchedRows: a one-row patch of a
// 512 × 512 served matrix allocates for the row it touches and the
// per-row headers — not for a copy of the matrix (the dense clone was
// 2 MB).
func TestRowUpdateAllocationFollowsTouchedRows(t *testing.T) {
	e := NewEngine(Config{Shards: 1})
	defer e.Close()
	if _, _, err := e.PutMatrix("m", testBinaryMatrix(5300, 512, 0.1)); err != nil {
		t.Fatal(err)
	}
	req := UpdateRequest{Updates: []RowUpdate{{Row: 7, Entries: [][2]int64{{3, 2}, {400, 1}, {17, -1}}}}}
	got := allocDelta(func() {
		if _, err := e.UpdateRows("m", req); err != nil {
			t.Fatal(err)
		}
	})
	if got >= 256<<10 {
		t.Fatalf("a one-row patch of a 512×512 matrix allocated %d bytes, want < 256 KiB", got)
	}
}

// TestBeginUploadAllocationFollowsEntries: a begin pins one bit per
// declared cell, not eight bytes — a 4096 × 4096 begin allocated 136 MB
// when staging zeroed a dense buffer — and what a chunked commit installs
// is what a single-body put of the same cells installs, explicit zeros
// and out-of-order chunks included.
func TestBeginUploadAllocationFollowsEntries(t *testing.T) {
	e := NewEngine(Config{})
	defer e.Close()
	var up UploadInfo
	got := allocDelta(func() {
		var err error
		if up, err = e.BeginUpload("big", 4096, 4096); err != nil {
			t.Fatal(err)
		}
	})
	if got >= 4<<20 {
		t.Fatalf("a 4096×4096 begin allocated %d bytes, want < 4 MiB", got)
	}
	if err := e.AbortUpload("big", up.Upload); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name   string
		chunks [][][3]int64 // each with its own row range, in sending order
		ranges [][2]int
	}{
		{"signed, out of order, explicit zeros",
			[][][3]int64{{{5, 1, -2}, {4, 0, 0}, {4, 3, 7}}, {{0, 2, 1}, {1, 1, 0}}, {{2, 5, 3}, {3, 0, 1}, {2, 0, 1}}},
			[][2]int{{4, 6}, {0, 2}, {2, 4}}},
		{"binary", [][][3]int64{{{3, 3, 1}, {2, 1, 1}}, {{0, 0, 1}, {1, 5, 0}}}, [][2]int{{2, 4}, {0, 2}}},
		{"non-negative", [][][3]int64{{{0, 0, 4}}, {{5, 5, 1}, {4, 4, 0}}}, [][2]int{{0, 1}, {4, 6}}},
	} {
		up, err := e.BeginUpload("chunked", 6, 6)
		if err != nil {
			t.Fatal(err)
		}
		var all [][3]int64
		for x, chunk := range c.chunks {
			if _, err := e.AppendChunk("chunked", up.Upload, c.ranges[x][0], c.ranges[x][1], chunk); err != nil {
				t.Fatalf("%s: chunk %d: %v", c.name, x, err)
			}
			all = append(all, chunk...)
		}
		chunked, _, err := e.CommitUpload("chunked", up.Upload)
		if err != nil {
			t.Fatalf("%s: commit: %v", c.name, err)
		}
		whole, _, err := e.PutMatrix("whole", Matrix{Rows: 6, Cols: 6, Entries: all})
		if err != nil {
			t.Fatalf("%s: put: %v", c.name, err)
		}
		if chunked.NNZ != whole.NNZ || chunked.Binary != whole.Binary || chunked.NonNeg != whole.NonNeg {
			t.Fatalf("%s: chunked commit catalogued %+v, the single-body put %+v", c.name, chunked, whole)
		}
		a, _ := e.reg.peek("chunked")
		b, _ := e.reg.peek("whole")
		if !a.list.Equal(b.list) {
			t.Fatalf("%s: chunked commit and single-body put hold different matrices", c.name)
		}
	}
}

// TestSnapshotPayloadUnchanged: a snapshot encoded from the served lists
// is byte for byte the one encoded from the dense form's row-major
// non-zeros, so data directories move between the two freely.
func TestSnapshotPayloadUnchanged(t *testing.T) {
	uploaded := time.Unix(1700000000, 123)
	for _, m := range []Matrix{
		testBinaryMatrix(5400, 24, 0.2),
		{Rows: 5, Cols: 7, Entries: [][3]int64{{4, 6, -3}, {0, 0, 0}, {2, 3, 1 << 40}, {2, 1, 5}}},
		{Rows: 3, Cols: 3},
	} {
		list, _, _, err := m.List()
		if err != nil {
			t.Fatal(err)
		}
		got := EncodeMatrixSnapshot(MatrixFromList(list), uploaded)
		want := EncodeMatrixSnapshot(MatrixFromDense(list.ToDense()), uploaded)
		if !bytes.Equal(got, want) {
			t.Fatalf("%dx%d: the snapshot of the lists is %d bytes, of the dense form %d, and they differ", m.Rows, m.Cols, len(got), len(want))
		}
	}
}

// TestParentDataDirRecovers: a data directory written by an mpserver
// from before the registry held lists — a snapshot and a WAL suffix per
// matrix, the process killed — recovers to the catalog listing that
// server gave and to its pinned-seed answer for every kind (the recipe
// is testdata/parent_datadir/gen.py).
func TestParentDataDirRecovers(t *testing.T) {
	raw, err := os.ReadFile("testdata/parent_datadir/answers.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Matrices []MatrixInfo `json:"matrices"`
		A        Matrix       `json:"a"`
		Answers  []struct {
			Request Request `json:"request"`
			Result  Result  `json:"result"`
		} `json:"answers"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() // recovery may truncate and rewrite: work on a copy
	if err := os.CopyFS(dir, os.DirFS("testdata/parent_datadir/data")); err != nil {
		t.Fatal(err)
	}
	d := openPersistDisk(t, dir, nil)
	defer d.Close()
	e := NewEngine(Config{Store: d})
	defer e.Close()
	if st := e.Stats().Store; st.RecoveredMatrices != 2 || st.ReplayedRecords != 5 || st.RecoveryErrors != 0 {
		t.Fatalf("recovered %d matrices, replayed %d records, %d errors; want 2, 5 and none", st.RecoveredMatrices, st.ReplayedRecords, st.RecoveryErrors)
	}
	byName := func(infos []MatrixInfo) []MatrixInfo {
		sort.Slice(infos, func(a, b int) bool { return infos[a].Name < infos[b].Name })
		return infos
	}
	got, want := byName(e.Matrices()), byName(golden.Matrices)
	if len(got) != len(want) {
		t.Fatalf("recovered %d matrices, the parent listed %d", len(got), len(want))
	}
	for x := range want {
		if !got[x].Uploaded.Equal(want[x].Uploaded) {
			t.Fatalf("%s: uploaded %v, the parent listed %v", want[x].Name, got[x].Uploaded, want[x].Uploaded)
		}
		got[x].Uploaded = want[x].Uploaded // the same instant, whatever the location
		if got[x] != want[x] {
			t.Fatalf("recovered %+v, the parent listed %+v", got[x], want[x])
		}
	}
	for _, ans := range golden.Answers {
		req := ans.Request
		req.A = golden.A
		res, err := e.Estimate(context.Background(), req)
		if err != nil {
			t.Fatalf("%s on %s: %v", req.Kind, req.Matrix, err)
		}
		res.Elapsed = 0
		if !reflect.DeepEqual(*res, ans.Result) {
			t.Fatalf("%s on %s (p=%v): recovered engine answers %+v, the parent answered %+v", req.Kind, req.Matrix, req.P, *res, ans.Result)
		}
	}
}
