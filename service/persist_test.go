package service

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/store/storetest"
)

// openPersistDisk opens a local-disk store for a test engine, failing
// the test on configuration errors.
func openPersistDisk(t *testing.T, dir string, fs store.FS) *store.Disk {
	t.Helper()
	d, err := store.OpenDisk(store.DiskConfig{Dir: dir, Fsync: store.FsyncAlways, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// persistMutation is one logical state change of the crash-parity
// workload. Every mutation keeps matrix "m" binary and non-negative so
// all seven protocol kinds stay valid against it.
type persistMutation struct {
	name string
	run  func(e *Engine) error
}

func persistWorkload() []persistMutation {
	m0 := testBinaryMatrix(51, 8, 0.5)
	m1 := testBinaryMatrix(52, 8, 0.4)
	upd := func(row int, cols ...int64) UpdateRequest {
		ents := make([][2]int64, len(cols))
		for i, c := range cols {
			ents[i] = [2]int64{c, 1}
		}
		return UpdateRequest{Updates: []RowUpdate{{Row: row, Entries: ents}}}
	}
	return []persistMutation{
		{"put", func(e *Engine) error { _, _, err := e.PutMatrix("m", m0); return err }},
		{"update-1", func(e *Engine) error { _, err := e.UpdateRows("m", upd(1, 0, 3)); return err }},
		{"update-2", func(e *Engine) error { _, err := e.UpdateRows("m", upd(4, 2)); return err }},
		{"replace", func(e *Engine) error { _, _, err := e.PutMatrix("m", m1); return err }},
		{"update-3", func(e *Engine) error { _, err := e.UpdateRows("m", upd(6, 1, 5, 7)); return err }},
	}
}

// persistFingerprint runs every protocol kind against matrix "m" with
// a pinned seed and renders the full answers (sampled witnesses and
// exact costs included, wall-clock excluded) to a comparable string.
// Protocols are seed-deterministic, so two engines serving byte-equal
// Bob state produce equal fingerprints — and only then.
func persistFingerprint(t *testing.T, e *Engine) string {
	t.Helper()
	seed := uint64(424242)
	a := testBinaryMatrix(60, 8, 0.5)
	reqs := []Request{
		{Matrix: "m", Kind: "lp", P: 1, Eps: 0.3, Seed: &seed, A: a},
		{Matrix: "m", Kind: "l0sample", Eps: 0.5, Seed: &seed, A: a},
		{Matrix: "m", Kind: "l1sample", Seed: &seed, A: a},
		{Matrix: "m", Kind: "exact", Seed: &seed, A: a},
		{Matrix: "m", Kind: "linf", Eps: 0.5, Seed: &seed, A: a},
		{Matrix: "m", Kind: "linfkappa", Kappa: 4, Seed: &seed, A: a},
		{Matrix: "m", Kind: "hh", Phi: 0.3, Eps: 0.15, Seed: &seed, A: a},
	}
	var out string
	for _, req := range reqs {
		res, err := e.Estimate(context.Background(), req)
		if err != nil {
			if errors.Is(err, ErrMatrixNotFound) {
				out += req.Kind + ":absent;"
				continue
			}
			t.Fatalf("%s: %v", req.Kind, err)
		}
		out += fmt.Sprintf("%s:%v/%d/%d/%d/%v/%d/%d;",
			req.Kind, res.Estimate, res.I, res.J, res.Witness, res.Entries, res.Bits, res.Rounds)
	}
	return out
}

// persistReferences fingerprints every prefix of the workload on a
// store-less engine: refs[k] is the observable state after the first k
// mutations. The crash sweep matches recovered engines against these.
func persistReferences(t *testing.T, shards int, muts []persistMutation) []string {
	t.Helper()
	e := NewEngine(Config{Shards: shards})
	defer e.Close()
	refs := make([]string, len(muts)+1)
	refs[0] = persistFingerprint(t, e)
	for i, m := range muts {
		if err := m.run(e); err != nil {
			t.Fatalf("reference %s: %v", m.name, err)
		}
		refs[i+1] = persistFingerprint(t, e)
	}
	return refs
}

// TestCrashRecoveryParity is the service-level crash sweep: the
// workload runs against a disk store whose filesystem is killed at
// every mutating operation (each failure kind), the engine restarts on
// the surviving files, and the recovered state must serve answers
// byte-identical — across all seven protocol kinds, sequential and
// sharded — to a never-crashed engine holding either the state after
// the last acknowledged mutation or, when the in-flight mutation's
// durable write landed before the crash, the state one past it.
func TestCrashRecoveryParity(t *testing.T) {
	for _, shards := range []int{1, 3} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			muts := persistWorkload()
			refs := persistReferences(t, shards, muts)

			// Probe run: count the workload's mutating store operations
			// with the fault point past reach.
			probeFS := storetest.Wrap(store.OSFS{}, storetest.Fault{At: 1 << 30, Kind: storetest.Fail})
			d := openPersistDisk(t, t.TempDir(), probeFS)
			e := NewEngine(Config{Store: d, Shards: shards})
			for _, m := range muts {
				if err := m.run(e); err != nil {
					t.Fatalf("probe %s: %v", m.name, err)
				}
			}
			e.Close()
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			total := probeFS.Ops()
			if total < 15 {
				t.Fatalf("probe counted only %d store ops; the sweep would be vacuous", total)
			}

			// The sequential config sweeps every op; the sharded one
			// re-proves the recovery path on a sparser grid (shard-count
			// parity of the protocols themselves is pinned elsewhere).
			step := 1
			if shards != 1 {
				step = 3
			}
			for _, kind := range []storetest.FaultKind{storetest.Fail, storetest.Torn, storetest.ShortSync} {
				for at := 1; at <= total; at += step {
					dir := t.TempDir()
					ffs := storetest.Wrap(store.OSFS{}, storetest.Fault{At: at, Kind: kind})
					fd := openPersistDisk(t, dir, ffs)
					fe := NewEngine(Config{Store: fd, Shards: shards})
					acked := 0
					for _, m := range muts {
						if err := m.run(fe); err != nil {
							break
						}
						acked++
					}
					fe.Close()
					_ = fd.Close() // the crashed store's final sync may error

					rd := openPersistDisk(t, dir, nil)
					re := NewEngine(Config{Store: rd, Shards: shards})
					got := persistFingerprint(t, re)
					re.Close()
					if err := rd.Close(); err != nil {
						t.Fatal(err)
					}
					ok := got == refs[acked]
					if !ok && acked < len(muts) {
						ok = got == refs[acked+1]
					}
					if !ok {
						t.Fatalf("%v at op %d (acked %d/%d): recovered state matches no reference\n got %s\nwant %s",
							kind, at, acked, len(muts), got, refs[acked])
					}
				}
			}
		})
	}
}

// TestPersistRestartRoundTrip pins the catalog side of recovery: the
// restarted engine re-serves the same matrices with identical info —
// NNZ and flags rescanned from the recovered bytes, upload time read
// back from the snapshot header — and the same estimates.
func TestPersistRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := openPersistDisk(t, dir, nil)
	e := NewEngine(Config{Store: d})
	for _, m := range persistWorkload() {
		if err := m.run(e); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
	}
	if _, _, err := e.PutMatrix("other", testMatrix(53, 8, 0.5)); err != nil {
		t.Fatal(err)
	}
	want := persistFingerprint(t, e)
	wantInfos := e.Matrices()
	e.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openPersistDisk(t, dir, nil)
	defer d2.Close()
	e2 := NewEngine(Config{Store: d2})
	defer e2.Close()
	if got := persistFingerprint(t, e2); got != want {
		t.Fatalf("recovered fingerprint\n got %s\nwant %s", got, want)
	}
	gotInfos := e2.Matrices()
	if len(gotInfos) != len(wantInfos) {
		t.Fatalf("recovered %d matrices, want %d", len(gotInfos), len(wantInfos))
	}
	byName := make(map[string]MatrixInfo, len(wantInfos))
	for _, mi := range wantInfos {
		byName[mi.Name] = mi
	}
	for _, got := range gotInfos {
		w, ok := byName[got.Name]
		if !ok {
			t.Fatalf("recovered unexpected matrix %q", got.Name)
		}
		if got.Rows != w.Rows || got.Cols != w.Cols || got.NNZ != w.NNZ ||
			got.Binary != w.Binary || got.NonNeg != w.NonNeg ||
			!got.Uploaded.Equal(w.Uploaded) {
			t.Fatalf("recovered info %+v, want %+v", got, w)
		}
	}
	st := e2.Stats().Store
	if st.RecoveredMatrices != 2 || st.RecoveryErrors != 0 {
		t.Fatalf("recovery stats %+v", st)
	}
}

// TestDeleteThenRestartStaysDeleted pins the tombstone ordering: a
// DELETE removes the durable state before the registry entry, so a
// restart cannot resurrect the matrix — not even its WAL residue.
func TestDeleteThenRestartStaysDeleted(t *testing.T) {
	dir := t.TempDir()
	d := openPersistDisk(t, dir, nil)
	e := NewEngine(Config{Store: d})
	for _, m := range persistWorkload() {
		if err := m.run(e); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
	}
	if _, _, err := e.PutMatrix("keep", testBinaryMatrix(54, 8, 0.5)); err != nil {
		t.Fatal(err)
	}
	if err := e.DeleteMatrix("m"); err != nil {
		t.Fatal(err)
	}
	if ts := e.Stats().Store.Tombstones; ts != 1 {
		t.Fatalf("tombstones = %d, want 1", ts)
	}
	e.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openPersistDisk(t, dir, nil)
	defer d2.Close()
	e2 := NewEngine(Config{Store: d2})
	defer e2.Close()
	infos := e2.Matrices()
	if len(infos) != 1 || infos[0].Name != "keep" {
		t.Fatalf("recovered %+v, want only \"keep\"", infos)
	}
}

// TestEvictThenRestartStaysEvicted pins the LRU-eviction tombstones: a
// matrix the registry evicted must not come back on restart, or a
// bounded registry would recover over capacity.
func TestEvictThenRestartStaysEvicted(t *testing.T) {
	dir := t.TempDir()
	d := openPersistDisk(t, dir, nil)
	e := NewEngine(Config{Store: d, MaxMatrices: 2})
	var evicted []string
	for i, name := range []string{"a", "b", "c"} {
		_, ev, err := e.PutMatrix(name, testBinaryMatrix(uint64(55+i), 8, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		evicted = append(evicted, ev...)
	}
	if len(evicted) != 1 {
		t.Fatalf("evicted %v, want one name", evicted)
	}
	if ts := e.Stats().Store.Tombstones; ts != 1 {
		t.Fatalf("tombstones = %d, want 1", ts)
	}
	survivors := make(map[string]bool)
	for _, mi := range e.Matrices() {
		survivors[mi.Name] = true
	}
	e.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openPersistDisk(t, dir, nil)
	defer d2.Close()
	e2 := NewEngine(Config{Store: d2, MaxMatrices: 2})
	defer e2.Close()
	infos := e2.Matrices()
	if len(infos) != 2 {
		t.Fatalf("recovered %d matrices, want 2", len(infos))
	}
	for _, mi := range infos {
		if mi.Name == evicted[0] {
			t.Fatalf("evicted matrix %q resurrected", evicted[0])
		}
		if !survivors[mi.Name] {
			t.Fatalf("recovered unexpected matrix %q", mi.Name)
		}
	}
}

// TestCompactionBoundsWAL exercises the background compactor: once the
// WAL passes SnapshotEvery records the matrix is re-snapshotted and
// the covered log truncated, so recovery replays a bounded suffix —
// and the compacted state still recovers byte-identical.
func TestCompactionBoundsWAL(t *testing.T) {
	dir := t.TempDir()
	d := openPersistDisk(t, dir, nil)
	e := NewEngine(Config{Store: d, SnapshotEvery: 2})
	if _, _, err := e.PutMatrix("m", testBinaryMatrix(57, 8, 0.5)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		req := UpdateRequest{Updates: []RowUpdate{{Row: i, Entries: [][2]int64{{int64(i), 1}}}}}
		if _, err := e.UpdateRows("m", req); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := e.Stats().Store
		if st.Compactions >= 1 && st.Backend.WALTruncations >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compactor never ran: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	want := persistFingerprint(t, e)
	e.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openPersistDisk(t, dir, nil)
	defer d2.Close()
	e2 := NewEngine(Config{Store: d2, SnapshotEvery: 2})
	defer e2.Close()
	if got := persistFingerprint(t, e2); got != want {
		t.Fatalf("compacted recovery\n got %s\nwant %s", got, want)
	}
	st := e2.Stats().Store
	if st.ReplayedRecords > 3 {
		t.Fatalf("replayed %d records after compaction, want ≤ 3", st.ReplayedRecords)
	}
	if st.RecoveredMatrices != 1 || st.RecoveryErrors != 0 {
		t.Fatalf("recovery stats %+v", st)
	}
}

// TestStoreMetricsEndpointE2E extends the /metrics-vs-/stats equality
// contract over the persistence families: every mp_store_* counter
// must equal the store counters the /stats snapshot reports.
func TestStoreMetricsEndpointE2E(t *testing.T) {
	d := openPersistDisk(t, t.TempDir(), nil)
	t.Cleanup(func() { d.Close() })
	srv, client := newTestServer(t, Config{Store: d, SnapshotEvery: 2})
	ctx := context.Background()

	if _, err := client.UploadMatrix(ctx, "m", testBinaryMatrix(58, 8, 0.5)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.UploadMatrix(ctx, "gone", testBinaryMatrix(59, 8, 0.5)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := client.ReplaceRow(ctx, "m", i, [][2]int64{{int64(i), 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.DeleteMatrix(ctx, "gone"); err != nil {
		t.Fatal(err)
	}
	// Three WAL records with SnapshotEvery=2 trigger exactly one
	// compaction; wait it out so the counters are quiescent before the
	// equality check.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := client.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Store.Compactions >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compactor never ran: %+v", st.Store)
		}
		time.Sleep(5 * time.Millisecond)
	}

	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Store.Enabled || st.Store.Snapshots < 3 || st.Store.WALAppends != 3 || st.Store.Tombstones != 1 {
		t.Fatalf("store stats did not track the workload: %+v", st.Store)
	}
	got := scrapeMetrics(t, srv.URL)
	for series, want := range map[string]float64{
		"mp_store_snapshots_total":          float64(st.Store.Snapshots),
		"mp_store_wal_appends_total":        float64(st.Store.WALAppends),
		"mp_store_compactions_total":        float64(st.Store.Compactions),
		"mp_store_tombstones_total":         float64(st.Store.Tombstones),
		"mp_store_errors_total":             float64(st.Store.Errors),
		"mp_store_recovered_matrices_total": float64(st.Store.RecoveredMatrices),
		"mp_store_replayed_records_total":   float64(st.Store.ReplayedRecords),
		"mp_store_recovery_errors_total":    float64(st.Store.RecoveryErrors),
		"mp_store_fsyncs_total":             float64(st.Store.Backend.Fsyncs),
		"mp_store_torn_records_total":       float64(st.Store.Backend.TornRecords),
		"mp_store_snapshot_bytes_total":     float64(st.Store.Backend.SnapshotBytes),
		"mp_store_wal_bytes_total":          float64(st.Store.Backend.WALBytes),
	} {
		if got[series] != want {
			t.Errorf("%s = %v, want %v", series, got[series], want)
		}
	}
}

// TestStoreErrorMapsTo500 pins the error envelope: a write path whose
// durable store fails must answer 500 store_error, and the in-memory
// state must stay unchanged (the operation was not applied).
func TestStoreErrorMapsTo500(t *testing.T) {
	ffs := storetest.Wrap(store.OSFS{}, storetest.Fault{At: 1, Kind: storetest.Fail})
	d := openPersistDisk(t, t.TempDir(), ffs)
	t.Cleanup(func() { d.Close() })
	_, client := newTestServer(t, Config{Store: d})
	ctx := context.Background()

	_, err := client.UploadMatrix(ctx, "m", testBinaryMatrix(61, 8, 0.5))
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 500 || apiErr.Code != "store_error" {
		t.Fatalf("upload with dead store: err=%v, want 500 store_error", err)
	}
	if infos, err := client.Matrices(ctx); err != nil || len(infos) != 0 {
		t.Fatalf("failed install leaked into the registry: %v %v", infos, err)
	}
}

// TestRecoverySkipsCorruptState: recovery serves every matrix whose
// durable state validates and skips (counting a recovery error) what
// does not — an undecodable snapshot loses only that matrix, a garbage
// or gapped WAL record ends only that matrix's replay at the valid
// prefix.
func TestRecoverySkipsCorruptState(t *testing.T) {
	dir := t.TempDir()
	d := openPersistDisk(t, dir, nil)
	e := NewEngine(Config{Store: d})
	if _, _, err := e.PutMatrix("good", testBinaryMatrix(70, 8, 0.5)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.PutMatrix("torn", testBinaryMatrix(71, 8, 0.5)); err != nil {
		t.Fatal(err)
	}
	e.Close()
	d.Close()

	// Corrupt the durable state out-of-band: an undecodable snapshot for
	// a third matrix, a garbage WAL record on "torn", a sequence gap on
	// "good".
	d2 := openPersistDisk(t, dir, nil)
	if err := d2.SaveSnapshot("bad", store.Snapshot{Epoch: 1, Payload: []byte("not a snapshot")}); err != nil {
		t.Fatal(err)
	}
	tornSnap, _, err := d2.Load("torn")
	if err != nil || tornSnap == nil {
		t.Fatalf("load torn: %v, %v", tornSnap, err)
	}
	if err := d2.AppendWAL("torn", store.Record{Epoch: tornSnap.Epoch, Seq: tornSnap.Seq + 1, Payload: []byte("junk")}); err != nil {
		t.Fatal(err)
	}
	goodSnap, _, err := d2.Load("good")
	if err != nil || goodSnap == nil {
		t.Fatalf("load good: %v, %v", goodSnap, err)
	}
	if err := d2.AppendWAL("good", store.Record{Epoch: goodSnap.Epoch, Seq: goodSnap.Seq + 5, Payload: []byte("gap")}); err != nil {
		t.Fatal(err)
	}
	d2.Close()

	d3 := openPersistDisk(t, dir, nil)
	defer d3.Close()
	e2 := NewEngine(Config{Store: d3})
	defer e2.Close()
	st := e2.Stats().Store
	if st.RecoveredMatrices != 2 {
		t.Errorf("recovered %d matrices, want 2 (good, torn)", st.RecoveredMatrices)
	}
	if st.RecoveryErrors != 3 {
		t.Errorf("recovery errors = %d, want 3 (bad snapshot, junk record, gapped record)", st.RecoveryErrors)
	}
	var names []string
	for _, mi := range e2.Matrices() {
		names = append(names, mi.Name)
	}
	if len(names) != 2 {
		t.Fatalf("recovered set = %v, want good+torn only", names)
	}
	for _, name := range names {
		if name != "good" && name != "torn" {
			t.Fatalf("unexpected recovered matrix %q", name)
		}
	}
}

// TestDecodeMatrixSnapshotRejectsShort pins the decoder's framing
// check: a payload shorter than the timestamp header is corruption,
// not a zero matrix.
func TestDecodeMatrixSnapshotRejectsShort(t *testing.T) {
	if _, _, err := decodeMatrixSnapshot([]byte("short")); err == nil {
		t.Fatal("decodeMatrixSnapshot accepted a truncated payload")
	}
}

// TestCompactOneSkipsStaleTriggers drives the compactor directly at
// its guard branches: a trigger for an absent name is a no-op, a
// trigger for a live matrix compacts it, and a trigger surviving past
// the matrix's deletion is skipped rather than resurrecting state.
func TestCompactOneSkipsStaleTriggers(t *testing.T) {
	d := openPersistDisk(t, t.TempDir(), nil)
	defer d.Close()
	e := NewEngine(Config{Store: d, SnapshotEvery: -1})
	defer e.Close()
	if _, _, err := e.PutMatrix("m", testBinaryMatrix(72, 8, 0.5)); err != nil {
		t.Fatal(err)
	}
	e.compactOne("nope")
	if got := e.Stats().Store.Compactions; got != 0 {
		t.Fatalf("compacting an absent name did %d compactions", got)
	}
	e.compactOne("m")
	if got := e.Stats().Store.Compactions; got != 1 {
		t.Fatalf("compacting a live matrix did %d compactions, want 1", got)
	}
	if err := e.DeleteMatrix("m"); err != nil {
		t.Fatal(err)
	}
	e.compactOne("m")
	if got := e.Stats().Store.Compactions; got != 1 {
		t.Fatalf("a stale trigger after delete compacted (total %d)", got)
	}
}

// TestStoreErrorOnDeleteKeepsMatrix pins the tombstone-before-removal
// ordering's failure half: when the durable tombstone cannot be
// written, DELETE fails with ErrStore and the matrix stays served —
// the alternative (removed from memory, resurrected by the next
// restart) would un-delete data the client was told was gone. Evicted
// matrices' tombstones are best-effort by design (the eviction already
// happened), so those only count errors.
func TestStoreErrorOnDeleteKeepsMatrix(t *testing.T) {
	d := openPersistDisk(t, t.TempDir(), nil)
	e := NewEngine(Config{Store: d, MaxMatrices: 2})
	defer e.Close()
	if _, _, err := e.PutMatrix("a", testBinaryMatrix(73, 8, 0.5)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.PutMatrix("b", testBinaryMatrix(74, 8, 0.5)); err != nil {
		t.Fatal(err)
	}
	d.Close() // every store call from here on fails

	if err := e.DeleteMatrix("a"); !errors.Is(err, ErrStore) {
		t.Fatalf("delete with failing store = %v, want ErrStore", err)
	}
	if len(e.Matrices()) != 2 {
		t.Fatalf("failed delete removed the matrix anyway: %v", e.Matrices())
	}
	if got := e.Stats().Store.Errors; got == 0 {
		t.Fatal("failed tombstone not counted as a store error")
	}
}
