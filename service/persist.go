package service

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// Durable persistence: when Config.Store is set, the engine snapshots
// every installed matrix (PutMatrix / CommitUpload) and appends one
// WAL record per row update, then recovers on boot by replaying the
// log over the latest snapshot. The write ordering is what makes a
// kill -9 at any filesystem operation safe:
//
//   - Install persists the snapshot BEFORE the registry insert, so an
//     acknowledged upload is always durable; a crash between the two
//     re-serves the upload on restart (at-least-once, never lost).
//   - A row update appends its WAL record BEFORE the copy-on-write
//     registry swap. A record whose swap then lost (a racing full
//     replacement) is harmless junk: replay filters records by the
//     snapshot's epoch (the upload generation), and the replacement
//     that won carries a fresh one.
//   - Delete (and LRU eviction) tombstones the durable state BEFORE
//     the registry removal, so a restart cannot resurrect a deleted
//     matrix.
//
// Snapshot payloads reuse the binary wire codec (the same bytes the
// hot path ships) under the store's own CRC-framed container; WAL
// payloads are binary-encoded UpdateRequests. A background compactor
// re-snapshots a matrix after Config.SnapshotEvery WAL records and
// truncates the covered log suffix, bounding replay time.

// ErrStore marks a durable-store failure surfaced by a write path
// (mapped to 500 store_error). The in-memory state is unchanged: an
// operation that cannot be made durable is not applied.
var ErrStore = errors.New("service: durable store failed")

// EncodeMatrixSnapshot renders a snapshot payload: the wire matrix in
// binary-codec form behind an 8-byte upload timestamp (Unix
// nanoseconds, little-endian), so recovery restores the catalog's
// Uploaded field too.
func EncodeMatrixSnapshot(m Matrix, uploaded time.Time) []byte {
	b := make([]byte, 0, 8+32+16*len(m.Entries))
	b = binary.LittleEndian.AppendUint64(b, uint64(uploaded.UnixNano()))
	b, _ = AppendBinary(b, m) // Matrix is always encodable
	return b
}

// decodeMatrixSnapshot parses a snapshot payload.
func decodeMatrixSnapshot(b []byte) (Matrix, time.Time, error) {
	if len(b) < 8 {
		return Matrix{}, time.Time{}, fmt.Errorf("snapshot payload of %d bytes", len(b))
	}
	var m Matrix
	if err := DecodeBinary(b[8:], &m); err != nil {
		return Matrix{}, time.Time{}, err
	}
	return m, time.Unix(0, int64(binary.LittleEndian.Uint64(b[:8]))), nil
}

// PersistStats is the /stats view of the persistence layer.
type PersistStats struct {
	// Enabled reports whether a durable store is configured.
	Enabled bool `json:"enabled"`
	// Snapshots counts matrix snapshots persisted (installs and
	// compactions).
	Snapshots int64 `json:"snapshots"`
	// WALAppends counts row-update records appended to the WAL.
	WALAppends int64 `json:"wal_appends"`
	// Compactions counts background snapshot compactions (snapshot plus
	// WAL truncation).
	Compactions int64 `json:"compactions"`
	// Tombstones counts durable states removed by DELETE and LRU
	// eviction.
	Tombstones int64 `json:"tombstones"`
	// Errors counts failed persistence operations (the paired request
	// fails with store_error; best-effort paths only count).
	Errors int64 `json:"errors"`
	// RecoveredMatrices counts matrices restored from durable state at
	// boot.
	RecoveredMatrices int64 `json:"recovered_matrices"`
	// ReplayedRecords counts WAL records replayed over snapshots at
	// boot.
	ReplayedRecords int64 `json:"replayed_records"`
	// RecoveryErrors counts matrices (or log suffixes) skipped at boot
	// because their durable state did not validate.
	RecoveryErrors int64 `json:"recovery_errors"`
	// Backend holds the store's own operation counters (fsyncs, torn
	// records, bytes).
	Backend store.Stats `json:"backend"`
}

// persister is the engine's persistence state. Its mutex serializes
// all persist I/O — including the compactor's — which is what keeps a
// compaction reading a stale registry entry from ever overwriting a
// newer snapshot: epochs only move forward under the lock, and the
// compactor re-checks lastEpoch inside it.
type persister struct {
	store store.Store
	every int // WAL records per matrix before compaction; <0 never

	mu        sync.Mutex
	walCount  map[string]int    // records since the matrix's last snapshot
	lastEpoch map[string]uint64 // newest persisted epoch per matrix

	compactCh chan string

	snapshots    atomic.Int64
	walAppends   atomic.Int64
	compactions  atomic.Int64
	tombstones   atomic.Int64
	errs         atomic.Int64
	recovered    atomic.Int64
	replayed     atomic.Int64
	recoveryErrs atomic.Int64
}

func newPersister(s store.Store, every int) *persister {
	return &persister{
		store:     s,
		every:     every,
		walCount:  make(map[string]int),
		lastEpoch: make(map[string]uint64),
		compactCh: make(chan string, 64),
	}
}

func (p *persister) snapshot() PersistStats {
	return PersistStats{
		Enabled:           true,
		Snapshots:         p.snapshots.Load(),
		WALAppends:        p.walAppends.Load(),
		Compactions:       p.compactions.Load(),
		Tombstones:        p.tombstones.Load(),
		Errors:            p.errs.Load(),
		RecoveredMatrices: p.recovered.Load(),
		ReplayedRecords:   p.replayed.Load(),
		RecoveryErrors:    p.recoveryErrs.Load(),
		Backend:           p.store.Stats(),
	}
}

// persistPut makes an install durable: snapshot at (gen, sub), then
// truncate the log records the snapshot covers. Called BEFORE the
// registry insert; a snapshot failure fails the install. A truncation
// failure does not — the snapshot landed, and any stale records it
// should have dropped are filtered by epoch on replay anyway.
func (e *Engine) persistPut(name string, sm *servedMatrix) error {
	p := e.persist
	if p == nil {
		return nil
	}
	payload := EncodeMatrixSnapshot(MatrixFromList(sm.list), sm.info.Uploaded)
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.store.SaveSnapshot(name, store.Snapshot{Epoch: sm.gen, Seq: sm.sub, Payload: payload}); err != nil {
		p.errs.Add(1)
		return fmt.Errorf("%w: %v", ErrStore, err)
	}
	p.snapshots.Add(1)
	if err := p.store.TruncateWAL(name, sm.gen, sm.sub); err != nil {
		p.errs.Add(1)
	}
	p.lastEpoch[name] = sm.gen
	p.walCount[name] = 0
	return nil
}

// persistUpdate appends one row update to the matrix's WAL. Called
// BEFORE the registry's copy-on-write swap; an append failure fails
// the update. Returns with the compaction trigger sent outside the
// persist lock.
func (e *Engine) persistUpdate(name string, epoch, seq uint64, ups []RowUpdate, delta bool) error {
	p := e.persist
	if p == nil {
		return nil
	}
	payload, _ := AppendBinary(nil, UpdateRequest{Updates: ups, Delta: delta})
	p.mu.Lock()
	if err := p.store.AppendWAL(name, store.Record{Epoch: epoch, Seq: seq, Payload: payload}); err != nil {
		p.errs.Add(1)
		p.mu.Unlock()
		return fmt.Errorf("%w: %v", ErrStore, err)
	}
	p.walAppends.Add(1)
	p.walCount[name]++
	compact := p.every > 0 && p.walCount[name] >= p.every
	p.mu.Unlock()
	if compact {
		select {
		case p.compactCh <- name:
		default: // compactor busy; the next update re-triggers
		}
	}
	return nil
}

// persistDelete tombstones a matrix's durable state. Called BEFORE the
// registry removal; a failure fails the delete (leaving the matrix
// served) rather than risking resurrection on restart.
func (e *Engine) persistDelete(name string) error {
	p := e.persist
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.store.Delete(name); err != nil {
		p.errs.Add(1)
		return fmt.Errorf("%w: %v", ErrStore, err)
	}
	p.tombstones.Add(1)
	delete(p.walCount, name)
	delete(p.lastEpoch, name)
	return nil
}

// persistTombstones best-effort tombstones LRU-evicted matrices. The
// evictions already happened in memory, so failures only count — but
// without the attempt a restart would resurrect every evicted matrix
// into an over-capacity registry.
func (e *Engine) persistTombstones(names []string) {
	p := e.persist
	if p == nil || len(names) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, name := range names {
		if err := p.store.Delete(name); err != nil {
			p.errs.Add(1)
			continue
		}
		p.tombstones.Add(1)
		delete(p.walCount, name)
		delete(p.lastEpoch, name)
	}
}

// compactLoop is the background snapshot compactor: it re-snapshots a
// matrix whose WAL grew past Config.SnapshotEvery records and
// truncates the covered suffix, bounding recovery replay.
func (e *Engine) compactLoop() {
	for {
		select {
		case <-e.closed:
			return
		case name := <-e.persist.compactCh:
			e.compactOne(name)
		}
	}
}

// compactOne snapshots one matrix's current registry state. Everything
// happens under the persist lock, with the registry entry read inside
// it: an install that persisted a newer epoch either completed before
// (lastEpoch moved on, the stale trigger is skipped) or serializes
// after this compaction. Without that discipline a compactor holding a
// pre-replacement entry could overwrite a newer snapshot whose WAL
// truncation already dropped the old epoch's records — recovery would
// then serve the replaced matrix.
func (e *Engine) compactOne(name string) {
	p := e.persist
	p.mu.Lock()
	defer p.mu.Unlock()
	sm, ok := e.reg.peek(name)
	if !ok || p.lastEpoch[name] != sm.gen {
		return // deleted, or a replacement's snapshot is already newer
	}
	payload := EncodeMatrixSnapshot(MatrixFromList(sm.list), sm.info.Uploaded)
	if err := p.store.SaveSnapshot(name, store.Snapshot{Epoch: sm.gen, Seq: sm.sub, Payload: payload}); err != nil {
		p.errs.Add(1)
		return
	}
	p.snapshots.Add(1)
	if err := p.store.TruncateWAL(name, sm.gen, sm.sub); err != nil {
		p.errs.Add(1)
		return
	}
	p.walCount[name] = 0
	p.compactions.Add(1)
}

// recoverFromStore rebuilds the registry from durable state: for every
// stored matrix, decode the latest snapshot and replay its WAL records
// in sequence. Runs during NewEngine, before any request is admitted.
//
// Replay filters: a record applies only when its epoch matches the
// snapshot's and its sequence is the immediate successor of the
// current sub-version. Stale epochs (a replaced matrix's old records
// surviving a crash before truncation) and already-covered sequences
// skip silently — they are expected crash shapes, not corruption. A
// sequence gap or an undecodable record ends the matrix's replay at
// the valid prefix and counts a recovery error.
func (e *Engine) recoverFromStore() {
	p := e.persist
	names, err := p.store.Names()
	if err != nil {
		p.recoveryErrs.Add(1)
		return
	}
	var maxEpoch uint64
	for _, name := range names {
		snap, recs, err := p.store.Load(name)
		if err != nil {
			p.recoveryErrs.Add(1)
			continue
		}
		if snap == nil {
			// A WAL with no snapshot is the durable residue of an update
			// whose racing delete or replacement won: nothing servable.
			continue
		}
		m, uploaded, err := decodeMatrixSnapshot(snap.Payload)
		if err != nil {
			p.recoveryErrs.Add(1)
			continue
		}
		list, _, _, err := m.List()
		if err != nil {
			p.recoveryErrs.Add(1)
			continue
		}
		sm := newServedMatrix(name, list, uploaded, snap.Epoch, snap.Seq)
		applied := 0
		for _, r := range recs {
			if r.Epoch != snap.Epoch || r.Seq <= sm.sub {
				continue
			}
			if r.Seq != sm.sub+1 {
				p.recoveryErrs.Add(1)
				break
			}
			var ur UpdateRequest
			if err := DecodeBinary(r.Payload, &ur); err != nil {
				p.recoveryErrs.Add(1)
				break
			}
			ups, err := ur.Normalized()
			if err != nil {
				p.recoveryErrs.Add(1)
				break
			}
			next, _, err := patchServed(sm, ups, ur.Delta)
			if err != nil {
				p.recoveryErrs.Add(1)
				break
			}
			sm = next
			applied++
			p.replayed.Add(1)
		}
		if snap.Epoch > maxEpoch {
			maxEpoch = snap.Epoch
		}
		evicted := e.reg.put(name, sm)
		e.stats.evict(len(evicted))
		p.walCount[name] = applied
		p.lastEpoch[name] = snap.Epoch
		p.recovered.Add(1)
		e.persistTombstones(evicted)
	}
	if maxEpoch > e.genSeq.Load() {
		e.genSeq.Store(maxEpoch)
	}
}
