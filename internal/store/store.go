// Package store is the durable-persistence seam of the serving tiers:
// a pluggable Store interface over per-matrix snapshots plus a
// write-ahead log of row updates, with a local-disk implementation
// (Disk). The service tier snapshots served matrices through it,
// appends a WAL record per row update, and recovers on boot by
// replaying the WAL over the latest snapshot.
//
// Payloads are opaque bytes: the owning tier encodes them (the service
// reuses its binary wire codec), and the store adds its own framing —
// magic, format version, CRC — so hostile or torn files are detected
// here, below any payload decoding.
//
// Versioning: snapshots and WAL records carry an (Epoch, Seq) pair
// assigned by the owner. The service uses the matrix's upload
// generation as the epoch and its row-update sub-version as the
// sequence, which is what makes recovery unambiguous across full
// replacements: a WAL record is applied only when its epoch matches
// the recovered snapshot's, so records from a replaced matrix's
// previous life can linger in the log (e.g. after a crash between a
// snapshot install and its log truncation) without ever replaying
// into the wrong matrix.
package store

import (
	"errors"
)

// Store errors.
var (
	// ErrClosed is returned by every operation after Close.
	ErrClosed = errors.New("store: closed")
	// ErrCorrupt marks a snapshot file whose framing or checksum does
	// not validate. (A corrupt WAL *tail* is not an error: the valid
	// prefix is recovered and the tail truncated — a torn final write is
	// the expected crash shape.)
	ErrCorrupt = errors.New("store: corrupt file")
)

// Snapshot is one matrix's durable full-state frame.
type Snapshot struct {
	// Epoch is the owner-assigned replacement generation the snapshot
	// belongs to (the service uses the upload generation).
	Epoch uint64
	// Seq is the owner-assigned sequence the snapshot captures (the
	// service uses the row-update sub-version).
	Seq uint64
	// Payload is the owner-encoded matrix state.
	Payload []byte
}

// Record is one WAL entry: an owner-encoded mutation scoped to an
// (Epoch, Seq) version.
type Record struct {
	// Epoch must match the live snapshot's epoch for the record to
	// apply on replay.
	Epoch uint64
	// Seq is the sequence the mutation advances its matrix to.
	Seq uint64
	// Payload is the owner-encoded mutation.
	Payload []byte
}

// Stats snapshots a store's operation counters.
type Stats struct {
	// Snapshots counts snapshot files installed.
	Snapshots int64 `json:"snapshots"`
	// SnapshotBytes is the summed payload size of installed snapshots.
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// WALAppends counts WAL records appended.
	WALAppends int64 `json:"wal_appends"`
	// WALBytes is the summed payload size of appended WAL records.
	WALBytes int64 `json:"wal_bytes"`
	// WALTruncations counts WAL compaction rewrites.
	WALTruncations int64 `json:"wal_truncations"`
	// Deletes counts matrix tombstones (Delete calls that removed
	// state).
	Deletes int64 `json:"deletes"`
	// Loads counts Load calls.
	Loads int64 `json:"loads"`
	// Fsyncs counts fsync calls issued (file and directory).
	Fsyncs int64 `json:"fsyncs"`
	// TornRecords counts WAL records dropped because their frame was
	// short or failed its checksum — the expected shape of a crash
	// mid-append.
	TornRecords int64 `json:"torn_records"`
	// TornBytes is the byte length of the invalid WAL tails truncated.
	TornBytes int64 `json:"torn_bytes"`
	// Errors counts failed store operations.
	Errors int64 `json:"errors"`
}

// Store is the durable persistence seam. Implementations must be safe
// for concurrent use; the zero-value semantics of a missing matrix are
// a nil Snapshot and no records, not an error.
type Store interface {
	// Names lists the matrices with durable state, sorted.
	Names() ([]string, error)
	// Load returns the latest snapshot (nil when none was ever saved)
	// and the valid WAL records, in append order. An invalid WAL tail
	// is truncated and counted, never returned; a corrupt snapshot is
	// ErrCorrupt.
	Load(name string) (*Snapshot, []Record, error)
	// SaveSnapshot atomically installs a new snapshot for name,
	// replacing any previous one.
	SaveSnapshot(name string, snap Snapshot) error
	// AppendWAL appends one record to name's log.
	AppendWAL(name string, rec Record) error
	// TruncateWAL drops the records a snapshot at (epoch, seq) covers:
	// every record with an older epoch, or the same epoch and a
	// sequence ≤ seq.
	TruncateWAL(name string, epoch, seq uint64) error
	// Delete tombstones name's durable state. Deleting an absent name
	// is not an error.
	Delete(name string) error
	// Sync forces any batched writes to durable storage.
	Sync() error
	// Stats snapshots the operation counters.
	Stats() Stats
	// Close flushes and releases the store.
	Close() error
}
