package store

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FsyncMode selects the durability policy of a Disk.
type FsyncMode int

const (
	// FsyncAlways fsyncs every WAL append and snapshot install before
	// acknowledging it — full durability, one fsync per operation.
	FsyncAlways FsyncMode = iota
	// FsyncBatch acknowledges WAL appends after the OS write and fsyncs
	// dirty logs in the background every BatchWindow: a crash can lose
	// at most the last window of acknowledged appends, in exchange for
	// amortizing fsyncs across a burst of updates. Snapshot installs
	// are still synced inline — the rename protocol needs the file
	// durable before the rename, and snapshots are rare.
	FsyncBatch
	// FsyncNever issues no fsyncs. Durability is whatever the OS
	// provides; for tests and throwaway data.
	FsyncNever
)

// ParseFsyncMode maps the -fsync flag values to a mode.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "always", "":
		return FsyncAlways, nil
	case "batch":
		return FsyncBatch, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("store: unknown fsync mode %q (want always, batch, or never)", s)
}

// DiskConfig parameterizes OpenDisk. Zero values select the defaults.
type DiskConfig struct {
	// Dir is the data directory. Required.
	Dir string
	// Fsync is the durability policy. Default FsyncAlways.
	Fsync FsyncMode
	// BatchWindow is the background fsync period under FsyncBatch.
	// Default 5ms.
	BatchWindow time.Duration
	// FS substitutes the filesystem seam; nil selects the real one.
	// Tests inject faults here (see storetest).
	FS FS
}

// Disk is the local-disk Store: one directory per matrix holding a
// name file (the exact registry name, so directory names can be
// filesystem-safe hashes), the latest snapshot, and the WAL.
//
// Crash safety leans on two protocols. Snapshot installs write to a
// temp file, fsync it, and rename over the old snapshot (then fsync
// the directory), so the snapshot file is always either the old or the
// new one, never torn. WAL appends are a single write of a
// CRC-framed record; a crash mid-write leaves a torn tail that the
// next open detects, truncates, and counts — the valid prefix is
// exactly the acknowledged records (under FsyncAlways). Deletes
// remove the name file first and fsync the directory before removing
// the tree, so a crash mid-delete leaves a directory that recovery
// ignores rather than a half-deleted matrix.
type Disk struct {
	dir    string
	mode   FsyncMode
	window time.Duration
	fs     FS

	mu     sync.Mutex
	closed bool
	wals   map[string]*walHandle // open append handles by matrix name
	// n holds the Stats counters outside mu, which appends and snapshot
	// installs hold across fsync: a stats read must not wait on one.
	n diskCounters

	flushWG sync.WaitGroup
	stop    chan struct{}
}

// diskCounters are the live Stats counters.
type diskCounters struct {
	snapshots, snapshotBytes, walAppends, walBytes, walTruncations atomic.Int64
	deletes, loads, fsyncs, tornRecords, tornBytes, errors         atomic.Int64
}

// walHandle is one matrix's open WAL append handle.
type walHandle struct {
	f     File
	path  string
	dirty bool // written since the last fsync (FsyncBatch)
}

// OpenDisk opens (creating if needed) a local-disk store rooted at
// cfg.Dir.
func OpenDisk(cfg DiskConfig) (*Disk, error) {
	if cfg.Dir == "" {
		return nil, errors.New("store: DiskConfig.Dir is required")
	}
	if cfg.FS == nil {
		cfg.FS = OSFS{}
	}
	if cfg.BatchWindow <= 0 {
		cfg.BatchWindow = 5 * time.Millisecond
	}
	if err := cfg.FS.MkdirAll(cfg.Dir); err != nil {
		return nil, fmt.Errorf("store: create data dir: %w", err)
	}
	d := &Disk{
		dir:    cfg.Dir,
		mode:   cfg.Fsync,
		window: cfg.BatchWindow,
		fs:     cfg.FS,
		wals:   make(map[string]*walHandle),
		stop:   make(chan struct{}),
	}
	if d.mode == FsyncBatch {
		d.flushWG.Add(1)
		go d.flushLoop()
	}
	return d, nil
}

// flushLoop is the FsyncBatch background syncer.
func (d *Disk) flushLoop() {
	defer d.flushWG.Done()
	tick := time.NewTicker(d.window)
	defer tick.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-tick.C:
			d.mu.Lock()
			d.syncDirtyLocked()
			d.mu.Unlock()
		}
	}
}

// syncDirtyLocked fsyncs every dirty WAL handle. Callers hold d.mu.
func (d *Disk) syncDirtyLocked() {
	for _, h := range d.wals {
		if !h.dirty {
			continue
		}
		if err := h.f.Sync(); err != nil {
			d.n.errors.Add(1)
			continue
		}
		d.n.fsyncs.Add(1)
		h.dirty = false
	}
}

// dirKey maps a registry name to a filesystem-safe directory name: a
// readable slug prefix plus a 64-bit hash suffix for uniqueness.
func dirKey(name string) string {
	var slug strings.Builder
	for _, r := range name {
		if slug.Len() >= 40 {
			break
		}
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			slug.WriteRune(r)
		default:
			slug.WriteByte('_')
		}
	}
	h := sha256.Sum256([]byte(name))
	return fmt.Sprintf("%s-%x", slug.String(), h[:8])
}

func (d *Disk) matrixDir(name string) string { return filepath.Join(d.dir, dirKey(name)) }
func (d *Disk) namePath(name string) string  { return filepath.Join(d.matrixDir(name), "name") }
func (d *Disk) snapPath(name string) string  { return filepath.Join(d.matrixDir(name), "snap") }
func (d *Disk) walPath(name string) string   { return filepath.Join(d.matrixDir(name), "wal") }
func notExist(err error) bool                { return errors.Is(err, fs.ErrNotExist) }
func (d *Disk) fail(err error) error         { d.n.errors.Add(1); return err }

// nameFileMagic versions the name file ("MPN1" + raw name bytes).
const nameFileMagic = "MPN1"

// Names implements Store. Directories without a valid name file are
// skipped: that is the durable shape of a crash mid-delete (the name
// file goes first) or mid-create (the name file lands before any
// state), so recovery must treat them as absent.
func (d *Disk) Names() ([]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	ents, err := d.fs.ReadDir(d.dir)
	if err != nil {
		if notExist(err) {
			return nil, nil
		}
		return nil, d.fail(fmt.Errorf("store: list data dir: %w", err))
	}
	var names []string
	for _, e := range ents {
		b, err := d.fs.ReadFile(filepath.Join(d.dir, e, "name"))
		if err != nil || len(b) <= len(nameFileMagic) || string(b[:len(nameFileMagic)]) != nameFileMagic {
			continue
		}
		names = append(names, string(b[len(nameFileMagic):]))
	}
	sort.Strings(names)
	return names, nil
}

// ensureDirLocked creates a matrix's directory and name file if they
// do not exist yet. The name file is synced unconditionally (it is
// written once per matrix lifetime): without it the directory is
// invisible to recovery, so the matrix's durability starts here.
func (d *Disk) ensureDirLocked(name string) error {
	dir := d.matrixDir(name)
	if _, err := d.fs.ReadFile(d.namePath(name)); err == nil {
		return nil
	}
	if err := d.fs.MkdirAll(dir); err != nil {
		return err
	}
	f, err := d.fs.Create(d.namePath(name))
	if err != nil {
		return err
	}
	if _, err := f.Write(append([]byte(nameFileMagic), name...)); err != nil {
		f.Close()
		return err
	}
	if err := d.syncFile(f, true); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return d.syncDirOf(dir)
}

// syncFile fsyncs f under the policy; force overrides FsyncBatch (used
// by the rename protocols, whose ordering batching must not relax).
func (d *Disk) syncFile(f File, force bool) error {
	if d.mode == FsyncNever || (d.mode == FsyncBatch && !force) {
		return nil
	}
	if err := f.Sync(); err != nil {
		return err
	}
	d.n.fsyncs.Add(1)
	return nil
}

// syncDirOf fsyncs a directory under the policy.
func (d *Disk) syncDirOf(dir string) error {
	if d.mode == FsyncNever {
		return nil
	}
	if err := d.fs.SyncDir(dir); err != nil {
		return err
	}
	d.n.fsyncs.Add(1)
	return nil
}

// Load implements Store.
func (d *Disk) Load(name string) (*Snapshot, []Record, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, nil, ErrClosed
	}
	d.n.loads.Add(1)
	var snap *Snapshot
	if b, err := d.fs.ReadFile(d.snapPath(name)); err == nil {
		s, derr := decodeSnapshotFile(b)
		if derr != nil {
			return nil, nil, d.fail(fmt.Errorf("snapshot of %q: %w", name, derr))
		}
		snap = &s
	} else if !notExist(err) {
		return nil, nil, d.fail(fmt.Errorf("store: read snapshot of %q: %w", name, err))
	}
	recs, err := d.openWALLocked(name, false)
	if err != nil {
		return nil, nil, d.fail(err)
	}
	return snap, recs, nil
}

// openWALLocked reads and validates name's WAL, truncating any torn
// tail, and (when forAppend) leaves an open append handle cached.
// Returns the valid records. Callers hold d.mu.
func (d *Disk) openWALLocked(name string, forAppend bool) ([]Record, error) {
	path := d.walPath(name)
	if h := d.wals[name]; h != nil {
		// An open handle means the file was validated when it was opened
		// and only whole records were appended since; re-read without
		// re-truncating.
		b, err := d.fs.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("store: read wal of %q: %w", name, err)
		}
		recs, _, _ := parseWAL(b)
		return recs, nil
	}
	b, err := d.fs.ReadFile(path)
	if err != nil && !notExist(err) {
		return nil, fmt.Errorf("store: read wal of %q: %w", name, err)
	}
	var recs []Record
	cur := len(b) // file length after torn-tail repair
	if err == nil {
		var validLen int
		var torn int64
		recs, validLen, torn = parseWAL(b)
		if torn > 0 || validLen < len(b) {
			d.n.tornRecords.Add(torn)
			d.n.tornBytes.Add(int64(len(b) - validLen))
			if validLen < 4 {
				validLen = 0 // no magic either: rewrite as an empty file
			}
			if err := d.fs.Truncate(path, int64(validLen)); err != nil {
				return nil, fmt.Errorf("store: truncate torn wal of %q: %w", name, err)
			}
			cur = validLen
		}
	} else {
		cur = 0
	}
	if !forAppend {
		return recs, nil
	}
	f, err := d.fs.OpenAppend(path)
	if err != nil {
		return nil, fmt.Errorf("store: open wal of %q: %w", name, err)
	}
	if cur < 4 {
		// Fresh (or rewritten-empty) log: write the magic first.
		if _, werr := f.Write([]byte(walMagic)); werr != nil {
			f.Close()
			return nil, fmt.Errorf("store: init wal of %q: %w", name, werr)
		}
	}
	d.wals[name] = &walHandle{f: f, path: path}
	return recs, nil
}

// SaveSnapshot implements Store.
func (d *Disk) SaveSnapshot(name string, snap Snapshot) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if err := d.saveSnapshotLocked(name, snap); err != nil {
		return d.fail(fmt.Errorf("store: snapshot %q: %w", name, err))
	}
	d.n.snapshots.Add(1)
	d.n.snapshotBytes.Add(int64(len(snap.Payload)))
	return nil
}

func (d *Disk) saveSnapshotLocked(name string, snap Snapshot) error {
	if err := d.ensureDirLocked(name); err != nil {
		return err
	}
	tmp := d.snapPath(name) + ".tmp"
	f, err := d.fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(encodeSnapshotFile(snap)); err != nil {
		f.Close()
		return err
	}
	if err := d.syncFile(f, true); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := d.fs.Rename(tmp, d.snapPath(name)); err != nil {
		return err
	}
	return d.syncDirOf(d.matrixDir(name))
}

// AppendWAL implements Store.
func (d *Disk) AppendWAL(name string, rec Record) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if err := d.ensureDirLocked(name); err != nil {
		return d.fail(fmt.Errorf("store: wal dir of %q: %w", name, err))
	}
	h := d.wals[name]
	if h == nil {
		if _, err := d.openWALLocked(name, true); err != nil {
			return d.fail(err)
		}
		h = d.wals[name]
	}
	if _, err := h.f.Write(appendRecord(nil, rec)); err != nil {
		// The write may have landed partially: drop the handle so the
		// next append revalidates (and truncates) the tail.
		h.f.Close()
		delete(d.wals, name)
		return d.fail(fmt.Errorf("store: append wal of %q: %w", name, err))
	}
	switch d.mode {
	case FsyncAlways:
		if err := h.f.Sync(); err != nil {
			h.f.Close()
			delete(d.wals, name)
			return d.fail(fmt.Errorf("store: sync wal of %q: %w", name, err))
		}
		d.n.fsyncs.Add(1)
	case FsyncBatch:
		h.dirty = true
	}
	d.n.walAppends.Add(1)
	d.n.walBytes.Add(int64(len(rec.Payload)))
	return nil
}

// TruncateWAL implements Store.
func (d *Disk) TruncateWAL(name string, epoch, seq uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	path := d.walPath(name)
	b, err := d.fs.ReadFile(path)
	if err != nil {
		if notExist(err) {
			return nil
		}
		return d.fail(fmt.Errorf("store: read wal of %q: %w", name, err))
	}
	recs, validLen, _ := parseWAL(b)
	kept := recs[:0]
	for _, r := range recs {
		if r.Epoch > epoch || (r.Epoch == epoch && r.Seq > seq) {
			kept = append(kept, r)
		}
	}
	if len(kept) == len(recs) && validLen == len(b) {
		return nil // nothing to drop, nothing torn
	}
	if h := d.wals[name]; h != nil {
		h.f.Close()
		delete(d.wals, name)
	}
	out := append([]byte(nil), walMagic...)
	for _, r := range kept {
		out = appendRecord(out, r)
	}
	if err := d.rewriteLocked(path, out); err != nil {
		return d.fail(fmt.Errorf("store: truncate wal of %q: %w", name, err))
	}
	d.n.walTruncations.Add(1)
	return nil
}

// rewriteLocked atomically replaces path's contents via the temp-file
// rename protocol.
func (d *Disk) rewriteLocked(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := d.fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := d.syncFile(f, true); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := d.fs.Rename(tmp, path); err != nil {
		return err
	}
	return d.syncDirOf(filepath.Dir(path))
}

// Delete implements Store. The name file is removed (and the removal
// made durable) before the rest of the tree: a crash mid-delete then
// leaves a directory recovery skips, never a resurrected matrix.
func (d *Disk) Delete(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if h := d.wals[name]; h != nil {
		h.f.Close()
		delete(d.wals, name)
	}
	if err := d.fs.Remove(d.namePath(name)); err != nil {
		if notExist(err) {
			return nil // no durable state to tombstone
		}
		return d.fail(fmt.Errorf("store: delete %q: %w", name, err))
	}
	if err := d.syncDirOf(d.matrixDir(name)); err != nil {
		return d.fail(fmt.Errorf("store: delete %q: %w", name, err))
	}
	if err := d.fs.RemoveAll(d.matrixDir(name)); err != nil {
		return d.fail(fmt.Errorf("store: delete %q: %w", name, err))
	}
	d.n.deletes.Add(1)
	return nil
}

// Sync implements Store: it forces any batched WAL writes down.
func (d *Disk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	for _, h := range d.wals {
		if !h.dirty {
			continue
		}
		if err := h.f.Sync(); err != nil {
			return d.fail(fmt.Errorf("store: sync: %w", err))
		}
		d.n.fsyncs.Add(1)
		h.dirty = false
	}
	return nil
}

// Stats implements Store. It takes no lock, so it answers while an
// append or a snapshot install waits on an fsync.
func (d *Disk) Stats() Stats {
	n := &d.n
	return Stats{
		Snapshots: n.snapshots.Load(), SnapshotBytes: n.snapshotBytes.Load(),
		WALAppends: n.walAppends.Load(), WALBytes: n.walBytes.Load(),
		WALTruncations: n.walTruncations.Load(), Deletes: n.deletes.Load(),
		Loads: n.loads.Load(), Fsyncs: n.fsyncs.Load(),
		TornRecords: n.tornRecords.Load(), TornBytes: n.tornBytes.Load(),
		Errors: n.errors.Load(),
	}
}

// Close implements Store.
func (d *Disk) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	close(d.stop)
	var first error
	for name, h := range d.wals {
		if h.dirty {
			if err := h.f.Sync(); err != nil && first == nil {
				first = err
			} else if err == nil {
				d.n.fsyncs.Add(1)
			}
		}
		if err := h.f.Close(); err != nil && first == nil {
			first = err
		}
		delete(d.wals, name)
	}
	d.mu.Unlock()
	d.flushWG.Wait()
	return first
}
