package service

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/bitmat"
	"repro/internal/core"
	"repro/internal/intmat"
)

// Dynamic row updates: PATCH /v1/matrices/{name}/rows applies sparse
// row replacements (or deltas) to a served matrix in place of a full
// re-upload. The registry entry is replaced copy-on-write under the
// matrix's existing upload generation with a bumped sub-version, and
// every cached Bob state is *revalidated* — incrementally advanced to
// the new sub-version by the core layer's UpdateRows methods, which
// recompute only the touched rows — instead of evicted. In-flight
// queries keep serving the old immutable generation; new queries see
// the new sub-version with a warm cache. The core parity tests pin
// that a revalidated state is byte-identical to one rebuilt from
// scratch, so the update path changes latency, never answers.

// ErrConflict is returned when a row update raced a full replacement
// of the same matrix (the update loses; mapped to 409).
var ErrConflict = errors.New("service: matrix changed concurrently")

// RowUpdate is one sparse row patch: the row index and its (col,
// value) pairs. In replace mode the row becomes exactly the listed
// entries (unlisted cells zero); in delta mode each value is added to
// the existing cell.
type RowUpdate struct {
	// Row is the 0-based row index of the served matrix.
	Row int `json:"row"`
	// Entries are (col, value) pairs; duplicate columns are rejected.
	Entries [][2]int64 `json:"entries"`
}

// UpdateRequest is the body of PATCH /v1/matrices/{name}/rows: a batch of
// row patches, or a single patch via the shorthand Row/Entries fields.
type UpdateRequest struct {
	// Updates is the batch form: one patch per row, applied atomically.
	Updates []RowUpdate `json:"updates,omitempty"`
	// Row is the single-patch shorthand (with Entries); it may be
	// combined with Updates.
	Row *int `json:"row,omitempty"`
	// Entries are the shorthand patch's (col, value) pairs.
	Entries [][2]int64 `json:"entries,omitempty"`
	// Delta selects delta mode: values are added to the existing cells
	// instead of replacing whole rows.
	Delta bool `json:"delta,omitempty"`
	// Key is an optional idempotency key (zero = none): the server
	// remembers recent keys per matrix generation and answers a
	// repeated key with the remembered reply instead of re-applying the
	// patch — what makes a retried non-idempotent PATCH safe after a
	// transport failure lost the reply, and what lets a replication
	// tier replay its update log exactly. Keys are not persisted: a
	// restart clears the window, which is fine because retries arrive
	// within a client timeout, not across server restarts.
	Key uint64 `json:"key,omitempty"`
}

// Normalized folds the shorthand form into the batch and rejects empty
// or ambiguous (duplicate-row) requests. Exported so tiers layered on
// the service API — the gateway — validate with the same rules.
func (r UpdateRequest) Normalized() ([]RowUpdate, error) {
	ups := r.Updates
	if r.Row != nil {
		ups = append(append([]RowUpdate(nil), ups...), RowUpdate{Row: *r.Row, Entries: r.Entries})
	}
	if len(ups) == 0 {
		return nil, fmt.Errorf("%w: empty row update", ErrBadRequest)
	}
	seen := make(map[int]bool, len(ups))
	for _, u := range ups {
		if seen[u.Row] {
			return nil, fmt.Errorf("%w: row %d updated twice in one request", ErrBadRequest, u.Row)
		}
		seen[u.Row] = true
	}
	return ups, nil
}

// CheckRowUpdates is the position rule of a row patch against a
// rows×cols matrix: every patched row and every entry's column must lie
// inside the matrix, and no row patch may name a column twice. PatchRows
// applies it before touching anything, so both tiers refuse the same
// patches with the same words.
func CheckRowUpdates(rows, cols int, ups []RowUpdate) error {
	seen := make([]bool, cols) // columns of the patch at hand; all false between patches
	for _, u := range ups {
		if u.Row < 0 || u.Row >= rows {
			return fmt.Errorf("%w: row %d outside %d-row matrix", ErrBadRequest, u.Row, rows)
		}
		for _, ent := range u.Entries {
			j := ent[0]
			if j < 0 || j >= int64(cols) {
				return fmt.Errorf("%w: entry column %d outside %d-column matrix", ErrBadRequest, j, cols)
			}
			if seen[j] {
				return fmt.Errorf("%w: duplicate column %d in row %d update", ErrBadRequest, j, u.Row)
			}
			seen[j] = true
		}
		for _, ent := range u.Entries {
			seen[ent[0]] = false
		}
	}
	return nil
}

// UpdateReply is the reply of PATCH /v1/matrices/{name}/rows.
type UpdateReply struct {
	MatrixInfo
	// Sub is the matrix's new generation sub-version: it advances by
	// one per applied update and scopes the sketch-cache keys, so
	// cached states revalidate across an update instead of evicting.
	Sub uint64 `json:"sub"`
	// RowsApplied is the number of distinct rows the update touched.
	RowsApplied int `json:"rows_applied"`
	// CacheRefreshed counts cached Bob states incrementally advanced to
	// the new sub-version.
	CacheRefreshed int `json:"cache_refreshed"`
	// CacheDropped counts cached states that could not be advanced
	// (e.g. a sign or binarity transition invalidated the kind) and
	// will rebuild on next use.
	CacheDropped int `json:"cache_dropped"`
}

// RowUpdateStats is a snapshot of the dynamic-update counters.
type RowUpdateStats struct {
	// Requests counts update requests, failed ones included.
	Requests int64 `json:"requests"`
	// Errors counts the failed requests among Requests.
	Errors int64 `json:"errors"`
	// Dedups counts requests answered from the idempotency window
	// without re-applying (a retried keyed update).
	Dedups int64 `json:"dedups"`
	// Rows is the total number of row patches applied.
	Rows int64 `json:"rows"`
	// StatesRefreshed counts cached Bob states incrementally advanced
	// across updates.
	StatesRefreshed int64 `json:"states_refreshed"`
	// StatesDropped counts cached states dropped because they could not
	// be advanced.
	StatesDropped int64 `json:"states_dropped"`
}

// rowUpdateCounters accumulates RowUpdateStats under its own lock.
type rowUpdateCounters struct {
	mu sync.Mutex
	s  RowUpdateStats
}

func (c *rowUpdateCounters) record(rows, refreshed, dropped int, failed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.Requests++
	if failed {
		c.s.Errors++
		return
	}
	c.s.Rows += int64(rows)
	c.s.StatesRefreshed += int64(refreshed)
	c.s.StatesDropped += int64(dropped)
}

func (c *rowUpdateCounters) recordDedup() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.Requests++
	c.s.Dedups++
}

func (c *rowUpdateCounters) snapshot() RowUpdateStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s
}

// PatchRows is the one row patcher: the live update, WAL replay and the
// gateway's retained copy all advance a matrix through it, so they hold
// the same lists after the same history. Once the patches (distinct
// rows — UpdateRequest.Normalized) pass CheckRowUpdates it returns the
// successor of list — in replace mode a patched row becomes exactly its
// non-zero entries, in delta mode each value is added to its cell and a
// zero sum leaves the list — sharing every untouched row with list, and
// the patched rows.
func PatchRows(list *intmat.Sparse, ups []RowUpdate, delta bool) (next *intmat.Sparse, rows []int, err error) {
	if err := CheckRowUpdates(list.Rows(), list.Cols(), ups); err != nil {
		return nil, nil, err
	}
	patches := make([]intmat.RowPatch, len(ups))
	rows = make([]int, len(ups))
	for x, u := range ups {
		patches[x], rows[x] = intmat.RowPatch{Row: u.Row, Cells: u.Entries}, u.Row
	}
	return list.Patch(patches, delta), rows, nil
}

// cellCounts are the tallies the catalog flags derive from: the cells
// that are not zero, those that are neither zero nor one, and those
// below zero. Counts, unlike the flags, can be kept across a row update
// from the touched rows alone.
type cellCounts struct{ nnz, nonBinary, negative int }

// addRow tallies a row's non-zero values with weight +1 when it enters
// the matrix and −1 when it leaves.
func (c *cellCounts) addRow(vals []int64, weight int) {
	c.nnz += weight * len(vals)
	for _, v := range vals {
		if v != 1 {
			c.nonBinary += weight
		}
		if v < 0 {
			c.negative += weight
		}
	}
}

// UpdateRows applies a batch of sparse row patches to a served matrix:
// the patched rows are re-listed (PatchRows), the registry entry replaced
// under the same upload generation with a bumped sub-version, and
// every cached Bob state revalidated in place by the core incremental
// layer. The whole batch is atomic — a validation failure on any patch
// applies nothing. Updates are serialized per engine; a concurrent
// full replacement of the name wins with ErrConflict.
func (e *Engine) UpdateRows(name string, req UpdateRequest) (UpdateReply, error) {
	select {
	case <-e.closed:
		return UpdateReply{}, ErrClosed
	default:
	}
	rep, deduped, err := e.updateRows(name, req)
	if err != nil {
		e.rowUpd.record(0, 0, 0, true)
		return UpdateReply{}, err
	}
	if deduped {
		e.rowUpd.recordDedup()
	} else {
		e.rowUpd.record(rep.RowsApplied, rep.CacheRefreshed, rep.CacheDropped, false)
	}
	return rep, nil
}

// updateDedupeWindow bounds the engine's remembered idempotency keys.
// It needs to cover the retry window of in-flight writers (a retry
// arrives within a client timeout), not history.
const updateDedupeWindow = 256

// updKey identifies one remembered update: the matrix, its upload
// generation (a wholesale replacement invalidates old keys — the
// entries they described are gone), and the client's key.
type updKey struct {
	name string
	gen  uint64
	key  uint64
}

func (e *Engine) updateRows(name string, req UpdateRequest) (UpdateReply, bool, error) {
	ups, err := req.Normalized()
	if err != nil {
		return UpdateReply{}, false, err
	}
	e.updMu.Lock()
	defer e.updMu.Unlock()
	sm, ok := e.reg.get(name)
	if !ok {
		return UpdateReply{}, false, fmt.Errorf("%w: %q", ErrMatrixNotFound, name)
	}
	// A repeated idempotency key is a retry (or a replication tier's
	// log replay) of an update that already committed: answer with the
	// remembered reply instead of applying the patch twice.
	if req.Key != 0 {
		if rep, hit := e.updRecent[updKey{name: name, gen: sm.gen, key: req.Key}]; hit {
			return rep, true, nil
		}
	}
	newSM, rows, err := patchServed(sm, ups, req.Delta)
	if err != nil {
		return UpdateReply{}, false, err
	}
	// Durability before visibility: the WAL record lands before the
	// swap. If the swap below loses to a racing replacement, the record
	// is junk a recovery skips — its epoch no longer matches the
	// snapshot that replacement persisted.
	if err := e.persistUpdate(name, sm.gen, newSM.sub, ups, req.Delta); err != nil {
		return UpdateReply{}, false, err
	}
	if !e.reg.replaceIf(name, sm, newSM) {
		// A PutMatrix (or delete) raced in: its wholesale replacement is
		// authoritative, and this update never becomes visible.
		return UpdateReply{}, false, fmt.Errorf("%w: %q", ErrConflict, name)
	}
	var refreshed, dropped int
	if e.cache != nil {
		refreshed, dropped = e.cache.refreshMatrix(name, sm.gen, sm.sub, newSM.sub,
			func(st bobState) (bobState, bool) {
				return advanceState(st, newSM, rows)
			})
	}
	rep := UpdateReply{
		MatrixInfo:     newSM.info,
		Sub:            newSM.sub,
		RowsApplied:    len(rows),
		CacheRefreshed: refreshed,
		CacheDropped:   dropped,
	}
	if req.Key != 0 {
		e.rememberUpdateLocked(updKey{name: name, gen: sm.gen, key: req.Key}, rep)
	}
	return rep, false, nil
}

// rememberUpdateLocked records a committed keyed update in the dedupe
// ring, evicting FIFO past the window. Callers hold e.updMu.
func (e *Engine) rememberUpdateLocked(k updKey, rep UpdateReply) {
	if e.updRecent == nil {
		e.updRecent = make(map[updKey]UpdateReply, updateDedupeWindow)
	}
	e.updRecent[k] = rep
	e.updRecentKeys = append(e.updRecentKeys, k)
	if len(e.updRecentKeys) > updateDedupeWindow {
		delete(e.updRecent, e.updRecentKeys[0])
		e.updRecentKeys = e.updRecentKeys[1:]
	}
}

// patchServed builds sm's copy-on-write successor under the row
// patches (PatchRows): cell tallies and the catalog flags adjusted by the
// touched rows (old row out, new row in), sub-version bumped, bit form
// patched incrementally when it stays binary. Returns the touched rows
// for cache revalidation. Shared by the live update path and WAL replay
// at recovery, so a replayed update reconstructs identical served state.
func patchServed(sm *servedMatrix, ups []RowUpdate, delta bool) (*servedMatrix, []int, error) {
	list, rows, err := PatchRows(sm.list, ups, delta)
	if err != nil {
		return nil, nil, err
	}
	next := &servedMatrix{info: sm.info, gen: sm.gen, sub: sm.sub + 1, list: list}
	cells := sm.cells
	for _, k := range rows {
		_, old := sm.list.Row(k)
		_, now := list.Row(k)
		cells.addRow(old, -1)
		cells.addRow(now, 1)
	}
	next.setCells(cells)
	switch {
	case !next.info.Binary:
	case sm.bits == nil:
		next.bits = bitmat.FromSparse(list)
	default:
		next.bits = sm.bits.Clone()
		for _, k := range rows {
			old, _ := sm.list.Row(k)
			for _, j := range old {
				next.bits.Set(k, int(j), false)
			}
			now, _ := list.Row(k)
			for _, j := range now {
				next.bits.Set(k, int(j), true)
			}
		}
	}
	return next, rows, nil
}

// advanceState incrementally advances one cached Bob state to the
// updated matrix, recomputing only the touched rows. A state that
// cannot be advanced — the update invalidated its kind's input
// contract (signedness for exact/l1sample, binarity for the ℓ∞ kinds)
// — reports false and is dropped from the cache; the next query of
// that kind rebuilds (and surfaces the contract error) exactly as a
// cold cache would.
func advanceState(st bobState, sm *servedMatrix, rows []int) (bobState, bool) {
	switch v := st.(type) {
	case *lpStates:
		nb, err := v.bob.UpdateRows(sm.list, rows)
		if err != nil {
			return nil, false
		}
		return &lpStates{bob: nb, alice: v.alice}, true
	case *core.BobL0SampleState:
		nb, err := v.UpdateRows(sm.list, rows)
		return nb, err == nil
	case *core.BobExactL1State:
		nb, err := v.UpdateRows(sm.list, rows)
		return nb, err == nil
	case *core.BobL1SampleState:
		nb, err := v.UpdateRows(sm.list, rows)
		return nb, err == nil
	case *core.BobLinfState:
		if sm.bits == nil {
			return nil, false
		}
		nb, err := v.UpdateRows(sm.bits, rows)
		return nb, err == nil
	case *core.BobLinfKappaState:
		if sm.bits == nil {
			return nil, false
		}
		nb, err := v.UpdateRows(sm.bits, rows)
		return nb, err == nil
	case *core.BobHHState:
		nb, err := v.UpdateRows(sm.list, rows)
		return nb, err == nil
	default:
		return nil, false
	}
}
