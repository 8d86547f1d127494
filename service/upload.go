package service

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/intmat"
)

// Streaming matrix ingestion: matrices larger than the HTTP layer's
// single-body limit are admitted through a begin/append/commit chunk
// lifecycle. A begin stakes out the dimensions and returns a per-upload
// generation token; each append ships one row-range chunk of sparse
// entries, validated (bounds, declared row range, cell-level duplicates)
// as it lands; commit atomically installs the assembled matrix in the
// registry exactly as a single-body PutMatrix would — same NNZ
// accounting from the dense form, same cache invalidation, same upload
// generation discipline. Idle partial uploads are garbage-collected
// lazily on every upload operation (no background goroutine to leak).

// ErrUploadNotFound is returned for operations on unknown, expired, or
// already-committed upload tokens.
var ErrUploadNotFound = errors.New("service: upload not found")

// UploadInfo describes an in-progress chunked upload.
type UploadInfo struct {
	// Upload is the per-upload generation token; every append and the
	// commit must present it.
	Upload string `json:"upload"`
	// Name is the registry name the upload will commit to.
	Name string `json:"name"`
	// Rows is the declared row count of the staged matrix.
	Rows int `json:"rows"`
	// Cols is the declared column count of the staged matrix.
	Cols int `json:"cols"`
	// Entries counts wire entries accepted so far (explicit zeros
	// included).
	Entries int `json:"entries"`
	// NNZ counts the non-zero entries among Entries.
	NNZ int `json:"nnz"`
	// Chunks counts accepted append calls.
	Chunks int `json:"chunks"`
	// Expires is when the upload is garbage-collected unless another
	// chunk arrives or it commits.
	Expires time.Time `json:"expires"`
}

// stagingUpload is one in-progress chunked upload. Guarded by
// Engine.upMu.
type stagingUpload struct {
	info  UploadInfo
	dense *intmat.Dense
	// seen marks the cells staged so far, across chunks.
	seen    CellSet
	touched time.Time
}

// uploadCounters accumulates lifecycle totals for Stats. Guarded by
// Engine.upMu.
type uploadCounters struct {
	begun     int64
	chunks    int64
	committed int64
	aborted   int64
	expired   int64
}

// UploadStats is a snapshot of the chunked-upload lifecycle counters.
type UploadStats struct {
	// Active is the number of currently staged (uncommitted) uploads.
	Active int `json:"active"`
	// StagedElems is the active uploads' total rows×cols against the
	// MaxStagedElems budget.
	StagedElems int64 `json:"staged_elems"`
	// Begun is the lifetime total of uploads started.
	Begun int64 `json:"begun"`
	// Chunks is the lifetime total of chunks accepted.
	Chunks int64 `json:"chunks"`
	// Committed is the lifetime total of uploads installed.
	Committed int64 `json:"committed"`
	// Aborted is the lifetime total of uploads explicitly discarded.
	Aborted int64 `json:"aborted"`
	// Expired counts partial uploads removed by the lazy TTL GC.
	Expired int64 `json:"expired"`
}

func (e *Engine) uploadStats() UploadStats {
	e.upMu.Lock()
	defer e.upMu.Unlock()
	e.gcUploadsLocked(time.Now())
	return UploadStats{
		Active:      len(e.uploads),
		StagedElems: e.stagedElems,
		Begun:       e.upStats.begun,
		Chunks:      e.upStats.chunks,
		Committed:   e.upStats.committed,
		Aborted:     e.upStats.aborted,
		Expired:     e.upStats.expired,
	}
}

// gcUploadsLocked drops staged uploads idle past the TTL, returning
// their elements to the staging budget. Callers hold e.upMu.
func (e *Engine) gcUploadsLocked(now time.Time) {
	for tok, up := range e.uploads {
		if now.Sub(up.touched) > e.cfg.UploadTTL {
			e.dropUploadLocked(tok, up)
			e.upStats.expired++
		}
	}
}

// dropUploadLocked removes a staged upload and credits its elements
// back to the staging budget. Callers hold e.upMu.
func (e *Engine) dropUploadLocked(token string, up *stagingUpload) {
	delete(e.uploads, token)
	e.stagedElems -= int64(up.info.Rows) * int64(up.info.Cols)
}

// BeginUpload starts a chunked upload of a rows×cols matrix destined
// for the named registry slot and returns its generation token. The
// staged matrix is not visible to queries until CommitUpload.
func (e *Engine) BeginUpload(name string, rows, cols int) (UploadInfo, error) {
	select {
	case <-e.closed:
		return UploadInfo{}, ErrClosed
	default:
	}
	if name == "" {
		return UploadInfo{}, fmt.Errorf("%w: empty matrix name", ErrBadRequest)
	}
	if err := CheckDims(rows, cols); err != nil {
		return UploadInfo{}, err
	}
	now := time.Now()
	e.upMu.Lock()
	defer e.upMu.Unlock()
	e.gcUploadsLocked(now)
	if len(e.uploads) >= e.cfg.MaxUploads {
		return UploadInfo{}, fmt.Errorf("%w: %d uploads already staged", ErrOverloaded, len(e.uploads))
	}
	// Staging allocates rows×cols up front, so the element budget — not
	// the upload count — is what bounds the memory a burst of cheap
	// begin requests can pin.
	elems := int64(rows) * int64(cols)
	if e.stagedElems+elems > e.cfg.MaxStagedElems {
		return UploadInfo{}, fmt.Errorf("%w: %d staged elements + %d requested exceeds budget %d",
			ErrOverloaded, e.stagedElems, elems, e.cfg.MaxStagedElems)
	}
	e.stagedElems += elems
	token := fmt.Sprintf("up-%d-%d", e.upSeq.Add(1), now.UnixNano())
	up := &stagingUpload{
		info: UploadInfo{
			Upload:  token,
			Name:    name,
			Rows:    rows,
			Cols:    cols,
			Expires: now.Add(e.cfg.UploadTTL),
		},
		dense:   intmat.NewDense(rows, cols),
		touched: now,
	}
	up.seen.Reset(rows, cols)
	e.uploads[token] = up
	e.upStats.begun++
	return up.info, nil
}

// lookupUploadLocked resolves a token addressed at the named matrix.
// The token must have been begun for the same name: an upload staged
// for one registry slot can never be appended to, committed, or
// aborted through another slot's URL. Callers hold e.upMu.
func (e *Engine) lookupUploadLocked(name, token string) (*stagingUpload, error) {
	up, ok := e.uploads[token]
	if !ok || up.info.Name != name {
		return nil, fmt.Errorf("%w: %q for matrix %q", ErrUploadNotFound, token, name)
	}
	return up, nil
}

// CheckChunk is the position rule of one row-range chunk of a rows×cols
// chunked upload: the declared range must lie inside the matrix and
// every entry inside [rowStart, rowEnd) × [0, cols). Both tiers apply
// it before staging anything, so a rejected chunk can be corrected and
// resent.
func CheckChunk(rows, cols, rowStart, rowEnd int, entries [][3]int64) error {
	if rowStart < 0 || rowEnd > rows || rowStart >= rowEnd {
		return fmt.Errorf("%w: chunk row range [%d, %d) outside matrix with %d rows",
			ErrBadRequest, rowStart, rowEnd, rows)
	}
	for _, ent := range entries {
		i, j := ent[0], ent[1]
		if i < int64(rowStart) || i >= int64(rowEnd) || j < 0 || j >= int64(cols) {
			return fmt.Errorf("%w: entry (%d, %d) outside chunk range [%d, %d)x[0, %d)",
				ErrBadRequest, i, j, rowStart, rowEnd, cols)
		}
	}
	return nil
}

// AppendChunk validates and stages one row-range chunk of an upload:
// every entry must pass CheckChunk, and a cell already populated by any
// earlier chunk (or this one) is a duplicate — the same cell-level
// discipline the single-body path's Matrix.list applies, enforced chunk by
// chunk so a bad chunk is rejected without poisoning the rest of the
// upload.
func (e *Engine) AppendChunk(name, token string, rowStart, rowEnd int, entries [][3]int64) (UploadInfo, error) {
	now := time.Now()
	e.upMu.Lock()
	defer e.upMu.Unlock()
	e.gcUploadsLocked(now)
	up, err := e.lookupUploadLocked(name, token)
	if err != nil {
		return UploadInfo{}, err
	}
	// Validate the whole chunk before mutating the staged matrix.
	if err := CheckChunk(up.info.Rows, up.info.Cols, rowStart, rowEnd, entries); err != nil {
		return UploadInfo{}, err
	}
	if err := up.seen.AddAll(entries); err != nil {
		return UploadInfo{}, err
	}
	for _, ent := range entries {
		i, j, v := ent[0], ent[1], ent[2]
		if v != 0 {
			up.info.NNZ++
		}
		up.dense.Set(int(i), int(j), v)
	}
	up.info.Entries += len(entries)
	up.info.Chunks++
	up.touched = now
	up.info.Expires = now.Add(e.cfg.UploadTTL)
	e.upStats.chunks++
	return up.info, nil
}

// CommitUpload atomically installs a staged upload in the registry,
// exactly as a single-body PutMatrix of the assembled matrix would:
// fresh upload generation, LRU insertion with evictions, sketch-cache
// invalidation for the replaced name. The token is consumed.
func (e *Engine) CommitUpload(name, token string) (MatrixInfo, []string, error) {
	select {
	case <-e.closed:
		return MatrixInfo{}, nil, ErrClosed
	default:
	}
	now := time.Now()
	e.upMu.Lock()
	e.gcUploadsLocked(now)
	up, err := e.lookupUploadLocked(name, token)
	if err == nil {
		e.dropUploadLocked(token, up)
		e.upStats.committed++
	}
	e.upMu.Unlock()
	if err != nil {
		return MatrixInfo{}, nil, err
	}
	// The staged upload is already consumed: a store failure in install
	// loses the staging, but never acknowledges an install that would
	// vanish on restart. The staged dense form is handed over as is.
	return e.install(newServedMatrix(name, up.dense, now, e.genSeq.Add(1), 0))
}

// AbortUpload discards a staged upload and consumes its token.
func (e *Engine) AbortUpload(name, token string) error {
	e.upMu.Lock()
	defer e.upMu.Unlock()
	e.gcUploadsLocked(time.Now())
	up, err := e.lookupUploadLocked(name, token)
	if err != nil {
		return err
	}
	e.dropUploadLocked(token, up)
	e.upStats.aborted++
	return nil
}
