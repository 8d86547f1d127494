package service

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Streaming matrix ingestion: matrices larger than the HTTP layer's
// single-body limit are admitted through a begin/append/commit chunk
// lifecycle. A begin stakes out the dimensions and returns a per-upload
// generation token; each append ships one row-range chunk of sparse
// entries, validated (bounds, declared row range, cell-level duplicates)
// as it lands; commit atomically installs the assembled matrix in the
// registry exactly as a single-body PutMatrix would — the staged entries
// go through the same Matrix.List, so the NNZ accounting, the cache
// invalidation and the upload generation discipline are that path's.
// What is staged is what was received: the accepted entries and one bit
// per declared cell (UploadStager), never a rows × cols buffer. Idle
// partial uploads are garbage-collected lazily on every upload operation
// (no background goroutine to leak).

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

// stagedUpload is one in-progress chunked upload: the client's token,
// running counts and GC deadline (info), the entries accepted so far and
// the cells they occupy (seen — a cell repeated across chunks is refused
// at append, not at commit after the token is spent). info's name and
// dimensions never change after begin.
type stagedUpload struct {
	info    UploadInfo
	entries [][3]int64
	seen    CellSet
}

// cells is the upload's declared rows×cols — what it counts against the
// staging budget.
func (up *stagedUpload) cells() int64 { return int64(up.info.Rows) * int64(up.info.Cols) }

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

// UploadStager is the staging table of chunked uploads, the one both
// tiers hold — an engine stages what it will install, a gateway what it
// will place: token → upload, lazy TTL collection on every operation, a
// cap on concurrent uploads and a budget on the cells they declare
// between them. An upload pins one bit per declared cell plus 24 bytes
// per accepted entry, and its CellSet caps the accepted entries at
// rows × cols, so the declared-cell budget bounds the memory cheap begin
// requests can pin. Safe for concurrent use.
type UploadStager struct {
	prefix         string // of the tokens: which tier issued one
	ttl            time.Duration
	maxUploads     int
	maxStagedElems int64

	mu      sync.Mutex
	seq     uint64
	uploads map[string]*stagedUpload
	stats   UploadStats // lifetime counters; Active and StagedElems are derived
}

// NewUploadStager returns an empty staging table whose tokens start
// with prefix.
func NewUploadStager(prefix string, ttl time.Duration, maxUploads int, maxStagedElems int64) *UploadStager {
	return &UploadStager{prefix: prefix, ttl: ttl, maxUploads: maxUploads, maxStagedElems: maxStagedElems,
		uploads: make(map[string]*stagedUpload)}
}

// Stats snapshots the table's counters.
func (s *UploadStager) Stats() UploadStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gcLocked(time.Now())
	out := s.stats
	out.Active, out.StagedElems = len(s.uploads), s.stagedElemsLocked()
	return out
}

func (s *UploadStager) stagedElemsLocked() (elems int64) {
	for _, up := range s.uploads {
		elems += up.cells()
	}
	return elems
}

// gcLocked drops staged uploads idle past the TTL.
func (s *UploadStager) gcLocked(now time.Time) {
	for tok, up := range s.uploads {
		if now.After(up.info.Expires) {
			delete(s.uploads, tok)
			s.stats.Expired++
		}
	}
}

// lookupLocked resolves a token addressed at the named matrix, after
// collecting the expired. The token must have been begun for the same
// name: an upload staged for one matrix can never be appended to,
// committed, or aborted through another's URL.
func (s *UploadStager) lookupLocked(name, token string, now time.Time) (*stagedUpload, error) {
	s.gcLocked(now)
	up, ok := s.uploads[token]
	if !ok || up.info.Name != name {
		return nil, fmt.Errorf("%w: %q for matrix %q", ErrUploadNotFound, token, name)
	}
	return up, nil
}

// Begin stages an upload of a rows×cols matrix (dimensions that passed
// CheckDims) destined for name and returns its token. Beyond the upload
// cap or the declared-cell budget it answers ErrOverloaded.
func (s *UploadStager) Begin(name string, rows, cols int) (UploadInfo, error) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gcLocked(now)
	if len(s.uploads) >= s.maxUploads {
		return UploadInfo{}, fmt.Errorf("%w: %d uploads already staged", ErrOverloaded, len(s.uploads))
	}
	staged, elems := s.stagedElemsLocked(), int64(rows)*int64(cols)
	if staged+elems > s.maxStagedElems {
		return UploadInfo{}, fmt.Errorf("%w: %d staged elements + %d requested exceeds budget %d",
			ErrOverloaded, staged, elems, s.maxStagedElems)
	}
	s.seq++
	up := &stagedUpload{info: UploadInfo{
		Upload:  fmt.Sprintf("%s-%d-%d", s.prefix, s.seq, now.UnixNano()),
		Name:    name,
		Rows:    rows,
		Cols:    cols,
		Expires: now.Add(s.ttl),
	}}
	up.seen.Reset(rows, cols)
	s.uploads[up.info.Upload] = up
	s.stats.Begun++
	return up.info, nil
}

// Append validates and stages one row-range chunk of an upload: every
// entry must pass CheckChunk, and a cell already staged by any earlier
// chunk (or this one) is a duplicate — the cell-level discipline the
// single-body path's Matrix.List applies, enforced chunk by chunk. A
// refused chunk stages nothing, so it can be corrected and resent.
func (s *UploadStager) Append(name, token string, rowStart, rowEnd int, entries [][3]int64) (UploadInfo, error) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	up, err := s.lookupLocked(name, token, now)
	if err != nil {
		return UploadInfo{}, err
	}
	if err := CheckChunk(up.info.Rows, up.info.Cols, rowStart, rowEnd, entries); err != nil {
		return UploadInfo{}, err
	}
	if err := up.seen.AddAll(entries); err != nil {
		return UploadInfo{}, err
	}
	for _, ent := range entries {
		if ent[2] != 0 {
			up.info.NNZ++
		}
	}
	up.entries = append(up.entries, entries...)
	up.info.Entries += len(entries)
	up.info.Chunks++
	up.info.Expires = now.Add(s.ttl)
	s.stats.Chunks++
	return up.info, nil
}

// Take consumes a token for commit and returns the staged matrix in
// wire form, entries in arrival order.
func (s *UploadStager) Take(name, token string) (Matrix, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	up, err := s.lookupLocked(name, token, time.Now())
	if err != nil {
		return Matrix{}, err
	}
	delete(s.uploads, token)
	s.stats.Committed++
	return Matrix{Rows: up.info.Rows, Cols: up.info.Cols, Entries: up.entries}, nil
}

// Abort discards a staged upload and consumes its token.
func (s *UploadStager) Abort(name, token string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.lookupLocked(name, token, time.Now()); err != nil {
		return err
	}
	delete(s.uploads, token)
	s.stats.Aborted++
	return nil
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
	return e.uploads.Begin(name, rows, cols)
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

// AppendChunk validates and stages one row-range chunk of an upload
// (UploadStager.Append).
func (e *Engine) AppendChunk(name, token string, rowStart, rowEnd int, entries [][3]int64) (UploadInfo, error) {
	return e.uploads.Append(name, token, rowStart, rowEnd, entries)
}

// CommitUpload atomically installs a staged upload in the registry,
// exactly as a single-body PutMatrix of the assembled matrix would:
// fresh upload generation, LRU insertion with evictions, sketch-cache
// invalidation for the replaced name. The token is consumed: a store
// failure in the install loses the staging, but never acknowledges an
// install that would vanish on restart.
func (e *Engine) CommitUpload(name, token string) (MatrixInfo, []string, error) {
	select {
	case <-e.closed:
		return MatrixInfo{}, nil, ErrClosed
	default:
	}
	m, err := e.uploads.Take(name, token)
	if err != nil {
		return MatrixInfo{}, nil, err
	}
	return e.PutMatrix(name, m)
}

// AbortUpload discards a staged upload and consumes its token.
func (e *Engine) AbortUpload(name, token string) error { return e.uploads.Abort(name, token) }
