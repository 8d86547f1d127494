package gateway

import (
	"context"
	"fmt"
	"time"

	"repro/service"
)

// Chunked uploads are staged at the gateway and placed through
// PutMatrix: begin, append and abort touch no backend, and commit hands
// the assembled wire matrix to the one placement path. The gateway has
// to hold the whole wire form anyway (it is the retained copy every
// repair re-uploads in one body), so per-replica upload legs would buy
// nothing a single put does not.

// stagedUpload is one in-progress chunked upload: the client's token,
// running counts and GC deadline (info), the entries accepted so far
// and the cells they occupy (seen — the engines' duplicate rule, so a
// cell repeated across chunks is refused at append, not at commit after
// the token is spent). Guarded by Gateway.mu; info's name and
// dimensions never change after begin.
type stagedUpload struct {
	info    service.UploadInfo
	entries [][3]int64
	seen    service.CellSet
}

// cells is the upload's declared rows×cols — what it counts against
// the staging budget.
func (up *stagedUpload) cells() int64 {
	return int64(up.info.Rows) * int64(up.info.Cols)
}

// lookupUploadLocked resolves a token addressed at the named matrix,
// dropping uploads idle past the TTL on the way. A token begun under
// another name is not found. Callers hold g.mu.
func (g *Gateway) lookupUploadLocked(name, token string, now time.Time) (*stagedUpload, error) {
	g.gcUploadsLocked(now)
	up, ok := g.uploads[token]
	if !ok || up.info.Name != name {
		return nil, fmt.Errorf("%w: %q for matrix %q", service.ErrUploadNotFound, token, name)
	}
	return up, nil
}

func (g *Gateway) gcUploadsLocked(now time.Time) {
	for tok, up := range g.uploads {
		if now.After(up.info.Expires) {
			delete(g.uploads, tok)
		}
	}
}

// BeginUpload stages a chunked upload of a rows×cols matrix and returns
// the gateway's token, which every subsequent step must present. What a
// client can pin is bounded like an engine's staging: at most
// service.DefaultMaxUploads uploads declaring at most
// service.DefaultMaxStagedElems cells between them, beyond which begin
// answers ErrOverloaded. With no placeable backend it fails fast.
func (g *Gateway) BeginUpload(name string, rows, cols int) (service.UploadInfo, error) {
	if g.isClosed() {
		return service.UploadInfo{}, ErrClosed
	}
	if name == "" {
		return service.UploadInfo{}, fmt.Errorf("%w: empty matrix name", service.ErrBadRequest)
	}
	if err := service.CheckDims(rows, cols); err != nil {
		return service.UploadInfo{}, err
	}
	if len(g.placementTargets(name)) == 0 {
		return service.UploadInfo{}, ErrNoBackends
	}
	now := time.Now()
	up := &stagedUpload{info: service.UploadInfo{
		Upload:  fmt.Sprintf("gw-%d-%d", g.upSeq.Add(1), now.UnixNano()),
		Name:    name,
		Rows:    rows,
		Cols:    cols,
		Expires: now.Add(g.cfg.UploadTTL),
	}}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.gcUploadsLocked(now)
	if len(g.uploads) >= service.DefaultMaxUploads {
		return service.UploadInfo{}, fmt.Errorf("%w: %d uploads already staged", service.ErrOverloaded, len(g.uploads))
	}
	staged := up.cells()
	for _, other := range g.uploads {
		staged += other.cells()
	}
	if staged > service.DefaultMaxStagedElems {
		return service.UploadInfo{}, fmt.Errorf("%w: %d staged elements exceeds budget %d",
			service.ErrOverloaded, staged, int64(service.DefaultMaxStagedElems))
	}
	up.seen.Reset(rows, cols)
	g.uploads[up.info.Upload] = up
	return up.info, nil
}

// AppendChunk validates one row-range chunk by the engines' rules —
// service.CheckChunk for position, the upload's CellSet for a cell
// already staged by this or an earlier chunk — and stages its entries.
// A rejected chunk stages nothing, so it can be corrected and resent.
func (g *Gateway) AppendChunk(name, token string, rowStart, rowEnd int, entries [][3]int64) (service.UploadInfo, error) {
	g.mu.Lock()
	up, err := g.lookupUploadLocked(name, token, time.Now())
	g.mu.Unlock()
	if err != nil {
		return service.UploadInfo{}, err
	}
	// The chunk is checked outside g.mu (the routing paths share it).
	if err := service.CheckChunk(up.info.Rows, up.info.Cols, rowStart, rowEnd, entries); err != nil {
		return service.UploadInfo{}, err
	}
	nnz := 0
	for _, ent := range entries {
		if ent[2] != 0 {
			nnz++
		}
	}
	now := time.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	// Resolved again: it may have been committed, aborted or expired.
	if up, err = g.lookupUploadLocked(name, token, now); err != nil {
		return service.UploadInfo{}, err
	}
	// Distinct cells also bound what resent chunks can pin to the
	// declared size.
	if err := up.seen.AddAll(entries); err != nil {
		return service.UploadInfo{}, err
	}
	up.entries = append(up.entries, entries...)
	up.info.Entries += len(entries)
	up.info.NNZ += nnz
	up.info.Chunks++
	up.info.Expires = now.Add(g.cfg.UploadTTL)
	return up.info, nil
}

// takeUpload consumes a token: the upload leaves the staging table.
func (g *Gateway) takeUpload(name, token string) (*stagedUpload, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	up, err := g.lookupUploadLocked(name, token, time.Now())
	if err == nil {
		delete(g.uploads, token)
	}
	return up, err
}

// CommitUpload consumes the token and places the staged matrix through
// PutMatrix — all-or-nothing across the replicas, exactly as a
// single-body put of the assembled matrix. The token is consumed either
// way.
func (g *Gateway) CommitUpload(ctx context.Context, name, token string) (PlacementInfo, error) {
	up, err := g.takeUpload(name, token)
	if err != nil {
		return PlacementInfo{}, err
	}
	return g.PutMatrix(ctx, name, service.Matrix{Rows: up.info.Rows, Cols: up.info.Cols, Entries: up.entries})
}

// AbortUpload discards a staged upload and consumes its token.
func (g *Gateway) AbortUpload(name, token string) error {
	_, err := g.takeUpload(name, token)
	return err
}
