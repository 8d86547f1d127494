package gateway

import (
	"context"
	"fmt"

	"repro/service"
)

// Chunked uploads are staged at the gateway — in the backends' own
// staging table, service.UploadStager, under "gw-" tokens — and placed
// through PutMatrix: begin, append and abort touch no backend, and
// commit hands the assembled wire matrix to the one placement path. The
// gateway has to hold the whole matrix anyway (it is the retained copy
// every repair re-uploads in one body), so per-replica upload legs would
// buy nothing a single put does not.

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
	return g.uploads.Begin(name, rows, cols)
}

// AppendChunk validates one row-range chunk by the engines' rules and
// stages its entries. A rejected chunk stages nothing, so it can be
// corrected and resent.
func (g *Gateway) AppendChunk(name, token string, rowStart, rowEnd int, entries [][3]int64) (service.UploadInfo, error) {
	return g.uploads.Append(name, token, rowStart, rowEnd, entries)
}

// CommitUpload consumes the token and places the staged matrix through
// PutMatrix — all-or-nothing across the replicas, exactly as a
// single-body put of the assembled matrix. The token is consumed either
// way.
func (g *Gateway) CommitUpload(ctx context.Context, name, token string) (PlacementInfo, error) {
	m, err := g.uploads.Take(name, token)
	if err != nil {
		return PlacementInfo{}, err
	}
	return g.PutMatrix(ctx, name, m)
}

// AbortUpload discards a staged upload and consumes its token.
func (g *Gateway) AbortUpload(name, token string) error { return g.uploads.Abort(name, token) }
