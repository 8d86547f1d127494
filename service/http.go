package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"repro/internal/metrics"
)

// maxBodyBytes bounds request bodies (a 512×512 dense upload is ~6 MB
// of JSON; leave generous headroom). A variable so tests can exercise
// the over-limit path without building a quarter-gigabyte body.
var maxBodyBytes int64 = 256 << 20

// NewHandler exposes the engine as an HTTP API under the versioned
// /v1 prefix, the only surface it serves:
//
//	PUT    /v1/matrix/{name}           upload/replace a served matrix (single body)
//	DELETE /v1/matrix/{name}           remove a served matrix
//	GET    /v1/matrices                list served matrices (most recent first)
//	POST   /v1/matrices/{name}/chunks  chunked upload: begin/append/commit/abort
//	PATCH  /v1/matrices/{name}/rows    apply sparse row replacements/deltas in place
//	POST   /v1/estimate                run one estimation query
//	POST   /v1/estimate/batch          run many queries against one admission slot
//	GET    /v1/stats                   aggregate serving statistics
//	GET    /v1/metrics                 Prometheus text-format exposition
//	GET    /v1/healthz                 liveness
//
// Bodies are JSON by default; the hot endpoints (uploads, estimates,
// row updates) also negotiate the binary wire format via
// Content-Type/Accept (see DecodeRequest/WriteReply and docs/API.md).
//
// The chunks endpoint is the streaming ingestion path: each request is
// one lifecycle step ({"op":"begin","rows":…,"cols":…} →
// {"op":"append","upload":…,"row_start":…,"row_end":…,"entries":…} →
// {"op":"commit","upload":…}), so each request body holds only one
// row-range chunk and matrices far beyond the single-body size limit
// can be admitted.
func NewHandler(e *Engine) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/matrix/{name}", func(w http.ResponseWriter, r *http.Request) {
		var m Matrix
		if err := DecodeRequest(w, r, &m); err != nil {
			e.writeError(w, err)
			return
		}
		info, evicted, err := e.PutMatrix(r.PathValue("name"), m)
		if err != nil {
			e.writeError(w, err)
			return
		}
		WriteReply(w, r, http.StatusOK, UploadReply{MatrixInfo: info, Evicted: evicted})
	})
	mux.HandleFunc("DELETE /v1/matrix/{name}", func(w http.ResponseWriter, r *http.Request) {
		if err := e.DeleteMatrix(r.PathValue("name")); err != nil {
			e.writeError(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, map[string]string{"deleted": r.PathValue("name")})
	})
	mux.HandleFunc("GET /v1/matrices", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, e.Matrices())
	})
	mux.HandleFunc("POST /v1/matrices/{name}/chunks", func(w http.ResponseWriter, r *http.Request) {
		var req ChunkRequest
		if err := DecodeRequest(w, r, &req); err != nil {
			e.writeError(w, err)
			return
		}
		name := r.PathValue("name")
		switch req.Op {
		case "begin":
			info, err := e.BeginUpload(name, req.Rows, req.Cols)
			if err != nil {
				e.writeError(w, err)
				return
			}
			WriteJSON(w, http.StatusOK, info)
		case "append":
			info, err := e.AppendChunk(name, req.Upload, req.RowStart, req.RowEnd, req.Entries)
			if err != nil {
				e.writeError(w, err)
				return
			}
			WriteJSON(w, http.StatusOK, info)
		case "commit":
			info, evicted, err := e.CommitUpload(name, req.Upload)
			if err != nil {
				e.writeError(w, err)
				return
			}
			WriteReply(w, r, http.StatusOK, UploadReply{MatrixInfo: info, Evicted: evicted})
		case "abort":
			if err := e.AbortUpload(name, req.Upload); err != nil {
				e.writeError(w, err)
				return
			}
			WriteJSON(w, http.StatusOK, map[string]string{"aborted": req.Upload})
		default:
			e.writeError(w, fmt.Errorf("%w: unknown chunk op %q", ErrBadRequest, req.Op))
		}
	})
	mux.HandleFunc("PATCH /v1/matrices/{name}/rows", func(w http.ResponseWriter, r *http.Request) {
		var req UpdateRequest
		if err := DecodeRequest(w, r, &req); err != nil {
			e.writeError(w, err)
			return
		}
		rep, err := e.UpdateRows(r.PathValue("name"), req)
		if err != nil {
			e.writeError(w, err)
			return
		}
		WriteReply(w, r, http.StatusOK, rep)
	})
	mux.HandleFunc("POST /v1/estimate", func(w http.ResponseWriter, r *http.Request) {
		var req Request
		if err := DecodeRequest(w, r, &req); err != nil {
			e.writeError(w, err)
			return
		}
		res, err := e.Estimate(r.Context(), req)
		if err != nil {
			e.writeError(w, err)
			return
		}
		WriteReply(w, r, http.StatusOK, res)
	})
	mux.HandleFunc("POST /v1/estimate/batch", func(w http.ResponseWriter, r *http.Request) {
		var req BatchRequest
		if err := DecodeRequest(w, r, &req); err != nil {
			e.writeError(w, err)
			return
		}
		items, err := e.EstimateBatch(r.Context(), req.Queries)
		if err != nil {
			e.writeError(w, err)
			return
		}
		WriteReply(w, r, http.StatusOK, BatchResponse{Results: items})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, e.Stats())
	})
	mux.Handle("GET /v1/metrics", metrics.Handler(e.Metrics()))
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// ChunkRequest is the body of POST /v1/matrices/{name}/chunks: one
// lifecycle step of a chunked upload, selected by Op.
type ChunkRequest struct {
	// Op is "begin", "append", "commit", or "abort".
	Op string `json:"op"`
	// Upload is the generation token returned by begin; required for
	// append, commit, and abort.
	Upload string `json:"upload,omitempty"`
	// Rows declares the full matrix row count (begin only).
	Rows int `json:"rows,omitempty"`
	// Cols declares the full matrix column count (begin only).
	Cols int `json:"cols,omitempty"`
	// RowStart is the inclusive start of the chunk's row range; every
	// entry must land inside [RowStart, RowEnd) (append only).
	RowStart int `json:"row_start,omitempty"`
	// RowEnd is the exclusive end of the chunk's row range (append only).
	RowEnd int `json:"row_end,omitempty"`
	// Entries are the chunk's sparse (row, col, value) triples.
	Entries [][3]int64 `json:"entries,omitempty"`
}

// BatchRequest is the body of POST /v1/estimate/batch.
type BatchRequest struct {
	// Queries are the estimation requests to run against one admission
	// slot, bounded by the engine's MaxBatch.
	Queries []Request `json:"queries"`
}

// BatchResponse is the reply of POST /v1/estimate/batch: one item per
// query, in order.
type BatchResponse struct {
	// Results holds one BatchItem per request query, in request order.
	Results []BatchItem `json:"results"`
}

// DecodeJSON decodes a bounded JSON request body, rejecting unknown
// fields. A request that declares a non-JSON Content-Type is rejected
// with ErrUnsupportedMedia (a 415 under WriteError) — this helper only
// speaks JSON; endpoints that also accept the binary wire format go
// through DecodeRequest. The real ResponseWriter must reach
// MaxBytesReader (a nil writer panics inside net/http when the limit
// trips on some paths, and the writer is how it flags the connection
// to close), and an over-limit body is ErrBodyTooLarge (a 413 under
// WriteError), not a generic bad request. Exported so HTTP tiers
// layered on the service API — the gateway — share one body-limit and
// error discipline.
func DecodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	if mt := contentMediaType(r.Header.Get("Content-Type")); mt != "" && mt != mediaTypeJSON && mt != mediaTypeForm {
		return fmt.Errorf("%w: %q", ErrUnsupportedMedia, mt)
	}
	return decodeJSONBody(w, r, v)
}

func decodeJSONBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)) //mp:rawwire-ok this IS the sanctioned decode helper
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return fmt.Errorf("%w: body exceeds %d bytes", ErrBodyTooLarge, mbe.Limit)
		}
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return nil
}

// WriteJSON writes v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //mp:rawwire-ok this IS the sanctioned encode helper
}

// ErrorInfo is the machine-parseable payload of the uniform error
// envelope: a stable short code plus the human-readable message.
type ErrorInfo struct {
	// Code is the stable, machine-matchable error code (see ErrorCode).
	Code string `json:"code"`
	// Message is the human-readable error description.
	Message string `json:"message"`
}

// ErrorEnvelope is the one error body every service and gateway
// endpoint emits: {"error":{"code":…,"message":…}}. Error responses
// are always JSON, even on binary-negotiated requests, so failure
// parsing needs no content negotiation.
type ErrorEnvelope struct {
	Error ErrorInfo `json:"error"`
}

// WriteErrorEnvelope writes the uniform error envelope. It is the
// single emitter of error bodies in both tiers: WriteError (and the
// gateway's error mapping) route through it.
func WriteErrorEnvelope(w http.ResponseWriter, status int, code, message string) {
	WriteJSON(w, status, ErrorEnvelope{Error: ErrorInfo{Code: code, Message: message}})
}

// ErrorCode maps a service error to its HTTP status and stable
// envelope code. Exported so tiers layered on the service API — the
// gateway — extend the mapping without duplicating it.
func ErrorCode(err error) (status int, code string) {
	switch {
	case errors.Is(err, ErrUnsupportedMedia):
		return http.StatusUnsupportedMediaType, "unsupported_media_type"
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest, "bad_request"
	case errors.Is(err, ErrBodyTooLarge):
		return http.StatusRequestEntityTooLarge, "body_too_large"
	case errors.Is(err, ErrMatrixNotFound):
		return http.StatusNotFound, "matrix_not_found"
	case errors.Is(err, ErrUploadNotFound):
		return http.StatusNotFound, "upload_not_found"
	case errors.Is(err, ErrConflict):
		return http.StatusConflict, "conflict"
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests, "overloaded"
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable, "unavailable"
	case errors.Is(err, ErrStore):
		return http.StatusInternalServerError, "store_error"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// writeError is WriteError with the engine's backoff hint attached:
// admission sheds (ErrOverloaded → 429) carry a Retry-After header
// derived from the recent median queue wait, so open-loop clients and
// the gateway's failover stop hammering a saturated engine instead of
// retrying into the same full queue.
func (e *Engine) writeError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrOverloaded) {
		secs := int(math.Ceil(e.RetryAfter().Seconds()))
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	WriteError(w, err)
}

// WriteError maps a service error through ErrorCode (ErrBadRequest →
// 400, ErrUnsupportedMedia → 415, ErrBodyTooLarge → 413,
// ErrMatrixNotFound/ErrUploadNotFound → 404, ErrConflict → 409,
// ErrOverloaded → 429, ErrClosed → 503, anything else → 500) and
// writes the uniform {"error":{"code","message"}} envelope.
func WriteError(w http.ResponseWriter, err error) {
	status, code := ErrorCode(err)
	WriteErrorEnvelope(w, status, code, err.Error())
}
