package gateway

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"repro/internal/metrics"
	"repro/service"
)

// NewHandler exposes the gateway as an HTTP API. The front routes
// mirror the backend service API one for one — a service.Client
// pointed at a gateway works unchanged — under the same versioned /v1
// prefix, plus the admin surface:
//
//	PUT    /v1/matrix/{name}           replicated upload (all-or-nothing across R replicas)
//	DELETE /v1/matrix/{name}           remove a matrix from every replica
//	GET    /v1/matrices                placed matrices with their replica sets
//	POST   /v1/matrices/{name}/chunks  chunked upload: begin/append/abort stage at the gateway, commit places like PUT
//	PATCH  /v1/matrices/{name}/rows    replicated row update (all-or-nothing, wire copy retained)
//	POST   /v1/estimate                route to the least-busy healthy replica, failover on error
//	POST   /v1/estimate/batch          scatter sub-batches across replicas, gather in order
//	GET    /v1/stats                   gateway + per-backend counters
//	GET    /v1/metrics                 Prometheus text-format exposition
//	GET    /v1/healthz                 gateway liveness
//	GET    /v1/admin/backends          list the pool with health and counters
//	POST   /v1/admin/backends          {"op":"add"|"drain"|"remove","addr":…} with rebalance
//
// The hot endpoints negotiate the binary wire format exactly like the
// service tier (service.DecodeRequest/WriteReply), and the gateway's
// own backend clients speak binary to the pool — a binary client's
// payload travels binary end to end. docs/API.md is the complete
// reference.
func NewHandler(g *Gateway) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/matrix/{name}", func(w http.ResponseWriter, r *http.Request) {
		var m service.Matrix
		if err := service.DecodeRequest(w, r, &m); err != nil {
			g.writeError(w, err)
			return
		}
		info, err := g.PutMatrix(r.Context(), r.PathValue("name"), m)
		if err != nil {
			g.writeError(w, err)
			return
		}
		service.WriteJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("DELETE /v1/matrix/{name}", func(w http.ResponseWriter, r *http.Request) {
		if err := g.DeleteMatrix(r.Context(), r.PathValue("name")); err != nil {
			g.writeError(w, err)
			return
		}
		service.WriteJSON(w, http.StatusOK, map[string]string{"deleted": r.PathValue("name")})
	})
	mux.HandleFunc("GET /v1/matrices", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, g.Matrices())
	})
	mux.HandleFunc("POST /v1/matrices/{name}/chunks", func(w http.ResponseWriter, r *http.Request) {
		var req service.ChunkRequest
		if err := service.DecodeRequest(w, r, &req); err != nil {
			g.writeError(w, err)
			return
		}
		name := r.PathValue("name")
		switch req.Op {
		case "begin":
			info, err := g.BeginUpload(name, req.Rows, req.Cols)
			if err != nil {
				g.writeError(w, err)
				return
			}
			service.WriteJSON(w, http.StatusOK, info)
		case "append":
			info, err := g.AppendChunk(name, req.Upload, req.RowStart, req.RowEnd, req.Entries)
			if err != nil {
				g.writeError(w, err)
				return
			}
			service.WriteJSON(w, http.StatusOK, info)
		case "commit":
			info, err := g.CommitUpload(r.Context(), name, req.Upload)
			if err != nil {
				g.writeError(w, err)
				return
			}
			service.WriteJSON(w, http.StatusOK, info)
		case "abort":
			if err := g.AbortUpload(name, req.Upload); err != nil {
				g.writeError(w, err)
				return
			}
			service.WriteJSON(w, http.StatusOK, map[string]string{"aborted": req.Upload})
		default:
			g.writeError(w, fmt.Errorf("%w: unknown chunk op %q", service.ErrBadRequest, req.Op))
		}
	})
	mux.HandleFunc("PATCH /v1/matrices/{name}/rows", func(w http.ResponseWriter, r *http.Request) {
		var req service.UpdateRequest
		if err := service.DecodeRequest(w, r, &req); err != nil {
			g.writeError(w, err)
			return
		}
		// Writes take only the session token (consistency levels apply
		// to reads); the committed version echoes back in MP-Version so
		// a client can hand it to another consumer as a read floor.
		sess := sessionToken(r)
		rep, ver, err := g.updateRowsSLA(r.Context(), r.PathValue("name"), req, sess)
		if err != nil {
			g.writeError(w, err)
			return
		}
		if sess != "" {
			w.Header().Set("MP-Session", sess)
		}
		w.Header().Set("MP-Version", ver.String())
		service.WriteReply(w, r, http.StatusOK, rep)
	})
	mux.HandleFunc("POST /v1/estimate", func(w http.ResponseWriter, r *http.Request) {
		var req service.Request
		if err := service.DecodeRequest(w, r, &req); err != nil {
			g.writeError(w, err)
			return
		}
		sla, sess, err := g.slaOf(r)
		if err != nil {
			g.writeError(w, err)
			return
		}
		res, ver, err := g.estimateSLA(r.Context(), req, sla, sess)
		if err != nil {
			g.writeError(w, err)
			return
		}
		if sess != "" {
			w.Header().Set("MP-Session", sess)
		}
		w.Header().Set("MP-Version", ver.String())
		service.WriteReply(w, r, http.StatusOK, res)
	})
	mux.HandleFunc("POST /v1/estimate/batch", func(w http.ResponseWriter, r *http.Request) {
		var req service.BatchRequest
		if err := service.DecodeRequest(w, r, &req); err != nil {
			g.writeError(w, err)
			return
		}
		sla, sess, err := g.slaOf(r)
		if err != nil {
			g.writeError(w, err)
			return
		}
		items, err := g.estimateBatchSLA(r.Context(), req.Queries, sla, sess)
		if err != nil {
			g.writeError(w, err)
			return
		}
		if sess != "" {
			w.Header().Set("MP-Session", sess)
		}
		service.WriteReply(w, r, http.StatusOK, service.BatchResponse{Results: items})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, g.Stats())
	})
	mux.Handle("GET /v1/metrics", metrics.Handler(g.Metrics()))
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/admin/backends", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, g.Backends())
	})
	mux.HandleFunc("POST /v1/admin/backends", func(w http.ResponseWriter, r *http.Request) {
		var req AdminRequest
		if err := service.DecodeRequest(w, r, &req); err != nil {
			g.writeError(w, err)
			return
		}
		var rep RebalanceReport
		var err error
		switch req.Op {
		case "add":
			rep, err = g.AddBackend(r.Context(), req.Addr)
		case "drain":
			rep, err = g.DrainBackend(r.Context(), req.Addr)
		case "remove":
			rep, err = g.RemoveBackend(r.Context(), req.Addr)
		default:
			err = fmt.Errorf("%w: unknown admin op %q", service.ErrBadRequest, req.Op)
		}
		if err != nil {
			g.writeError(w, err)
			return
		}
		service.WriteJSON(w, http.StatusOK, rep)
	})
	return mux
}

// AdminRequest is the body of POST /v1/admin/backends: one pool change,
// selected by Op.
type AdminRequest struct {
	// Op is "add", "drain", or "remove".
	Op string `json:"op"`
	// Addr is the backend base URL the operation targets.
	Addr string `json:"addr"`
}

// sessionToken extracts the opaque session token from ?session= or
// the MP-Session header (query wins). Tokens are client-opaque; the
// gateway never inspects them beyond map lookup.
func sessionToken(r *http.Request) string {
	if s := r.URL.Query().Get("session"); s != "" {
		return s
	}
	return r.Header.Get("MP-Session")
}

// slaOf extracts a read's consistency SLA (?consistency= or the
// MP-Consistency header; see ParseConsistency for the grammar) and its
// session token. A session-dependent level arriving without a token
// mints one, which the response echoes in MP-Session for the client to
// carry forward.
func (g *Gateway) slaOf(r *http.Request) (SLA, string, error) {
	cons := r.URL.Query().Get("consistency")
	if cons == "" {
		cons = r.Header.Get("MP-Consistency")
	}
	sla, err := ParseConsistency(cons)
	if err != nil {
		return SLA{}, "", err
	}
	sess := sessionToken(r)
	if sess == "" && (sla.Level == ConsMonotonic || sla.Level == ConsRMW) {
		sess, _ = g.sessions.get("")
	}
	return sla, sess, nil
}

// writeError is the method form the handlers use: the package mapping
// below plus a Retry-After header on sheds, so open-loop clients and
// upstream gateways back off a saturated or replica-less target
// instead of hammering it.
func (g *Gateway) writeError(w http.ResponseWriter, err error) {
	var apiErr *service.APIError
	switch {
	case errors.As(err, &apiErr) && apiErr.RetryAfter > 0:
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(apiErr.RetryAfter.Seconds()))))
	case errors.Is(err, ErrNoBackends):
		// No eligible replica right now: the prober re-admits on its
		// interval, so that is the honest earliest useful retry.
		w.Header().Set("Retry-After", strconv.Itoa(max(1, int(math.Ceil(g.cfg.ProbeInterval.Seconds())))))
	}
	writeError(w, err)
}

// writeError maps gateway and backend errors onto the uniform
// {"error":{"code","message"}} envelope. A backend's answered error
// (an APIError a query was returned without failover) passes through
// with its original status, code, and message; gateway-level
// conditions get their own statuses and codes (no eligible backends →
// 503 no_backends, all replicas failed → 502 bad_gateway, unknown
// backend → 404 unknown_backend); everything else falls through to
// the service package's mapping. WriteErrorEnvelope is the single
// emitter either way.
func writeError(w http.ResponseWriter, err error) {
	var apiErr *service.APIError
	switch {
	case errors.As(err, &apiErr):
		code := apiErr.Code
		if code == "" {
			code = "upstream"
		}
		service.WriteErrorEnvelope(w, apiErr.Status, code, apiErr.Message)
	case errors.Is(err, ErrNoBackends):
		service.WriteErrorEnvelope(w, http.StatusServiceUnavailable, "no_backends", err.Error())
	case errors.Is(err, ErrClosed):
		service.WriteErrorEnvelope(w, http.StatusServiceUnavailable, "unavailable", err.Error())
	case errors.Is(err, ErrAllReplicasFailed):
		service.WriteErrorEnvelope(w, http.StatusBadGateway, "bad_gateway", err.Error())
	case errors.Is(err, ErrUnknownBackend):
		service.WriteErrorEnvelope(w, http.StatusNotFound, "unknown_backend", err.Error())
	default:
		service.WriteError(w, err)
	}
}
