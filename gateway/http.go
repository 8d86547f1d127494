package gateway

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"repro/service"
)

// NewHandler exposes the gateway as an HTTP API: the service's /v1
// route table (service.Routes) — a service.Client pointed at a gateway
// works unchanged — plus the admin surface:
//
//	GET    /v1/admin/backends          list the pool with health and counters
//	POST   /v1/admin/backends          {"op":"add"|"drain"|"remove","addr":…} with rebalance
//
// NewHandler puts each request and its reply's header in the call's
// context, so Estimate, EstimateBatch and UpdateRows honour the
// request's consistency SLA and session and echo them in the reply.
// The hot endpoints negotiate the binary wire format exactly like the
// service tier, and the gateway's own backend clients speak binary to
// the pool — a binary client's payload travels binary end to end.
// docs/API.md is the complete reference.
func NewHandler(g *Gateway) http.Handler {
	mux := http.NewServeMux()
	service.Routes[PlacementInfo, []PlacementInfo, Stats](mux, g)
	mux.HandleFunc("GET /v1/admin/backends", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, g.Backends())
	})
	mux.HandleFunc("POST /v1/admin/backends", func(w http.ResponseWriter, r *http.Request) {
		var req AdminRequest
		if err := service.DecodeRequest(w, r, &req); err != nil {
			g.WriteError(w, err)
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
			g.WriteError(w, err)
			return
		}
		service.WriteJSON(w, http.StatusOK, rep)
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := context.WithValue(r.Context(), frontCallKey{}, &frontCall{r: r, hdr: w.Header()})
		mux.ServeHTTP(w, r.WithContext(ctx))
	})
}

// AdminRequest is the body of POST /v1/admin/backends: one pool change,
// selected by Op.
type AdminRequest struct {
	// Op is "add", "drain", or "remove".
	Op string `json:"op"`
	// Addr is the backend base URL the operation targets.
	Addr string `json:"addr"`
}

// frontCall is the HTTP request a Gateway call runs under and the
// header of its reply.
type frontCall struct {
	r   *http.Request
	hdr http.Header
}

type frontCallKey struct{}

// callOf is the frontCall ctx runs under, or nil for a call from Go.
func callOf(ctx context.Context) *frontCall {
	c, _ := ctx.Value(frontCallKey{}).(*frontCall)
	return c
}

// echo sets the reply headers of the HTTP request ctx runs under, if
// any: MP-Session when there is a session, MP-Version when ver is set.
func echo(ctx context.Context, sess, ver string) {
	c := callOf(ctx)
	if c == nil {
		return
	}
	if sess != "" {
		c.hdr.Set("MP-Session", sess)
	}
	if ver != "" {
		c.hdr.Set("MP-Version", ver)
	}
}

// sessionToken is the session token of the HTTP request ctx runs
// under: ?session= or the MP-Session header (query wins), and "" for a
// call with no request. Tokens are client-opaque; the gateway never
// inspects them beyond map lookup.
func sessionToken(ctx context.Context) string {
	c := callOf(ctx)
	if c == nil {
		return ""
	}
	if s := c.r.URL.Query().Get("session"); s != "" {
		return s
	}
	return c.r.Header.Get("MP-Session")
}

// slaOf is the consistency SLA of the HTTP request ctx runs under
// (?consistency= or the MP-Consistency header; see ParseConsistency for
// the grammar) and its session token; a call with no request runs
// strong with no session. A session-dependent level arriving without a
// token mints one, which the reply echoes in MP-Session for the client
// to carry forward.
func (g *Gateway) slaOf(ctx context.Context) (SLA, string, error) {
	c := callOf(ctx)
	if c == nil {
		return SLA{}, "", nil
	}
	cons := c.r.URL.Query().Get("consistency")
	if cons == "" {
		cons = c.r.Header.Get("MP-Consistency")
	}
	sla, err := ParseConsistency(cons)
	if err != nil {
		return SLA{}, "", err
	}
	sess := sessionToken(ctx)
	if sess == "" && (sla.Level == ConsMonotonic || sla.Level == ConsRMW) {
		sess, _ = g.sessions.get("")
	}
	return sla, sess, nil
}

// WriteError is the error reply of every gateway route: gateway and
// backend errors mapped onto the uniform {"error":{"code","message"}}
// envelope. A backend's answered error (an APIError a query was
// returned without failover) passes through with its original status,
// code, and message; gateway-level conditions get their own statuses
// and codes (no eligible backends → 503 no_backends, all replicas
// failed → 502 bad_gateway, unknown backend → 404 unknown_backend);
// everything else falls through to the service package's mapping.
// WriteErrorEnvelope is the single emitter either way. Sheds carry a
// Retry-After header, so open-loop clients and upstream gateways back
// off a saturated or replica-less target instead of hammering it.
func (g *Gateway) WriteError(w http.ResponseWriter, err error) {
	var apiErr *service.APIError
	switch {
	case errors.As(err, &apiErr):
		if apiErr.RetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(apiErr.RetryAfter.Seconds()))))
		}
		code := apiErr.Code
		if code == "" {
			code = "upstream"
		}
		service.WriteErrorEnvelope(w, apiErr.Status, code, apiErr.Message)
	case errors.Is(err, ErrNoBackends):
		// No eligible replica right now: the prober re-admits on its
		// interval, so that is the honest earliest useful retry.
		w.Header().Set("Retry-After", strconv.Itoa(max(1, int(math.Ceil(g.cfg.ProbeInterval.Seconds())))))
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
