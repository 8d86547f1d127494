package gateway

import (
	"sort"
	"time"

	"repro/internal/metrics"
)

// gatewayMetrics wires a Gateway into a metrics.Registry served at
// GET /v1/metrics, following the same split as the service layer: the
// routing hot path touches exactly one live instrument (the per-backend
// request-duration histogram, observed where recordResult already
// folds the outcome in), while every counter the gateway already keeps
// exports as a func-backed family sampled from Stats at scrape time —
// zero added routing cost, and /metrics can never disagree with /stats.
type gatewayMetrics struct {
	reg *metrics.Registry
	// backendDur is the per-backend request-duration vec. Backends join
	// the pool at runtime (admin add), so handles are resolved when the
	// backend is constructed, not ahead of time.
	backendDur *metrics.HistogramVec
}

func newGatewayMetrics(g *Gateway) *gatewayMetrics {
	reg := metrics.NewRegistry()
	m := &gatewayMetrics{reg: reg}

	m.backendDur = reg.NewHistogramVec("mpgw_backend_request_duration_seconds",
		"Latency of successful backend calls on the estimate and batch routing paths, by backend.",
		nil, "backend")

	type counterDef struct {
		name, help string
		read       func(s *Stats) int64
	}
	for _, def := range []counterDef{
		{"mpgw_estimates_total", "Estimate queries routed, batch-fallback re-routes included.",
			func(s *Stats) int64 { return s.Estimates }},
		{"mpgw_batches_total", "Batch calls scattered across replicas.",
			func(s *Stats) int64 { return s.Batches }},
		{"mpgw_placements_total", "Matrices placed (initial puts and chunked commits).",
			func(s *Stats) int64 { return s.Placements }},
		{"mpgw_failovers_total", "Queries answered by a replica other than the first one tried.",
			func(s *Stats) int64 { return s.Failovers }},
		{"mpgw_retries_total", "Per-query routing attempts beyond the first.",
			func(s *Stats) int64 { return s.Retries }},
		{"mpgw_repairs_total", "Replica copies re-seeded from the gateway's retained wire forms.",
			func(s *Stats) int64 { return s.Repairs }},
		{"mpgw_rebalanced_total", "Matrices moved by admin add/drain/remove rebalances.",
			func(s *Stats) int64 { return s.Rebalanced }},
		{"mpgw_updates_total", "Replicated row-update requests, failed ones included.",
			func(s *Stats) int64 { return s.Updates }},
		{"mpgw_update_reverts_total", "Row updates rolled back all-or-nothing after a replica leg failed.",
			func(s *Stats) int64 { return s.UpdateReverts }},
		{"mpgw_lost_replicas_total", "Replica copies evicted by their backend and pruned from the placement table.",
			func(s *Stats) int64 { return s.LostReplicas }},
		{"mpgw_resyncs_total", "Returning backends reconciled with the placement table by the probe loop.",
			func(s *Stats) int64 { return s.Resyncs }},
		{"mpgw_reseed_bytes_total", "Wire bytes re-uploaded to returning backends by probe resyncs.",
			func(s *Stats) int64 { return s.ReseedBytes }},
		{"mpgw_async_applied_total", "Update-log entries replayed to lagging replicas (apply loop and in-line catch-ups).",
			func(s *Stats) int64 { return s.AsyncApplied }},
		{"mpgw_async_reseeds_total", "Full-wire reseeds of replicas whose lag a log replay could not cover.",
			func(s *Stats) int64 { return s.AsyncReseeds }},
	} {
		read := def.read
		reg.CounterFunc(def.name, def.help, nil, func() []metrics.Sample {
			s := g.Stats()
			return []metrics.Sample{{Value: float64(read(&s))}}
		})
	}
	reg.GaugeFunc("mpgw_matrices", "Matrices currently placed.",
		nil, func() []metrics.Sample {
			g.mu.Lock()
			n := len(g.matrices)
			g.mu.Unlock()
			return []metrics.Sample{{Value: float64(n)}}
		})
	reg.GaugeFunc("mpgw_wire_bytes", "Total size of the retained wire copies replicas are re-seeded from.",
		nil, func() []metrics.Sample {
			g.mu.Lock()
			var total int64
			for _, pm := range g.matrices {
				total += wireSize(pm.list)
			}
			g.mu.Unlock()
			return []metrics.Sample{{Value: float64(total)}}
		})
	reg.GaugeFunc("mpgw_replication", "Configured replication factor R.",
		nil, func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(g.cfg.Replication)}}
		})
	reg.GaugeFunc("mpgw_uptime_seconds", "Time since the gateway started serving.",
		nil, func() []metrics.Sample {
			return []metrics.Sample{{Value: time.Since(g.start).Seconds()}}
		})
	reg.GaugeFunc("mpgw_write_quorum", "Configured ack quorum W a row update commits on (0 = every live replica).",
		nil, func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(g.cfg.WriteQuorum)}}
		})
	reg.GaugeFunc("mpgw_update_log_entries", "Retained update-log entries summed over all placed matrices.",
		nil, func() []metrics.Sample {
			s := g.Stats()
			return []metrics.Sample{{Value: float64(s.UpdateLogEntries)}}
		})
	reg.GaugeFunc("mpgw_sessions", "Live consistency sessions.",
		nil, func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(g.sessions.len())}}
		})
	// SLA read outcomes as one labeled family: level × outcome, sampled
	// from the same counters behind /stats so the two can never
	// disagree. Levels with no traffic emit no series.
	reg.CounterFunc("mpgw_sla_requests_total", "SLA-routed reads by consistency level and outcome (hit, catchup, miss).",
		[]string{"level", "outcome"}, func() []metrics.Sample {
			snap := g.sla.snapshot()
			levels := make([]string, 0, len(snap))
			for lvl := range snap {
				levels = append(levels, lvl)
			}
			sort.Strings(levels)
			out := make([]metrics.Sample, 0, 3*len(levels))
			for _, lvl := range levels {
				st := snap[lvl]
				out = append(out,
					metrics.Sample{Labels: []string{lvl, "hit"}, Value: float64(st.Hits)},
					metrics.Sample{Labels: []string{lvl, "catchup"}, Value: float64(st.Catchups)},
					metrics.Sample{Labels: []string{lvl, "miss"}, Value: float64(st.Misses)})
			}
			return out
		})

	// Per-backend breakdown, one family per field so types stay honest
	// (health and occupancy are gauges, traffic counters are counters).
	boolVal := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	type backendDef struct {
		name, help string
		kind       string // "counter" or "gauge"
		read       func(bs *BackendStatus) float64
	}
	for _, def := range []backendDef{
		{"mpgw_backend_healthy", "Whether the backend's last probe or request succeeded (1 = healthy).", "gauge",
			func(bs *BackendStatus) float64 { return boolVal(bs.Healthy) }},
		{"mpgw_backend_draining", "Whether the backend is excluded from routing pending removal (1 = draining).", "gauge",
			func(bs *BackendStatus) float64 { return boolVal(bs.Draining) }},
		{"mpgw_backend_inflight", "Requests currently outstanding against the backend.", "gauge",
			func(bs *BackendStatus) float64 { return float64(bs.Inflight) }},
		{"mpgw_backend_matrices", "Matrices currently placed on the backend.", "gauge",
			func(bs *BackendStatus) float64 { return float64(bs.Matrices) }},
		{"mpgw_backend_consec_fails", "Current consecutive probe-failure streak (drives probe backoff).", "gauge",
			func(bs *BackendStatus) float64 { return float64(bs.ConsecFails) }},
		{"mpgw_backend_requests_total", "Requests sent to the backend, failed ones included.", "counter",
			func(bs *BackendStatus) float64 { return float64(bs.Requests) }},
		{"mpgw_backend_errors_total", "Failed requests among the backend's requests.", "counter",
			func(bs *BackendStatus) float64 { return float64(bs.Errors) }},
		{"mpgw_backend_failovers_total", "Requests that failed over away from this backend to another replica.", "counter",
			func(bs *BackendStatus) float64 { return float64(bs.Failovers) }},
	} {
		read := def.read
		collect := func() []metrics.Sample {
			backends := g.Backends()
			out := make([]metrics.Sample, len(backends))
			for i := range backends {
				out[i] = metrics.Sample{Labels: []string{backends[i].Addr}, Value: read(&backends[i])}
			}
			return out
		}
		if def.kind == "counter" {
			reg.CounterFunc(def.name, def.help, []string{"backend"}, collect)
		} else {
			reg.GaugeFunc(def.name, def.help, []string{"backend"}, collect)
		}
	}
	return m
}

// Metrics returns the gateway's metrics registry — the families backing
// GET /v1/metrics — so embedders can mount the exposition on their own mux
// or register additional families alongside the gateway's.
func (g *Gateway) Metrics() *metrics.Registry { return g.met.reg }
