package gateway

import (
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// gatewayMetrics wires a Gateway into a metrics.Registry served at
// GET /v1/metrics, following the same split as the service layer: the
// routing hot path touches exactly one live instrument (the per-backend
// request-duration histogram, observed where recordResult already
// folds the outcome in), while every counter the gateway already keeps
// exports as a func-backed family reading that counter at scrape time —
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

	// The label-less families: one read each of a counter or setting the
	// gateway already keeps. No read takes a matrix's commit lock, which
	// an update holds across its replica legs, so a scrape never waits
	// on a write's I/O.
	counter, gauge := reg.CounterFunc, reg.GaugeFunc
	load := func(a *atomic.Int64) func() float64 { return func() float64 { return float64(a.Load()) } }
	for _, r := range []struct {
		name, help string
		register   func(name, help string, labels []string, collect func() []metrics.Sample)
		read       func() float64
	}{
		{"mpgw_estimates_total", "Estimate queries routed, batch-fallback re-routes included.", counter, load(&g.estimates)},
		{"mpgw_batches_total", "Batch calls scattered across replicas.", counter, load(&g.batches)},
		{"mpgw_placements_total", "Matrices placed (initial puts and chunked commits).", counter, load(&g.placements)},
		{"mpgw_failovers_total", "Queries answered by a replica other than the first one tried.", counter, load(&g.failovers)},
		{"mpgw_retries_total", "Per-query routing attempts beyond the first.", counter, load(&g.retries)},
		{"mpgw_repairs_total", "Replica copies re-seeded from the gateway's retained wire forms.", counter, load(&g.repairs)},
		{"mpgw_rebalanced_total", "Matrices moved by admin add/drain/remove rebalances.", counter, load(&g.rebalanced)},
		{"mpgw_updates_total", "Replicated row-update requests, failed ones included.", counter, load(&g.updates)},
		{"mpgw_update_reverts_total", "Row updates rolled back all-or-nothing after a replica leg failed.", counter, load(&g.updateReverts)},
		{"mpgw_lost_replicas_total", "Replica copies evicted by their backend and pruned from the placement table.", counter, load(&g.lostReplicas)},
		{"mpgw_resyncs_total", "Returning backends reconciled with the placement table by the probe loop.", counter, load(&g.resyncs)},
		{"mpgw_reseed_bytes_total", "Wire bytes re-uploaded to returning backends by probe resyncs.", counter, load(&g.reseedBytes)},
		{"mpgw_async_applied_total", "Update-log entries replayed to lagging replicas (apply loop and in-line catch-ups).", counter, load(&g.asyncApplied)},
		{"mpgw_async_reseeds_total", "Full-wire reseeds of replicas whose lag a log replay could not cover.", counter, load(&g.asyncReseeds)},
		{"mpgw_matrices", "Matrices currently placed.", gauge, func() float64 {
			g.mu.Lock()
			defer g.mu.Unlock()
			return float64(len(g.matrices))
		}},
		{"mpgw_wire_bytes", "Total size of the retained wire copies replicas are re-seeded from.", gauge, func() float64 {
			g.mu.Lock()
			defer g.mu.Unlock()
			var total int64
			for _, pm := range g.matrices {
				total += wireSize(pm.list)
			}
			return float64(total)
		}},
		{"mpgw_replication", "Configured replication factor R.", gauge,
			func() float64 { return float64(g.cfg.Replication) }},
		{"mpgw_uptime_seconds", "Time since the gateway started serving.", gauge,
			func() float64 { return time.Since(g.start).Seconds() }},
		{"mpgw_write_quorum", "Configured ack quorum W a row update commits on (0 = every live replica).", gauge,
			func() float64 { return float64(g.cfg.WriteQuorum) }},
		{"mpgw_update_log_entries", "Retained update-log entries summed over all placed matrices.", gauge,
			func() float64 { return float64(g.updateLogEntries()) }},
		{"mpgw_sessions", "Live consistency sessions.", gauge,
			func() float64 { return float64(g.sessions.len()) }},
	} {
		r.register(r.name, r.help, nil, func() []metrics.Sample { return []metrics.Sample{{Value: r.read()}} })
	}
	// SLA read outcomes as one labeled family: level × outcome, sampled
	// from the same counters behind /stats so the two can never
	// disagree. Levels with no traffic emit no series.
	reg.CounterFunc("mpgw_sla_requests_total", "SLA-routed reads by consistency level and outcome (hit, catchup, miss).",
		[]string{"level", "outcome"}, func() []metrics.Sample {
			snap := g.sla.snapshot()
			out := make([]metrics.Sample, 0, 3*len(snap))
			for lvl, st := range snap {
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
	for _, def := range []struct {
		name, help string
		register   func(name, help string, labels []string, collect func() []metrics.Sample)
		read       func(bs *BackendStatus) float64
	}{
		{"mpgw_backend_healthy", "Whether the backend's last probe or request succeeded (1 = healthy).", gauge,
			func(bs *BackendStatus) float64 { return boolVal(bs.Healthy) }},
		{"mpgw_backend_draining", "Whether the backend is excluded from routing pending removal (1 = draining).", gauge,
			func(bs *BackendStatus) float64 { return boolVal(bs.Draining) }},
		{"mpgw_backend_inflight", "Requests currently outstanding against the backend.", gauge,
			func(bs *BackendStatus) float64 { return float64(bs.Inflight) }},
		{"mpgw_backend_matrices", "Matrices currently placed on the backend.", gauge,
			func(bs *BackendStatus) float64 { return float64(bs.Matrices) }},
		{"mpgw_backend_consec_fails", "Current consecutive probe-failure streak (drives probe backoff).", gauge,
			func(bs *BackendStatus) float64 { return float64(bs.ConsecFails) }},
		{"mpgw_backend_requests_total", "Requests sent to the backend, failed ones included.", counter,
			func(bs *BackendStatus) float64 { return float64(bs.Requests) }},
		{"mpgw_backend_errors_total", "Failed requests among the backend's requests.", counter,
			func(bs *BackendStatus) float64 { return float64(bs.Errors) }},
		{"mpgw_backend_failovers_total", "Requests that failed over away from this backend to another replica.", counter,
			func(bs *BackendStatus) float64 { return float64(bs.Failovers) }},
	} {
		def.register(def.name, def.help, []string{"backend"}, func() []metrics.Sample {
			backends := g.Backends()
			out := make([]metrics.Sample, len(backends))
			for i := range backends {
				out[i] = metrics.Sample{Labels: []string{backends[i].Addr}, Value: def.read(&backends[i])}
			}
			return out
		})
	}
	return m
}

// Metrics returns the gateway's metrics registry — the families backing
// GET /v1/metrics — so embedders can mount the exposition on their own mux
// or register additional families alongside the gateway's.
func (g *Gateway) Metrics() *metrics.Registry { return g.met.reg }
