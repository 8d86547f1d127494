package gateway

import (
	"time"

	"repro/service"
)

// PlacementInfo describes one placed matrix: the catalog info the
// backends agreed on plus the replicas currently holding it. The JSON
// shape is a strict superset of service.MatrixInfo, so service clients
// decoding a gateway upload reply keep working.
type PlacementInfo struct {
	service.MatrixInfo
	// Replicas are the backend addresses holding a copy.
	Replicas []string `json:"replicas"`
}

// BackendStatus snapshots one pooled backend for Stats and the admin
// listing.
type BackendStatus struct {
	// Addr is the backend's base URL — its pool key and admin handle.
	Addr string `json:"addr"`
	// Healthy reports whether the last probe (or request) succeeded.
	Healthy bool `json:"healthy"`
	// Draining reports whether the backend is excluded from routing
	// and new placements, pending removal.
	Draining bool `json:"draining"`
	// Inflight is the number of requests currently outstanding.
	Inflight int64 `json:"inflight"`
	// Requests counts requests sent to the backend, failed included.
	Requests int64 `json:"requests"`
	// Errors counts the failed requests among Requests.
	Errors int64 `json:"errors"`
	// Failovers counts requests that failed over away from this
	// backend to another replica.
	Failovers int64 `json:"failovers"`
	// Matrices is the number of matrices currently placed on the
	// backend.
	Matrices int `json:"matrices"`
	// ConsecFails is the current consecutive probe-failure streak
	// (drives the prober's exponential backoff).
	ConsecFails int `json:"consec_fails"`
	// LastError is the most recent probe or transport failure, empty
	// while healthy.
	LastError string `json:"last_error,omitempty"`
	// LatencyP50 is the median request latency over the recent window.
	LatencyP50 time.Duration `json:"latency_p50_ns"`
	// LatencyP90 is the 90th-percentile latency over the window.
	LatencyP90 time.Duration `json:"latency_p90_ns"`
	// LatencyP99 is the 99th-percentile latency over the window.
	LatencyP99 time.Duration `json:"latency_p99_ns"`
}

// Stats is a snapshot of the gateway's aggregate counters and the
// per-backend breakdown.
type Stats struct {
	// Replication is the configured replication factor R.
	Replication int `json:"replication"`
	// Matrices is the number of placed matrices.
	Matrices int `json:"matrices"`
	// Estimates counts estimate queries routed (batch fallback
	// re-routes included).
	Estimates int64 `json:"estimates"`
	// Batches counts batch calls scattered.
	Batches int64 `json:"batches"`
	// Placements counts matrices placed (initial puts and chunked
	// commits; rebalance moves are counted in Rebalanced).
	Placements int64 `json:"placements"`
	// Failovers counts queries answered by a replica other than the
	// first one tried.
	Failovers int64 `json:"failovers"`
	// Retries counts per-query routing attempts beyond the first,
	// successful or not.
	Retries int64 `json:"retries"`
	// Repairs counts replica copies re-seeded from the gateway's
	// retained wire forms (estimate- and update-path 404 repairs and
	// probe-time resyncs).
	Repairs int64 `json:"repairs"`
	// Rebalanced counts matrices moved by admin add/drain/remove
	// rebalances.
	Rebalanced int64 `json:"rebalanced"`
	// Updates counts replicated row-update requests (PATCH
	// /matrices/{name}/rows), failed ones included.
	Updates int64 `json:"updates"`
	// UpdateReverts counts updates that failed on some replica and were
	// rolled back all-or-nothing on the legs that had applied them.
	UpdateReverts int64 `json:"update_reverts"`
	// LostReplicas counts replica copies LRU-evicted by their own
	// backend (its -max-matrices is below its share of placements) and
	// pruned from the placement table. A growing value means the
	// backends' registry capacity is underprovisioned.
	LostReplicas int64 `json:"lost_replicas"`
	// Resyncs counts returning backends reconciled with the placement
	// table by the probe loop. A backend that recovered its matrices
	// from its own -data-dir advances this without advancing Repairs or
	// ReseedBytes.
	Resyncs int64 `json:"resyncs"`
	// ReseedBytes is the total wire bytes re-uploaded to returning
	// backends by probe resyncs (zero when backends recover from disk).
	ReseedBytes int64 `json:"reseed_bytes"`
	// WireBytes is the retained copies' total size as shipped (see
	// wireSize): 24 bytes per non-zero the gateway would re-seed
	// replicas with — explicit zeros of the upload are not retained.
	WireBytes int64 `json:"wire_bytes"`
	// WriteQuorum is the configured ack quorum W a row update commits
	// on (Config.WriteQuorum); 0 means every live replica.
	WriteQuorum int `json:"write_quorum"`
	// UpdateLogEntries is the total retained update-log length summed
	// over all placed matrices (each log is bounded by
	// Config.UpdateLogMax).
	UpdateLogEntries int `json:"update_log_entries"`
	// AsyncApplied counts log entries replayed to lagging replicas (by
	// the apply loop and in-line catch-ups).
	AsyncApplied int64 `json:"async_applied"`
	// AsyncReseeds counts full-wire reseeds of replicas whose lag could
	// not be covered by a log replay (trimmed window, epoch change,
	// lost copy).
	AsyncReseeds int64 `json:"async_reseeds"`
	// Sessions is the live consistency-session count.
	Sessions int `json:"sessions"`
	// SLA breaks read outcomes down per consistency level (levels with
	// no traffic are omitted).
	SLA map[string]SLAStats `json:"sla,omitempty"`
	// Backends is the per-backend breakdown, sorted by address.
	Backends []BackendStatus `json:"backends"`
	// Uptime is how long the gateway has been serving.
	Uptime time.Duration `json:"uptime_ns"`
}

// RebalanceReport summarizes one admin operation's data moves.
type RebalanceReport struct {
	// Action is the admin operation: "add", "drain", or "remove".
	Action string `json:"action"`
	// Backend is the address the operation targeted.
	Backend string `json:"backend"`
	// Moved counts matrices whose replica set changed.
	Moved int `json:"moved"`
	// Failed counts matrices whose moves did not fully land (their
	// old placement is kept where possible; the next rebalance or
	// probe-resync retries).
	Failed int `json:"failed"`
}

// Stats snapshots the gateway.
func (g *Gateway) Stats() Stats {
	g.mu.Lock()
	matrices := len(g.matrices)
	var wireBytes int64
	for _, pm := range g.matrices {
		wireBytes += wireSize(pm.list)
	}
	g.mu.Unlock()
	return Stats{
		Replication:      g.cfg.Replication,
		Matrices:         matrices,
		Estimates:        g.estimates.Load(),
		Batches:          g.batches.Load(),
		Placements:       g.placements.Load(),
		Failovers:        g.failovers.Load(),
		Retries:          g.retries.Load(),
		Repairs:          g.repairs.Load(),
		Rebalanced:       g.rebalanced.Load(),
		Updates:          g.updates.Load(),
		UpdateReverts:    g.updateReverts.Load(),
		LostReplicas:     g.lostReplicas.Load(),
		Resyncs:          g.resyncs.Load(),
		ReseedBytes:      g.reseedBytes.Load(),
		WireBytes:        wireBytes,
		WriteQuorum:      g.cfg.WriteQuorum,
		UpdateLogEntries: g.updateLogEntries(),
		AsyncApplied:     g.asyncApplied.Load(),
		AsyncReseeds:     g.asyncReseeds.Load(),
		Sessions:         g.sessions.len(),
		SLA:              g.sla.snapshot(),
		Backends:         g.Backends(),
		Uptime:           time.Since(g.start),
	}
}

// updateLogEntries sums the retained update-log lengths. It reads each
// matrix's logLen, not its log: an update holds the matrix's commit lock
// across its replica legs, and a stats read must not wait on those.
func (g *Gateway) updateLogEntries() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	var n int64
	for _, st := range g.upd {
		n += st.logLen.Load()
	}
	return int(n)
}
