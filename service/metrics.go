package service

import (
	"strconv"
	"time"

	"repro/internal/metrics"
)

// engineMetrics wires an Engine into a metrics.Registry served at
// GET /v1/metrics.
//
// Two kinds of family, matching the metrics package's cost model:
//
//   - Hot-path histograms (request duration, queue wait) are the only
//     instruments the serving path touches, through handles resolved
//     once at engine construction — per observation the cost is one
//     read-only map access (the per-kind handle) plus lock-free atomic
//     adds, a few tens of nanoseconds against a millisecond-scale
//     protocol run. DESIGN.md states this contract.
//   - Everything the engine already counts (requests, cache, uploads,
//     row updates, shard pool, store, occupancy) exports as func-backed
//     families sampled from the live counters at scrape time: zero
//     hot-path cost, and /metrics can never disagree with /stats. The
//     label-less ones are rows of one table — name, help, counter or
//     gauge, and one read — and no read takes a lock a write holds
//     across I/O, so a scrape never waits on an fsync.
type engineMetrics struct {
	reg *metrics.Registry
	// reqDur holds the per-kind protocol-duration histograms,
	// pre-resolved for every kind in Kinds. Read-only after
	// construction, so runJob's lookup is safe without a lock.
	reqDur map[string]*metrics.Histogram
	// queueWait is the admission-slot wait histogram — kept separate
	// from request duration so saturation (queueing) is visible apart
	// from service time.
	queueWait *metrics.Histogram
}

// queueWaitBuckets spans 10µs (uncontended admit) to ~10s (a full
// queue draining multi-millisecond jobs).
func queueWaitBuckets() []float64 { return metrics.ExpBuckets(10e-6, 4, 11) }

func newEngineMetrics(e *Engine) *engineMetrics {
	reg := metrics.NewRegistry()
	m := &engineMetrics{reg: reg, reqDur: make(map[string]*metrics.Histogram, len(Kinds))}

	durVec := reg.NewHistogramVec("mp_request_duration_seconds",
		"Protocol execution time per estimate query by kind, queue wait excluded (see mp_queue_wait_seconds).",
		nil, "kind")
	for kind := range Kinds {
		m.reqDur[kind] = durVec.With(kind)
	}
	m.queueWait = reg.NewHistogram("mp_queue_wait_seconds",
		"Admission-slot wait before a query (or batch) starts executing, reported separately from service time.",
		queueWaitBuckets())

	counters := func() Stats { return e.stats.countersSnapshot(e.reg.len()) }
	reg.CounterFunc("mp_requests_total",
		"Estimate queries by protocol kind and outcome.",
		[]string{"kind", "outcome"}, func() []metrics.Sample {
			pk := counters().PerKind
			out := make([]metrics.Sample, 0, 2*len(pk))
			for kind, ks := range pk {
				out = append(out,
					metrics.Sample{Labels: []string{kind, "ok"}, Value: float64(ks.Requests - ks.Errors)},
					metrics.Sample{Labels: []string{kind, "error"}, Value: float64(ks.Errors)})
			}
			return out
		})
	reg.CounterFunc("mp_protocol_bits_total",
		"Exact protocol communication payload shipped, by kind (bits).",
		[]string{"kind"}, func() []metrics.Sample {
			pk := counters().PerKind
			out := make([]metrics.Sample, 0, len(pk))
			for kind, ks := range pk {
				out = append(out, metrics.Sample{Labels: []string{kind}, Value: float64(ks.Bits)})
			}
			return out
		})
	if e.cache != nil {
		reg.CounterFunc("mp_cache_lookups_total",
			"Sketch-cache lookups by result.",
			[]string{"result"}, func() []metrics.Sample {
				cs := e.cache.snapshot()
				return []metrics.Sample{
					{Labels: []string{"hit"}, Value: float64(cs.Hits)},
					{Labels: []string{"miss"}, Value: float64(cs.Misses)},
				}
			})
	}
	reg.CounterFunc("mp_uploads_total",
		"Chunked-upload lifecycle events.",
		[]string{"event"}, func() []metrics.Sample {
			us := e.uploads.Stats()
			return []metrics.Sample{
				{Labels: []string{"begun"}, Value: float64(us.Begun)},
				{Labels: []string{"committed"}, Value: float64(us.Committed)},
				{Labels: []string{"aborted"}, Value: float64(us.Aborted)},
				{Labels: []string{"expired"}, Value: float64(us.Expired)},
			}
		})
	reg.CounterFunc("mp_row_update_requests_total",
		"PATCH row-update requests by outcome.",
		[]string{"outcome"}, func() []metrics.Sample {
			ru := e.rowUpd.snapshot()
			return []metrics.Sample{
				{Labels: []string{"ok"}, Value: float64(ru.Requests - ru.Errors)},
				{Labels: []string{"error"}, Value: float64(ru.Errors)},
			}
		})
	reg.CounterFunc("mp_cache_state_migrations_total",
		"Cached Bob states migrated across row updates, by result.",
		[]string{"result"}, func() []metrics.Sample {
			ru := e.rowUpd.snapshot()
			return []metrics.Sample{
				{Labels: []string{"refreshed"}, Value: float64(ru.StatesRefreshed)},
				{Labels: []string{"dropped"}, Value: float64(ru.StatesDropped)},
			}
		})
	// The shard pool is process-wide (see ShardStats), so in a process
	// hosting several engines its families aggregate across them — same
	// caveat as /stats.
	shards := func() ShardStats { return shardStatsSnapshot(e.cfg.Shards) }
	reg.CounterFunc("mp_shard_busy_seconds_total",
		"Cumulative busy time per shard index — near-equal values mean a healthy row distribution.",
		[]string{"shard"}, func() []metrics.Sample {
			busy := shards().Busy
			out := make([]metrics.Sample, len(busy))
			for i, d := range busy {
				out[i] = metrics.Sample{Labels: []string{strconv.Itoa(i)}, Value: d.Seconds()}
			}
			return out
		})

	// The label-less families: one read each of a snapshot the engine
	// already keeps. Worker-pool occupancy reads live channel fill
	// levels, so a scrape sees the instantaneous saturation state.
	counter, gauge := reg.CounterFunc, reg.GaugeFunc
	type row struct {
		name, help string
		register   func(name, help string, labels []string, collect func() []metrics.Sample)
		read       func() float64
	}
	rows := []row{
		{"mp_rejected_total", "Admissions shed with 429 because the worker pool and queue were full.", counter,
			func() float64 { return float64(counters().Rejected) }},
		{"mp_evictions_total", "Served matrices LRU-evicted from the registry.", counter,
			func() float64 { return float64(counters().Evictions) }},
		{"mp_matrices", "Served matrices currently in the registry.", gauge,
			func() float64 { return float64(e.reg.len()) }},
		{"mp_uptime_seconds", "Time since the engine started serving.", gauge,
			func() float64 { return time.Since(e.stats.start).Seconds() }},
		{"mp_workers_busy", "Worker slots currently executing protocol jobs.", gauge,
			func() float64 { return float64(len(e.workers)) }},
		{"mp_workers_capacity", "Configured worker-pool size.", gauge,
			func() float64 { return float64(cap(e.workers)) }},
		{"mp_queue_depth", "Admissions currently waiting for a worker slot.", gauge,
			func() float64 { return float64(len(e.queue)) }},
		{"mp_queue_capacity", "Configured admission-queue depth.", gauge,
			func() float64 { return float64(cap(e.queue)) }},
		{"mp_upload_chunks_total", "Chunks accepted across all chunked uploads.", counter,
			func() float64 { return float64(e.uploads.Stats().Chunks) }},
		{"mp_uploads_active", "Chunked uploads currently staged (begun, not yet committed).", gauge,
			func() float64 { return float64(e.uploads.Stats().Active) }},
		{"mp_upload_staged_elems", "Total rows*cols staged across active chunked uploads, against the MaxStagedElems budget.", gauge,
			func() float64 { return float64(e.uploads.Stats().StagedElems) }},
		{"mp_rows_updated_total", "Row patches applied to served matrices.", counter,
			func() float64 { return float64(e.rowUpd.snapshot().Rows) }},
		{"mp_shards", "Configured row shards per job on the parallel serve path.", gauge,
			func() float64 { return float64(e.cfg.Shards) }},
		{"mp_shard_jobs_total", "Sharded sections that ran in parallel on the process-wide pool.", counter,
			func() float64 { return float64(shards().Jobs) }},
		{"mp_shard_tasks_total", "Shard tasks executed by the process-wide pool.", counter,
			func() float64 { return float64(shards().Tasks) }},
	}
	if c := e.cache; c != nil {
		rows = append(rows,
			row{"mp_cache_entries", "Precomputed Bob-side states currently cached.", gauge,
				func() float64 { return float64(c.snapshot().Entries) }},
			row{"mp_cache_bytes", "Summed in-memory size of the cached states.", gauge,
				func() float64 { return float64(c.snapshot().Bytes) }},
			row{"mp_cache_seed_epoch", "Current seed epoch of the sketch cache.", gauge,
				func() float64 { return float64(c.snapshot().SeedEpoch) }})
	}
	if p := e.persist; p != nil {
		rows = append(rows,
			row{"mp_store_snapshots_total", "Matrix snapshots persisted to the durable store (installs and compactions).", counter,
				func() float64 { return float64(p.snapshot().Snapshots) }},
			row{"mp_store_wal_appends_total", "Row-update records appended to the write-ahead log.", counter,
				func() float64 { return float64(p.snapshot().WALAppends) }},
			row{"mp_store_compactions_total", "Background snapshot compactions (snapshot plus WAL truncation).", counter,
				func() float64 { return float64(p.snapshot().Compactions) }},
			row{"mp_store_tombstones_total", "Durable matrix states removed by DELETE and LRU eviction.", counter,
				func() float64 { return float64(p.snapshot().Tombstones) }},
			row{"mp_store_errors_total", "Failed durable-store operations.", counter,
				func() float64 { return float64(p.snapshot().Errors) }},
			row{"mp_store_recovered_matrices_total", "Matrices restored from durable state at boot.", counter,
				func() float64 { return float64(p.snapshot().RecoveredMatrices) }},
			row{"mp_store_replayed_records_total", "WAL records replayed over snapshots at boot.", counter,
				func() float64 { return float64(p.snapshot().ReplayedRecords) }},
			row{"mp_store_recovery_errors_total", "Matrices or log suffixes skipped at boot because their durable state did not validate.", counter,
				func() float64 { return float64(p.snapshot().RecoveryErrors) }},
			row{"mp_store_fsyncs_total", "fsync calls issued by the durable store (files and directories).", counter,
				func() float64 { return float64(p.snapshot().Backend.Fsyncs) }},
			row{"mp_store_torn_records_total", "Torn WAL tail records detected and truncated on open — the expected shape of a crash mid-append.", counter,
				func() float64 { return float64(p.snapshot().Backend.TornRecords) }},
			row{"mp_store_snapshot_bytes_total", "Summed payload bytes of persisted snapshots.", counter,
				func() float64 { return float64(p.snapshot().Backend.SnapshotBytes) }},
			row{"mp_store_wal_bytes_total", "Summed payload bytes of appended WAL records.", counter,
				func() float64 { return float64(p.snapshot().Backend.WALBytes) }})
	}
	for _, r := range rows {
		r.register(r.name, r.help, nil, func() []metrics.Sample { return []metrics.Sample{{Value: r.read()}} })
	}
	return m
}

// observeRun records one executed protocol run's duration into the
// per-kind histogram. Unknown kinds never reach here (they fail
// validation before a protocol runs).
//
//mp:hotpath
func (m *engineMetrics) observeRun(kind string, elapsed time.Duration) {
	if h := m.reqDur[kind]; h != nil {
		h.Observe(elapsed.Seconds())
	}
}

// Metrics returns the engine's metrics registry — the families backing
// GET /v1/metrics. Exposed so embedders can mount the exposition on their
// own mux or register additional families alongside the engine's.
func (e *Engine) Metrics() *metrics.Registry { return e.met.reg }
