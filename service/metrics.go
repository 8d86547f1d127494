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
//     row updates, shard pool, occupancy) exports as func-backed
//     families sampled from the live counters at scrape time: zero
//     hot-path cost, and /metrics can never disagree with /stats.
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

	perKind := func() (map[string]KindStats, Stats) {
		s := e.stats.countersSnapshot(e.reg.len())
		return s.PerKind, s
	}
	reg.CounterFunc("mp_requests_total",
		"Estimate queries by protocol kind and outcome.",
		[]string{"kind", "outcome"}, func() []metrics.Sample {
			pk, _ := perKind()
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
			pk, _ := perKind()
			out := make([]metrics.Sample, 0, len(pk))
			for kind, ks := range pk {
				out = append(out, metrics.Sample{Labels: []string{kind}, Value: float64(ks.Bits)})
			}
			return out
		})
	reg.CounterFunc("mp_rejected_total",
		"Admissions shed with 429 because the worker pool and queue were full.",
		nil, func() []metrics.Sample {
			_, s := perKind()
			return []metrics.Sample{{Value: float64(s.Rejected)}}
		})
	reg.CounterFunc("mp_evictions_total",
		"Served matrices LRU-evicted from the registry.",
		nil, func() []metrics.Sample {
			_, s := perKind()
			return []metrics.Sample{{Value: float64(s.Evictions)}}
		})
	reg.GaugeFunc("mp_matrices",
		"Served matrices currently in the registry.",
		nil, func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(e.reg.len())}}
		})
	reg.GaugeFunc("mp_uptime_seconds",
		"Time since the engine started serving.",
		nil, func() []metrics.Sample {
			return []metrics.Sample{{Value: time.Since(e.stats.start).Seconds()}}
		})

	// Worker-pool occupancy: live channel fill levels, not counters —
	// a scrape sees the instantaneous saturation state.
	reg.GaugeFunc("mp_workers_busy",
		"Worker slots currently executing protocol jobs.",
		nil, func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(len(e.workers))}}
		})
	reg.GaugeFunc("mp_workers_capacity",
		"Configured worker-pool size.",
		nil, func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(cap(e.workers))}}
		})
	reg.GaugeFunc("mp_queue_depth",
		"Admissions currently waiting for a worker slot.",
		nil, func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(len(e.queue))}}
		})
	reg.GaugeFunc("mp_queue_capacity",
		"Configured admission-queue depth.",
		nil, func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(cap(e.queue))}}
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
		reg.GaugeFunc("mp_cache_entries",
			"Precomputed Bob-side states currently cached.",
			nil, func() []metrics.Sample {
				return []metrics.Sample{{Value: float64(e.cache.snapshot().Entries)}}
			})
		reg.GaugeFunc("mp_cache_bytes",
			"Summed in-memory size of the cached states.",
			nil, func() []metrics.Sample {
				return []metrics.Sample{{Value: float64(e.cache.snapshot().Bytes)}}
			})
		reg.GaugeFunc("mp_cache_seed_epoch",
			"Current seed epoch of the sketch cache.",
			nil, func() []metrics.Sample {
				return []metrics.Sample{{Value: float64(e.cache.snapshot().SeedEpoch)}}
			})
	}

	if e.persist != nil {
		persistStats := func() PersistStats { return e.persist.snapshot() }
		reg.CounterFunc("mp_store_snapshots_total",
			"Matrix snapshots persisted to the durable store (installs and compactions).",
			nil, func() []metrics.Sample {
				return []metrics.Sample{{Value: float64(persistStats().Snapshots)}}
			})
		reg.CounterFunc("mp_store_wal_appends_total",
			"Row-update records appended to the write-ahead log.",
			nil, func() []metrics.Sample {
				return []metrics.Sample{{Value: float64(persistStats().WALAppends)}}
			})
		reg.CounterFunc("mp_store_compactions_total",
			"Background snapshot compactions (snapshot plus WAL truncation).",
			nil, func() []metrics.Sample {
				return []metrics.Sample{{Value: float64(persistStats().Compactions)}}
			})
		reg.CounterFunc("mp_store_tombstones_total",
			"Durable matrix states removed by DELETE and LRU eviction.",
			nil, func() []metrics.Sample {
				return []metrics.Sample{{Value: float64(persistStats().Tombstones)}}
			})
		reg.CounterFunc("mp_store_errors_total",
			"Failed durable-store operations.",
			nil, func() []metrics.Sample {
				return []metrics.Sample{{Value: float64(persistStats().Errors)}}
			})
		reg.CounterFunc("mp_store_recovered_matrices_total",
			"Matrices restored from durable state at boot.",
			nil, func() []metrics.Sample {
				return []metrics.Sample{{Value: float64(persistStats().RecoveredMatrices)}}
			})
		reg.CounterFunc("mp_store_replayed_records_total",
			"WAL records replayed over snapshots at boot.",
			nil, func() []metrics.Sample {
				return []metrics.Sample{{Value: float64(persistStats().ReplayedRecords)}}
			})
		reg.CounterFunc("mp_store_recovery_errors_total",
			"Matrices or log suffixes skipped at boot because their durable state did not validate.",
			nil, func() []metrics.Sample {
				return []metrics.Sample{{Value: float64(persistStats().RecoveryErrors)}}
			})
		reg.CounterFunc("mp_store_fsyncs_total",
			"fsync calls issued by the durable store (files and directories).",
			nil, func() []metrics.Sample {
				return []metrics.Sample{{Value: float64(persistStats().Backend.Fsyncs)}}
			})
		reg.CounterFunc("mp_store_torn_records_total",
			"Torn WAL tail records detected and truncated on open — the expected shape of a crash mid-append.",
			nil, func() []metrics.Sample {
				return []metrics.Sample{{Value: float64(persistStats().Backend.TornRecords)}}
			})
		reg.CounterFunc("mp_store_snapshot_bytes_total",
			"Summed payload bytes of persisted snapshots.",
			nil, func() []metrics.Sample {
				return []metrics.Sample{{Value: float64(persistStats().Backend.SnapshotBytes)}}
			})
		reg.CounterFunc("mp_store_wal_bytes_total",
			"Summed payload bytes of appended WAL records.",
			nil, func() []metrics.Sample {
				return []metrics.Sample{{Value: float64(persistStats().Backend.WALBytes)}}
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
	reg.CounterFunc("mp_upload_chunks_total",
		"Chunks accepted across all chunked uploads.",
		nil, func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(e.uploads.Stats().Chunks)}}
		})
	reg.GaugeFunc("mp_uploads_active",
		"Chunked uploads currently staged (begun, not yet committed).",
		nil, func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(e.uploads.Stats().Active)}}
		})
	reg.GaugeFunc("mp_upload_staged_elems",
		"Total rows*cols staged across active chunked uploads, against the MaxStagedElems budget.",
		nil, func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(e.uploads.Stats().StagedElems)}}
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
	reg.CounterFunc("mp_rows_updated_total",
		"Row patches applied to served matrices.",
		nil, func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(e.rowUpd.snapshot().Rows)}}
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

	// Shard-pool occupancy. The pool is process-wide (see ShardStats),
	// so in a process hosting several engines these aggregate across
	// them — same caveat as /stats.
	reg.GaugeFunc("mp_shards",
		"Configured row shards per job on the parallel serve path.",
		nil, func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(e.cfg.Shards)}}
		})
	reg.CounterFunc("mp_shard_jobs_total",
		"Sharded sections that ran in parallel on the process-wide pool.",
		nil, func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(shardStatsSnapshot(e.cfg.Shards).Jobs)}}
		})
	reg.CounterFunc("mp_shard_tasks_total",
		"Shard tasks executed by the process-wide pool.",
		nil, func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(shardStatsSnapshot(e.cfg.Shards).Tasks)}}
		})
	reg.CounterFunc("mp_shard_busy_seconds_total",
		"Cumulative busy time per shard index — near-equal values mean a healthy row distribution.",
		[]string{"shard"}, func() []metrics.Sample {
			busy := shardStatsSnapshot(e.cfg.Shards).Busy
			out := make([]metrics.Sample, len(busy))
			for i, d := range busy {
				out[i] = metrics.Sample{Labels: []string{strconv.Itoa(i)}, Value: d.Seconds()}
			}
			return out
		})
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
