package service

import (
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
)

// latencyWindow is how many recent request latencies the percentile
// estimates are computed over.
const latencyWindow = 4096

// KindStats aggregates serving statistics for one job kind.
type KindStats struct {
	// Requests counts queries of this kind, failed ones included.
	Requests int64 `json:"requests"`
	// Errors counts the failed queries among Requests.
	Errors int64 `json:"errors"`
	// Bits is the summed protocol payload of the kind's queries.
	Bits int64 `json:"bits"`
	// Rounds is the summed round count of the kind's queries.
	Rounds int64 `json:"rounds"`
}

// Stats is a snapshot of the engine's aggregate serving statistics.
type Stats struct {
	// Requests counts estimation queries of a known kind, each once,
	// however it failed; queries of an unknown kind are not counted.
	Requests int64 `json:"requests"`
	// Errors counts the failed queries among Requests.
	Errors int64 `json:"errors"`
	// Rejected counts admissions shed with ErrOverloaded.
	Rejected int64 `json:"rejected"`
	// Evictions counts matrices LRU-evicted from the registry.
	Evictions int64 `json:"evictions"`
	// Matrices is the current registry size.
	Matrices int `json:"matrices"`
	// TotalBits is the summed protocol payload on the wire.
	TotalBits int64 `json:"total_bits"`
	// PerKind breaks the request counters down by job kind.
	PerKind map[string]KindStats `json:"per_kind"`
	// Cache holds the sketch-cache counters (zero when disabled).
	Cache CacheStats `json:"cache"`
	// Shard holds the row-shard serve-path counters.
	Shard ShardStats `json:"shard"`
	// Uploads holds the chunked-upload lifecycle counters.
	Uploads UploadStats `json:"uploads"`
	// RowUpdates holds the dynamic row-update counters.
	RowUpdates RowUpdateStats `json:"row_updates"`
	// Store holds the durable-persistence counters (Enabled false when
	// no store is configured).
	Store PersistStats `json:"store"`
	// LatencyP50 is the median protocol latency over the recent window.
	LatencyP50 time.Duration `json:"latency_p50_ns"`
	// LatencyP90 is the 90th-percentile latency over the recent window.
	LatencyP90 time.Duration `json:"latency_p90_ns"`
	// LatencyP99 is the 99th-percentile latency over the recent window.
	LatencyP99 time.Duration `json:"latency_p99_ns"`
	// QueueWaitP50 is the median admission-slot wait over the recent
	// window — time between an Estimate/EstimateBatch call entering
	// admission and a worker slot being granted, reported separately
	// from the protocol latencies above so queueing delay (saturation)
	// is visible apart from service time.
	QueueWaitP50 time.Duration `json:"queue_wait_p50_ns"`
	// QueueWaitP90 is the 90th-percentile admission wait.
	QueueWaitP90 time.Duration `json:"queue_wait_p90_ns"`
	// QueueWaitP99 is the 99th-percentile admission wait.
	QueueWaitP99 time.Duration `json:"queue_wait_p99_ns"`
	// Uptime is how long the engine has been serving.
	Uptime time.Duration `json:"uptime_ns"`
}

// collector accumulates serving stats; latencies go into a fixed ring
// so percentile estimates track the recent window at O(1) memory.
type collector struct {
	mu        sync.Mutex
	start     time.Time
	requests  int64
	errors    int64
	rejected  int64
	evictions int64
	totalBits int64
	perKind   map[string]*KindStats
	ring      [latencyWindow]time.Duration
	ringN     int // total latencies ever recorded
	waitRing  [latencyWindow]time.Duration
	waitRingN int // total queue waits ever recorded
	// raP50/raAt cache the queue-wait median backing Retry-After hints:
	// sheds arrive exactly when the engine is saturated, so each one must
	// not pay an O(n log n) sort over the wait ring.
	raP50 time.Duration
	raAt  time.Time
}

func newCollector() *collector {
	return &collector{start: time.Now(), perKind: make(map[string]*KindStats)}
}

func (c *collector) record(kind string, bits int64, rounds int, lat time.Duration, failed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bump(kind, bits, rounds, failed)
	c.ring[c.ringN%latencyWindow] = lat
	c.ringN++
}

// recordFailure counts a request that failed before any protocol ran:
// refused, or its state or transport could not be built. No latency
// sample is written: a stream of invalid requests must not flood the
// percentile window with zeros.
func (c *collector) recordFailure(kind string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bump(kind, 0, 0, true)
}

// bump updates the counters. Callers hold c.mu.
func (c *collector) bump(kind string, bits int64, rounds int, failed bool) {
	c.requests++
	c.totalBits += bits
	ks := c.perKind[kind]
	if ks == nil {
		ks = &KindStats{}
		c.perKind[kind] = ks
	}
	ks.Requests++
	ks.Bits += bits
	ks.Rounds += int64(rounds)
	if failed {
		c.errors++
		ks.Errors++
	}
}

// recordQueueWait records how long one admission waited for a worker
// slot. Kept in its own ring: queue waits and service times have very
// different distributions and mixing them would hide saturation.
func (c *collector) recordQueueWait(wait time.Duration) {
	c.mu.Lock()
	c.waitRing[c.waitRingN%latencyWindow] = wait
	c.waitRingN++
	c.mu.Unlock()
}

// retryAfterTTL is how long a computed queue-wait median is reused for
// Retry-After hints before being recomputed.
const retryAfterTTL = time.Second

// queueWaitP50Cached returns the recent median admission wait,
// recomputing it at most once per retryAfterTTL.
func (c *collector) queueWaitP50Cached() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.raAt.IsZero() && time.Since(c.raAt) < retryAfterTTL {
		return c.raP50
	}
	c.raP50, _, _ = ringPercentiles(&c.waitRing, c.waitRingN)
	c.raAt = time.Now()
	return c.raP50
}

func (c *collector) reject() {
	c.mu.Lock()
	c.rejected++
	c.mu.Unlock()
}

func (c *collector) evict(n int) {
	c.mu.Lock()
	c.evictions += int64(n)
	c.mu.Unlock()
}

// countersSnapshot returns a consistent copy of the monotone counters
// without touching the latency rings — no sorting, so it is cheap
// enough for the /metrics func-backed families to call at scrape time.
func (c *collector) countersSnapshot(matrices int) Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.countersLocked(matrices)
}

// countersLocked builds the counter part of a Stats. Callers hold c.mu.
func (c *collector) countersLocked(matrices int) Stats {
	s := Stats{
		Requests:  c.requests,
		Errors:    c.errors,
		Rejected:  c.rejected,
		Evictions: c.evictions,
		Matrices:  matrices,
		TotalBits: c.totalBits,
		PerKind:   make(map[string]KindStats, len(c.perKind)),
		Uptime:    time.Since(c.start),
	}
	for k, v := range c.perKind {
		s.PerKind[k] = *v
	}
	return s
}

// snapshot returns a consistent copy with latency and queue-wait
// percentiles over the recent windows.
func (c *collector) snapshot(matrices int) Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.countersLocked(matrices)
	s.LatencyP50, s.LatencyP90, s.LatencyP99 = ringPercentiles(&c.ring, c.ringN)
	s.QueueWaitP50, s.QueueWaitP90, s.QueueWaitP99 = ringPercentiles(&c.waitRing, c.waitRingN)
	return s
}

// ringPercentiles reads the P50/P90/P99 of a latency ring holding
// min(n, latencyWindow) valid entries.
func ringPercentiles(ring *[latencyWindow]time.Duration, n int) (p50, p90, p99 time.Duration) {
	if n > latencyWindow {
		n = latencyWindow
	}
	if n == 0 {
		return 0, 0, 0
	}
	lats := make([]time.Duration, n)
	copy(lats, ring[:n])
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return Percentile(lats, 0.50), Percentile(lats, 0.90), Percentile(lats, 0.99)
}

// RetryAfter is the backoff hint attached to admission sheds (the
// Retry-After header on 429 responses): twice the recent median
// queue wait — long enough that a retry arriving after it has a real
// chance of finding a slot — floored at one second so an engine shedding
// from a cold window still spreads its retry wave.
func (e *Engine) RetryAfter() time.Duration {
	wait := 2 * e.stats.queueWaitP50Cached()
	if wait < time.Second {
		wait = time.Second
	}
	return wait
}

// ShardStats describes the row-shard parallel serve path: the engine's
// configured shard count plus the pool's execution counters. The pool —
// and therefore Jobs/Tasks/Busy — is process-wide (all engines' shard
// tasks share one GOMAXPROCS-bounded pool), so in a process hosting
// several engines the counters aggregate across them.
type ShardStats struct {
	// Shards is the engine's configured row-shard count per job.
	Shards int `json:"shards"`
	// Jobs counts sharded sections that actually ran in parallel;
	// sections coarsened to one range run inline and are not counted.
	Jobs int64 `json:"jobs"`
	// Tasks counts shard tasks executed by the pool.
	Tasks int64 `json:"tasks"`
	// Busy is the cumulative busy time per shard index (shard 0 first) —
	// a skew diagnostic: a healthy row distribution keeps the entries
	// near-equal.
	Busy []time.Duration `json:"busy_ns"`
}

// shardStatsSnapshot folds the engine's configured shard count with the
// process-wide pool counters.
func shardStatsSnapshot(shards int) ShardStats {
	info := core.ShardCounters()
	return ShardStats{Shards: shards, Jobs: info.Jobs, Tasks: info.Tasks, Busy: info.Busy}
}

// Percentile reads the q-quantile from a sorted slice by the
// nearest-rank definition: the smallest element whose rank r (1-based)
// satisfies r ≥ q·n. (Truncating q·(n−1) instead — a previous bug here
// and in cmd/mpload — biases high quantiles low on small windows: P99
// of 10 samples picked the 9th-smallest, not the maximum.) Exported so
// latency-reporting clients share one definition with the server.
func Percentile(sorted []time.Duration, q float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}
