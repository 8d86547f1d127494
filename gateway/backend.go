package gateway

import (
	"errors"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/service"
)

// backendLatencyWindow is how many recent per-backend request
// latencies the percentile estimates are computed over.
const backendLatencyWindow = 1024

// backend is one pooled mpserver: its service client, routing state
// (health, drain, in-flight load), probe bookkeeping, and counters.
type backend struct {
	id     string // normalized base URL; the pool key and admin handle
	client *service.Client
	// dur is the backend's pre-resolved request-duration histogram
	// handle (nil only in tests constructing backends directly).
	dur *metrics.Histogram

	// inflight counts requests currently outstanding against the
	// backend — the least-busy routing signal. Atomic so the hot
	// routing path never takes the bookkeeping lock.
	inflight atomic.Int64
	// sweep asks the next successful probe for the straggler sweep: a
	// delete of a copy here was not confirmed (see dropCopy).
	sweep atomic.Bool

	mu       sync.Mutex
	healthy  bool
	draining bool
	probing  bool // a probe is in flight; the ticker must not stack another
	// consecFails counts consecutive probe failures; the prober's
	// exponential backoff derives from it.
	consecFails int
	// demotions counts transport-level health demotions (noteFailover).
	// The prober snapshots it before a probe and refuses to re-admit if
	// it moved — a success observed before a crash must not win.
	demotions int64
	// nextProbe is when the prober may contact the backend again.
	nextProbe time.Time
	lastErr   string
	// saturatedUntil is set when the backend sheds with 429 + a
	// Retry-After: routing treats it like unhealthy until the window
	// elapses, without a probe-cycle demotion (the backend is alive,
	// just full).
	saturatedUntil time.Time

	// jfrac is the backend's deterministic probe-backoff jitter
	// fraction in [0, 1), derived from the backend key at construction
	// (see newBackend) — no RNG, keeping mpvet's determinism contract.
	jfrac float64

	requests  int64
	errors    int64
	failovers int64 // requests that failed over away from this backend
	ring      [backendLatencyWindow]time.Duration
	ringN     int
}

func newBackend(id string, httpc *http.Client) *backend {
	// The backend hop speaks the binary wire format for the hot
	// endpoints — estimates, row updates, and the repair/re-seed
	// uploads of retained wire copies — with the client's sticky 415
	// fallback covering JSON-only backends.
	c := service.New(id,
		service.WithAccept(service.MediaTypeBinary),
		service.WithHTTPClient(httpc))
	// A new backend is admitted optimistically: the prober demotes it
	// on its first failed probe, and routing failover covers the gap.
	// The probe-backoff jitter fraction reuses the placement hash as a
	// deterministic per-key uniform source: the top 53 bits of the
	// keyed score form a float in [0, 1).
	jfrac := float64(placementScore(id, "probe-jitter")>>11) / (1 << 53)
	return &backend{id: id, client: c, healthy: true, jfrac: jfrac}
}

// recordResult folds one request outcome into the backend's counters
// and, for successes, the exported latency histogram.
//
//mp:hotpath
func (b *backend) recordResult(lat time.Duration, failed bool) {
	b.mu.Lock() //mp:lock-ok audited allowed set: O(1) counter fold + ring write, never blocks on I/O
	b.requests++
	if failed {
		b.errors++
		b.mu.Unlock()
		return
	}
	b.ring[b.ringN%backendLatencyWindow] = lat
	b.ringN++
	b.mu.Unlock()
	if b.dur != nil {
		b.dur.Observe(lat.Seconds())
	}
}

// noteFailover records that a request failed over away from this
// backend. Transport-level failures also demote it to unhealthy
// immediately — routing then skips it until the prober re-admits it —
// while an answered error (an APIError) leaves health alone: the
// backend is alive, it just could not serve this request. One answered
// error is special-cased: a 429 shed marks the backend saturated for
// its Retry-After window (1s when the header is absent), so failover
// and the apply loop stop hammering a full admission queue without
// paying a probe-cycle demotion.
func (b *backend) noteFailover(err error, transportLevel bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failovers++
	if transportLevel {
		b.healthy = false
		b.demotions++
		b.lastErr = err.Error()
		return
	}
	var apiErr *service.APIError
	if errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests {
		wait := apiErr.RetryAfter
		if wait <= 0 {
			wait = time.Second
		}
		b.saturatedUntil = time.Now().Add(wait)
		b.lastErr = err.Error()
	}
}

// eligible reports whether routing may send new work to the backend.
func (b *backend) eligible() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy && !b.draining && !time.Now().Before(b.saturatedUntil)
}

// routeState snapshots the routing-relevant flags under the lock (a
// bare field read would race the admin paths writing them). A backend
// inside its 429 Retry-After window reads as unhealthy.
func (b *backend) routeState() (healthy, draining bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy && !time.Now().Before(b.saturatedUntil), b.draining
}

// placeable reports whether new matrix placements may target the
// backend (same condition as routing eligibility; kept separate so the
// two policies can diverge without touching call sites).
func (b *backend) placeable() bool { return b.eligible() }

// status snapshots the backend for Stats and the admin listing.
func (b *backend) status(placements int) BackendStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := BackendStatus{
		Addr:        b.id,
		Healthy:     b.healthy,
		Draining:    b.draining,
		Inflight:    b.inflight.Load(),
		Requests:    b.requests,
		Errors:      b.errors,
		Failovers:   b.failovers,
		Matrices:    placements,
		ConsecFails: b.consecFails,
		LastError:   b.lastErr,
	}
	n := b.ringN
	if n > backendLatencyWindow {
		n = backendLatencyWindow
	}
	if n > 0 {
		lats := make([]time.Duration, n)
		copy(lats, b.ring[:n])
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		st.LatencyP50 = service.Percentile(lats, 0.50)
		st.LatencyP90 = service.Percentile(lats, 0.90)
		st.LatencyP99 = service.Percentile(lats, 0.99)
	}
	return st
}
