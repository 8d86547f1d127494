package gateway

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/intmat"
	"repro/service"
)

// Gateway errors. The HTTP layer maps them to statuses (see
// writeError in http.go); service errors wrapped by gateway paths keep
// their service-side status mapping.
var (
	// ErrNoBackends is returned when no backend is eligible to take a
	// placement or a query (mapped to 503).
	ErrNoBackends = errors.New("gateway: no eligible backends")
	// ErrAllReplicasFailed is returned when every replica of a matrix
	// failed to answer a query (mapped to 502).
	ErrAllReplicasFailed = errors.New("gateway: all replicas failed")
	// ErrUnknownBackend is returned by admin operations naming a
	// backend that is not in the pool (mapped to 404).
	ErrUnknownBackend = errors.New("gateway: unknown backend")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("gateway: closed")
)

// Config parameterizes a Gateway. Zero values select the defaults.
type Config struct {
	// Backends are the initial backend base URLs (e.g.
	// "http://127.0.0.1:8081"). More can be added at runtime through
	// the admin API.
	Backends []string
	// Replication is the number of backends each matrix is placed on
	// (R). Placements use the top R of the matrix's rendezvous ranking
	// over the eligible backends; fewer than R eligible backends
	// degrade to what is available. Default 2.
	Replication int
	// ProbeInterval is the health prober's base period between probes
	// of a healthy backend. Default 1s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe call. Default 2s.
	ProbeTimeout time.Duration
	// ProbeBackoffMax caps the exponential backoff between probes of a
	// failing backend (ProbeInterval·2^consecutive-failures, capped
	// here). Default 30s.
	ProbeBackoffMax time.Duration
	// UploadTTL bounds how long an idle chunked upload may sit staged at
	// the gateway before it is garbage-collected (lazily, on the next
	// upload operation). Default 2 minutes.
	UploadTTL time.Duration
	// HTTPClient is the shared client for backend calls. Default
	// http.DefaultClient.
	HTTPClient *http.Client
	// WriteQuorum is the one replication knob: how many replicas must
	// apply a row update before it commits. 0 (the default) waits for
	// every live replica — each replica that can serve then satisfies
	// every consistency level, and the write pays its slowest live leg.
	// W > 0 commits on W acks (clamped to the replica count) and leaves
	// the rest to the apply loop (see async.go). Either way a replica
	// that misses an update stays placed, lags, and is caught up.
	WriteQuorum int
	// UpdateLogMax bounds each matrix's in-memory ordered update log.
	// A replica lagging past the window is reseeded from the retained
	// wire instead of replayed. Default 1024.
	UpdateLogMax int
	// SessionTTL is how long an idle consistency session (monotonic /
	// read-my-writes state, see sla.go) is retained. Default 10m.
	SessionTTL time.Duration
}

func (c *Config) setDefaults() {
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.ProbeBackoffMax <= 0 {
		c.ProbeBackoffMax = 30 * time.Second
	}
	if c.UploadTTL <= 0 {
		c.UploadTTL = 2 * time.Minute
	}
	if c.HTTPClient == nil {
		c.HTTPClient = http.DefaultClient
	}
	if c.WriteQuorum < 0 {
		c.WriteQuorum = 0
	}
	if c.UpdateLogMax <= 0 {
		c.UpdateLogMax = 1024
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 10 * time.Minute
	}
}

// placedMatrix is one placement-table entry: the catalog info, the
// retained copy (what rebalancing and replica repair re-upload — the
// gateway is the placement's source of truth, so it keeps the matrix),
// and the backends currently holding the matrix. The copy is the form
// the backends hold — immutable non-zero lists, validated at PutMatrix
// by their own rule (service.Matrix.List), advanced by their own patcher
// (service.PatchRows) at O(touched rows) — and is rendered to wire
// triples only when a replica is seeded. Entries are replaced wholesale
// (copy-on-write), so a snapshot taken under the gateway lock stays
// consistent after release.
type placedMatrix struct {
	info     service.MatrixInfo
	list     *intmat.Sparse
	replicas []string
	// ver is the version of the retained copy: a fresh epoch at every
	// wholesale install, seq advanced per committed row update. It is
	// the matrix's update-log head (async.go) and the reference every
	// reseed stamps into the applied vector.
	ver version
}

// clone returns a copy for copy-on-write replacement: same lists, own
// replica slice. Callers adjust fields before installing.
func (pm *placedMatrix) clone() *placedMatrix {
	cp := *pm
	cp.replicas = append([]string(nil), pm.replicas...)
	return &cp
}

// wireSize is what a retained copy costs to ship — the unit of the
// wire_bytes and reseed_bytes stats: 24 bytes a non-zero, matching the
// frame a seed encodes within a constant (and twice what the lists keep
// resident).
func wireSize(s *intmat.Sparse) int64 {
	return 32 + 24*int64(s.NNZ())
}

// Gateway is the multi-backend front tier: it owns a health-checked
// pool of mpserver backends, places matrices across them by rendezvous
// hashing with replication, and routes the service API against the
// placement — estimates to the least-busy healthy replica with
// failover, uploads (single-body or staged chunk by chunk at the
// gateway) placed on every replica all-or-nothing through PutMatrix.
type Gateway struct {
	cfg Config

	// mu guards the pool and the placement table.
	// Never held across a backend network call: fan-out paths snapshot
	// under mu, call outside it, and re-acquire to commit.
	mu       sync.Mutex
	backends map[string]*backend
	matrices map[string]*placedMatrix
	uploads  *service.UploadStager // its own lock

	// topoMu serializes topology changes (admin add/drain/remove and
	// their rebalances, write side) against each other and against
	// placements (PutMatrix, read side): a backend removed mid-placement
	// would otherwise leave a matrix tabled only on an id no longer in
	// the pool, unroutable until the next admin operation. Held across
	// network calls — admin operations are rare and placements may share
	// the read side freely.
	topoMu sync.RWMutex

	// upd holds each matrix's update-ordering state (log, applied
	// vectors, send reservations — see async.go). The map itself is
	// guarded by mu; each entry carries its own lock, which replaced
	// the old gateway-wide updMu as the per-matrix commit order.
	upd map[string]*matrixUpd

	// epochSeq assigns version epochs to wholesale placement installs.
	epochSeq atomic.Uint64
	// applyWake nudges the apply loop when a replica is known to lag.
	applyWake chan struct{}

	// sessions and sla are the consistency-SLA state: session floors
	// for monotonic/rmw routing and the per-level outcome counters.
	sessions *sessionStore
	sla      slaCounters

	estimates     atomic.Int64
	batches       atomic.Int64
	failovers     atomic.Int64
	retries       atomic.Int64
	repairs       atomic.Int64
	placements    atomic.Int64
	rebalanced    atomic.Int64
	lostReplicas  atomic.Int64
	updates       atomic.Int64
	updateReverts atomic.Int64
	resyncs       atomic.Int64
	reseedBytes   atomic.Int64
	asyncApplied  atomic.Int64
	asyncReseeds  atomic.Int64

	met *gatewayMetrics

	start     time.Time
	closed    chan struct{}
	closeOnce sync.Once
	// baseCtx parents every prober-initiated call (probes, resyncs),
	// so Close can abort them instead of waiting out their timeouts.
	baseCtx    context.Context
	cancelBase context.CancelFunc
	probeWG    sync.WaitGroup
}

// New returns a gateway fronting the configured backends and starts
// its health prober and apply loop. Close releases it.
func New(cfg Config) *Gateway {
	cfg.setDefaults()
	g := &Gateway{
		cfg:       cfg,
		backends:  make(map[string]*backend),
		matrices:  make(map[string]*placedMatrix),
		uploads:   service.NewUploadStager("gw", cfg.UploadTTL, service.DefaultMaxUploads, service.DefaultMaxStagedElems),
		upd:       make(map[string]*matrixUpd),
		applyWake: make(chan struct{}, 1),
		sessions:  newSessionStore(cfg.SessionTTL),
		start:     time.Now(),
		closed:    make(chan struct{}),
	}
	g.baseCtx, g.cancelBase = context.WithCancel(context.Background())
	g.met = newGatewayMetrics(g)
	for _, addr := range cfg.Backends {
		if addr == "" {
			continue
		}
		b := newBackend(addr, cfg.HTTPClient)
		b.dur = g.met.backendDur.With(addr)
		g.backends[addr] = b
	}
	g.probeWG.Add(2)
	go g.probeLoop()
	go g.applyLoop()
	return g
}

// Close stops the health prober and the apply loop — aborting any
// in-flight probe, resync, or drain — and makes every subsequent
// operation fail with ErrClosed. In-flight client requests finish.
func (g *Gateway) Close() {
	g.closeOnce.Do(func() {
		close(g.closed)
		g.cancelBase()
	})
	g.probeWG.Wait()
}

func (g *Gateway) isClosed() bool {
	select {
	case <-g.closed:
		return true
	default:
		return false
	}
}

// backendIDs returns the ids of backends passing keep, sorted for
// deterministic placement. Callers hold g.mu.
func (g *Gateway) backendIDsLocked(keep func(*backend) bool) []string {
	ids := make([]string, 0, len(g.backends))
	for id, b := range g.backends {
		if keep == nil || keep(b) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// placementTargets picks the backends a matrix should live on right
// now: the top Replication of its rendezvous ranking over the
// placeable (healthy, non-draining) backends.
func (g *Gateway) placementTargets(name string) []*backend {
	g.mu.Lock()
	defer g.mu.Unlock()
	ids := placeOn(rankBackends(g.backendIDsLocked((*backend).placeable), name), g.cfg.Replication)
	out := make([]*backend, 0, len(ids))
	for _, id := range ids {
		out = append(out, g.backends[id])
	}
	return out
}

// replicaSnapshot resolves a matrix's current placement to live
// backend handles plus the table entry.
func (g *Gateway) replicaSnapshot(name string) (*placedMatrix, []*backend, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	pm, ok := g.matrices[name]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", service.ErrMatrixNotFound, name)
	}
	reps := make([]*backend, 0, len(pm.replicas))
	for _, id := range pm.replicas {
		if b, ok := g.backends[id]; ok {
			reps = append(reps, b)
		}
	}
	return pm, reps, nil
}

// uploadTo ships a wire matrix to one backend and reconciles any LRU
// evictions the insert caused: a backend whose registry capacity is
// smaller than its share of placements evicts placed matrices on
// upload, and silently keeping the evicted names in the table would
// route queries at copies that no longer exist. The pruned entries
// stay placed on their surviving replicas (an empty replica list makes
// the loss visible as a routing 503, not a lie). Backends should be
// provisioned with -max-matrices above their expected share — the
// LostReplicas stat counts how often that assumption broke.
func (g *Gateway) uploadTo(ctx context.Context, b *backend, name string, m service.Matrix) (service.MatrixInfo, error) {
	rep, err := b.client.UploadMatrixFull(ctx, name, m)
	if err != nil {
		return service.MatrixInfo{}, err
	}
	if len(rep.Evicted) > 0 {
		g.mu.Lock()
		for _, victim := range rep.Evicted {
			pm, ok := g.matrices[victim]
			if !ok {
				continue
			}
			kept := make([]string, 0, len(pm.replicas))
			for _, id := range pm.replicas {
				if id != b.id {
					kept = append(kept, id)
				}
			}
			if len(kept) != len(pm.replicas) {
				npm := pm.clone()
				npm.replicas = kept
				g.matrices[victim] = npm
				g.lostReplicas.Add(1)
			}
		}
		g.mu.Unlock()
	}
	return rep.MatrixInfo, nil
}

// errNotSeeded is seedReplica's verdict when it never contacted the
// backend: the matrix left the table or a drain owns the send slot.
var errNotSeeded = errors.New("gateway: replica not seeded")

// seedReplica is the one way a placed matrix is re-shipped to a backend
// (estimate-path repair, probe resync, rebalance gain, apply-loop
// reseed): it uploads the table's current retained copy of name to b
// and stamps b's applied entry with the version of the entry whose
// copy it shipped — never a head read afterwards, so an update that
// commits while the upload is in flight is still owed to b and the
// apply loop replays it. The upload holds b's send slot for the matrix,
// so it cannot interleave with a drain or a commit leg; held says the
// caller (a drain) already owns the slot. It returns the shipped wire's
// accounted size; an error other than errNotSeeded is the upload's own.
func (g *Gateway) seedReplica(ctx context.Context, name string, b *backend, held bool) (int64, error) {
	if !held {
		st := g.updState(name)
		if st == nil {
			return 0, errNotSeeded
		}
		st.mu.Lock()
		free := st.reserveLocked(b.id)
		st.mu.Unlock()
		if !free {
			return 0, errNotSeeded
		}
		defer st.release(b.id)
	}
	g.mu.Lock()
	pm, ok := g.matrices[name]
	g.mu.Unlock()
	if !ok {
		return 0, errNotSeeded
	}
	if _, err := g.uploadTo(ctx, b, name, service.MatrixFromList(pm.list)); err != nil {
		return 0, err
	}
	g.setApplied(name, b.id, pm.ver)
	return wireSize(pm.list), nil
}

// fanout runs op against every backend concurrently and returns the
// per-backend errors (nil entries for successes) plus the first error
// in backend order.
func fanout(backends []*backend, op func(i int, b *backend) error) (errs []error, first error) {
	errs = make([]error, len(backends))
	var wg sync.WaitGroup
	for i, b := range backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			errs[i] = op(i, b)
		}(i, b)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return errs, err
		}
	}
	return errs, nil
}

// PutMatrix validates and places a matrix: it lists the wire form by
// the backends' own rule (refusing here what each of them would), uploads
// it to every target replica concurrently, and on any failure deletes
// the copies that landed (all-or-nothing) and reports the failure. On
// success the placement table records the matrix, its replicas, and the
// lists as the retained copy rebalancing re-uploads from.
func (g *Gateway) PutMatrix(ctx context.Context, name string, m service.Matrix) (PlacementInfo, error) {
	if g.isClosed() {
		return PlacementInfo{}, ErrClosed
	}
	if name == "" {
		return PlacementInfo{}, fmt.Errorf("%w: empty matrix name", service.ErrBadRequest)
	}
	// Shared with other placements, exclusive against admin topology
	// changes: the target set picked here stays in the pool until the
	// table entry is installed.
	g.topoMu.RLock() //mp:lockio-ok audited: shared topology pin held across replica legs so admin changes cannot race a placement install
	defer g.topoMu.RUnlock()
	targets := g.placementTargets(name)
	if len(targets) == 0 {
		return PlacementInfo{}, ErrNoBackends
	}
	list, _, _, err := m.List()
	if err != nil {
		return PlacementInfo{}, err
	}
	infos := make([]service.MatrixInfo, len(targets))
	errs, first := fanout(targets, func(i int, b *backend) error {
		var err error
		infos[i], err = g.uploadTo(ctx, b, name, m)
		return err
	})
	if first != nil {
		// All-or-nothing: tear the successful copies back down so no
		// replica serves a matrix the gateway does not consider placed.
		for i, err := range errs {
			if err == nil {
				delCtx, cancel := context.WithTimeout(context.Background(), g.cfg.ProbeTimeout)
				_ = targets[i].client.DeleteMatrix(delCtx, name)
				cancel()
			}
		}
		return PlacementInfo{}, fmt.Errorf("gateway: replicated put of %q failed: %w", name, first)
	}
	ids := make([]string, len(targets))
	for i, b := range targets {
		ids[i] = b.id
	}
	ver := version{epoch: g.epochSeq.Add(1)}
	pm := &placedMatrix{info: infos[0], list: list, replicas: ids, ver: ver}
	g.mu.Lock()
	g.matrices[name] = pm
	g.mu.Unlock()
	g.resetUpdState(name, ver, ids)
	g.placements.Add(1)
	return PlacementInfo{MatrixInfo: pm.info, Replicas: ids}, nil
}

// DeleteMatrix removes a matrix from every replica holding it and from
// the placement table. Replica deletions are best-effort (a down
// replica's copy is cleaned up by the straggler sweep when it
// returns); an unknown name is ErrMatrixNotFound.
func (g *Gateway) DeleteMatrix(ctx context.Context, name string) error {
	if g.isClosed() {
		return ErrClosed
	}
	_, reps, err := g.replicaSnapshot(name)
	if err != nil {
		return err
	}
	g.mu.Lock()
	delete(g.matrices, name)
	delete(g.upd, name)
	g.mu.Unlock()
	_, _ = fanout(reps, func(_ int, b *backend) error {
		return b.client.DeleteMatrix(ctx, name)
	})
	return nil
}

// Matrices lists the placed matrices with their replica sets, sorted
// by name.
func (g *Gateway) Matrices() []PlacementInfo {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]PlacementInfo, 0, len(g.matrices))
	for _, pm := range g.matrices {
		out = append(out, PlacementInfo{MatrixInfo: pm.info, Replicas: pm.replicas})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// failoverable classifies a replica error: transport-level failures
// (no HTTP answer) and answered 404/429/502/503 warrant trying the
// next replica — the backend is gone, restarting, shedding load,
// closing, or has lost the replica — while any other answered error is
// the query's own fault and is returned to the client as-is. A 429 is
// answered, so it never demotes health; noteFailover instead parks the
// backend for its advertised Retry-After (see backend.saturatedUntil).
func failoverable(err error) (ok, transportLevel bool) {
	var apiErr *service.APIError
	if errors.As(err, &apiErr) {
		switch apiErr.Status {
		case http.StatusNotFound, http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable:
			return true, false
		}
		return false, false
	}
	return true, true
}

// routeOrder orders a matrix's replicas for one query: eligible
// (healthy, non-draining) replicas first, least busy first, then
// ineligible non-draining replicas as a last resort — a probe can lag
// a recovery, and a request that would otherwise fail outright is
// worth one try against a suspect replica. nEligible is how many of
// the returned backends are in the eligible prefix; load-balancing
// decisions must confine themselves to it so an idle-because-dead
// suspect never outbids a busy healthy replica.
func routeOrder(reps []*backend) (order []*backend, nEligible int) {
	var suspect []*backend
	for _, b := range reps {
		healthy, draining := b.routeState()
		switch {
		case healthy && !draining:
			order = append(order, b)
		case !draining:
			suspect = append(suspect, b)
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		return order[i].inflight.Load() < order[j].inflight.Load()
	})
	nEligible = len(order)
	return append(order, suspect...), nEligible
}

// callEstimate runs one query against one backend, maintaining its
// in-flight gauge and counters.
func (b *backend) callEstimate(ctx context.Context, req service.Request) (*service.Result, error) {
	b.inflight.Add(1)
	start := time.Now()
	res, err := b.client.Estimate(ctx, req)
	b.inflight.Add(-1)
	b.recordResult(time.Since(start), err != nil)
	return res, err
}

// repairReplica re-seeds a replica that answered 404 for a matrix
// placed on it — the backend restarted (losing its in-memory registry)
// between the prober's resync passes. Returns true when the replica
// holds the matrix again; a drain already fixing the replica makes the
// repair yield.
func (g *Gateway) repairReplica(ctx context.Context, b *backend, name string) bool {
	if _, err := g.seedReplica(ctx, name, b, false); err != nil {
		return false
	}
	g.repairs.Add(1)
	return true
}

// Estimate routes one query to the least-busy healthy replica of its
// matrix, failing over to the next replica on transport errors (and on
// answered 404/429/502/503 — see failoverable). A replica that lost
// the matrix to a restart is repaired in line from the gateway's
// retained copy and retried. Answered client errors (bad parameters
// and the like) are returned without failover. The query runs under
// the default (strong) consistency SLA with no session: it is answered
// by a replica at the update-log head.
func (g *Gateway) Estimate(ctx context.Context, req service.Request) (*service.Result, error) {
	res, _, err := g.estimateSLA(ctx, req, SLA{}, "")
	return res, err
}

// estimateSLA routes one query under a consistency SLA: candidates are
// narrowed to the replicas whose applied version satisfies the level
// (see slaRoute), then tried in order with the usual failover and
// in-line 404 repair; if they all fail, the replicas the SLA narrowed
// away are routed the same way. It returns the version of the replica
// that answered — the MP-Version echo and the session's monotonic
// floor.
func (g *Gateway) estimateSLA(ctx context.Context, req service.Request, sla SLA, sess string) (*service.Result, version, error) {
	if g.isClosed() {
		return nil, version{}, ErrClosed
	}
	g.estimates.Add(1)
	_, reps, err := g.replicaSnapshot(req.Matrix)
	if err != nil {
		return nil, version{}, err
	}
	order, nEligible := routeOrder(reps)
	if len(order) == 0 {
		return nil, version{}, fmt.Errorf("%w: matrix %q has no routable replica", ErrNoBackends, req.Matrix)
	}
	cands, outcome := g.slaRoute(ctx, req.Matrix, order, nEligible, sla, sess)
	defer func() { g.sla.note(sla.Level, outcome) }()
	tried, narrowed := cands, len(cands) < len(order) // the SLA set replicas aside
	var lastErr error
	for attempt := 0; len(cands) > 0; attempt++ {
		b := cands[0]
		cands = cands[1:]
		if attempt > 0 {
			g.retries.Add(1)
		}
		res, err := b.callEstimate(ctx, req)
		if err == nil {
			if attempt > 0 {
				g.failovers.Add(1)
			}
			return res, g.noteServed(sess, req.Matrix, b), nil
		}
		if ctx.Err() != nil {
			return nil, version{}, ctx.Err()
		}
		ok, transportLevel := failoverable(err)
		if !ok {
			return nil, version{}, err
		}
		// A 404 from a replica that should hold the matrix means the
		// backend restarted empty: re-seed it from the retained wire
		// form and retry it once before moving on.
		var apiErr *service.APIError
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound && g.repairReplica(ctx, b, req.Matrix) {
			if res, rerr := b.callEstimate(ctx, req); rerr == nil {
				if attempt > 0 {
					g.failovers.Add(1)
				}
				return res, g.noteServed(sess, req.Matrix, b), nil
			}
		}
		b.noteFailover(err, transportLevel)
		lastErr = err
		if len(cands) == 0 && narrowed {
			// Every replica that satisfied the SLA failed — a quorum head
			// that died before the rest caught up. Route once more over
			// the others: an in-line catch-up, else the freshest (a miss).
			narrowed = false
			rest := slices.DeleteFunc(slices.Clone(order), func(b *backend) bool { return slices.Contains(tried, b) })
			order, nEligible = routeOrder(rest)
			cands, outcome = g.slaRoute(ctx, req.Matrix, order, nEligible, sla, sess)
		}
	}
	// Surface a unanimous overload answer as-is: its status and
	// Retry-After tell the client to back off, which a wrapped 502
	// would hide.
	var apiErr *service.APIError
	if errors.As(lastErr, &apiErr) && apiErr.Status == http.StatusTooManyRequests {
		return nil, version{}, lastErr
	}
	return nil, version{}, fmt.Errorf("%w: %q: %v", ErrAllReplicasFailed, req.Matrix, lastErr)
}

// noteServed reads the answering replica's applied version and folds
// it into the session's monotonic-read floor.
func (g *Gateway) noteServed(sess, name string, b *backend) version {
	v := g.appliedVersion(name, b.id)
	g.sessions.noteRead(sess, name, v)
	return v
}

// appliedVersion reads one backend's current applied vector entry.
func (g *Gateway) appliedVersion(name, id string) version {
	st := g.updState(name)
	if st == nil {
		return version{}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.applied[id]
}

// slaRoute narrows a query's replica order to the candidates that
// satisfy its SLA:
//
//   - no constraint (eventual; session levels with no history) keeps
//     the full routeOrder — suspects still last;
//   - otherwise the replicas whose applied vector is at or past the
//     required version, in routeOrder (a hit — with WriteQuorum 0
//     that is every replica that acked the last update);
//   - none satisfying → one in-line catch-up attempt on the least-busy
//     eligible replica (a catchup);
//   - still none → every replica, freshest applied vector first, so
//     the degradation is as small as the fleet allows (a miss).
func (g *Gateway) slaRoute(ctx context.Context, name string, order []*backend, nEligible int, sla SLA, sess string) ([]*backend, slaOutcome) {
	st := g.updState(name)
	if st == nil {
		return order, slaHit
	}
	st.mu.Lock()
	required := g.requiredVersionLocked(st, name, sla, sess)
	vers := make(map[string]version, len(order))
	for _, b := range order {
		vers[b.id] = st.applied[b.id]
	}
	st.mu.Unlock()
	if required == (version{}) {
		return order, slaHit
	}
	var cands []*backend
	for _, b := range order {
		if vers[b.id].AtLeast(required) {
			cands = append(cands, b)
		}
	}
	if len(cands) > 0 {
		return cands, slaHit
	}
	// One in-line catch-up attempt: replay the pending log to the
	// least-busy eligible replica under the commit lock, so a strong or
	// rmw read pays a bounded write-path delay instead of degrading.
	if nEligible > 0 {
		b := order[0]
		st.mu.Lock() //mp:lockio-ok audited: in-line catch-up replay is serialized with writers by holding the per-matrix commit lock — see async.go's ordering discipline
		ok := g.catchUpLocked(ctx, st, name, b) && st.applied[b.id].AtLeast(required)
		st.mu.Unlock()
		if ok {
			return []*backend{b}, slaCatchup
		}
	}
	// Degrade: no replica can satisfy the level right now (the
	// satisfying ones are down, or the catch-up failed). Serve the
	// freshest available state rather than erroring; the miss is
	// visible in the SLA counters and the MP-Version echo.
	if nEligible == 0 {
		return order, slaMiss
	}
	cands = append([]*backend(nil), order[:nEligible]...)
	sort.SliceStable(cands, func(i, j int) bool { return vers[cands[j].id].Less(vers[cands[i].id]) })
	return append(cands, order[nEligible:]...), slaMiss
}

// requiredVersionLocked resolves an SLA to its version floor for one
// matrix — the zero version means unconstrained. Strong requires the
// update-log head, the session levels their recorded floors, bounded
// the staleness cutoff. Callers hold st.mu.
func (g *Gateway) requiredVersionLocked(st *matrixUpd, name string, sla SLA, sess string) version {
	switch sla.Level {
	case ConsStrong:
		return st.head
	case ConsMonotonic, ConsRMW:
		return g.sessions.floor(sess, name, sla.Level)
	case ConsBounded:
		return boundedFloorLocked(st, time.Now().Add(-sla.Bound))
	}
	return version{}
}

// boundedFloorLocked computes the version a bounded:<d> read must
// observe: every update committed at or before the staleness cutoff.
// Entries already trimmed from the log have unknown commit times, so
// the floor is at least logStart — requiring more than strictly
// necessary keeps the bound honest; requiring less would not. Callers
// hold st.mu.
func boundedFloorLocked(st *matrixUpd, cutoff time.Time) version {
	seq := st.logStart
	for _, ent := range st.log {
		if ent.committed.After(cutoff) {
			break
		}
		seq = ent.seq
	}
	return version{epoch: st.head.epoch, seq: seq}
}

// EstimateBatch scatters a batch across the fleet — each query is
// assigned to the least-loaded routable replica of its matrix, the
// per-backend sub-batches run concurrently through the backends'
// single-admission batch endpoint — and gathers the items back in
// request order. A sub-batch whose call fails is retried query by
// query through Estimate's failover path, so one dying backend costs
// latency, not answers. Queries naming unplaced matrices fail in their
// item, matching the single-backend batch semantics.
func (g *Gateway) EstimateBatch(ctx context.Context, reqs []service.Request) ([]service.BatchItem, error) {
	return g.estimateBatchSLA(ctx, reqs, SLA{}, "")
}

// estimateBatchSLA is EstimateBatch under a consistency SLA: queries
// whose SLA at least one routable replica already satisfies scatter as
// usual (restricted to the satisfying replicas); the rest detour
// through the single-query path, whose in-line catch-up and
// degrade-to-freshest semantics apply per query.
func (g *Gateway) estimateBatchSLA(ctx context.Context, reqs []service.Request, sla SLA, sess string) ([]service.BatchItem, error) {
	if g.isClosed() {
		return nil, ErrClosed
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("%w: empty batch", service.ErrBadRequest)
	}
	g.batches.Add(1)

	// Assign each query to a backend: among its matrix's routable
	// replicas, minimize in-flight load plus what this batch has
	// already assigned, so a batch spreads across replicas instead of
	// dog-piling the currently-idlest one.
	items := make([]service.BatchItem, len(reqs))
	assigned := make(map[*backend][]int) // backend → query indices
	localLoad := make(map[*backend]int64)
	var detours []int // queries re-routed through the single-query path
	for i, req := range reqs {
		_, reps, err := g.replicaSnapshot(req.Matrix)
		if err != nil {
			items[i] = service.BatchItem{Error: err.Error()}
			continue
		}
		order, nEligible := routeOrder(reps)
		if len(order) == 0 {
			items[i] = service.BatchItem{Error: fmt.Sprintf("gateway: matrix %q has no routable replica", req.Matrix)}
			continue
		}
		// Balance only across the eligible prefix: an unhealthy replica
		// is idle precisely because it is failing, and winning the
		// least-load contest would send it the whole sub-batch. Suspects
		// are used only when nothing eligible exists (the per-query
		// fallback path then handles their failures).
		pool := order[:nEligible]
		if nEligible == 0 {
			pool = order[:1]
		}
		// Narrow the pool to the replicas satisfying the query's SLA;
		// an unsatisfiable query detours through estimateSLA for its
		// catch-up/degrade handling.
		sat, constrained := g.slaFilter(req.Matrix, pool, sla, sess)
		if constrained {
			if len(sat) == 0 {
				detours = append(detours, i)
				continue
			}
			pool = sat
		}
		g.sla.note(sla.Level, slaHit)
		best := pool[0]
		bestLoad := best.inflight.Load() + localLoad[best]
		for _, b := range pool[1:] {
			if l := b.inflight.Load() + localLoad[b]; l < bestLoad {
				best, bestLoad = b, l
			}
		}
		assigned[best] = append(assigned[best], i)
		localLoad[best]++
	}

	var wg sync.WaitGroup
	for b, idxs := range assigned {
		wg.Add(1)
		go func(b *backend, idxs []int) {
			defer wg.Done()
			sub := make([]service.Request, len(idxs))
			for k, i := range idxs {
				sub[k] = reqs[i]
			}
			b.inflight.Add(int64(len(sub)))
			start := time.Now()
			got, err := b.client.EstimateBatch(ctx, sub)
			b.inflight.Add(int64(-len(sub)))
			b.recordResult(time.Since(start), err != nil)
			if err == nil && len(got) == len(idxs) {
				for k, i := range idxs {
					items[i] = got[k]
					if sess != "" && got[k].Error == "" {
						g.sessions.noteRead(sess, sub[k].Matrix, g.appliedVersion(sub[k].Matrix, b.id))
					}
				}
				// A per-item "matrix not found" from a replica that is
				// supposed to hold the matrix means it lost its copy (a
				// restart or an LRU eviction): re-route those queries
				// through the single-query path, which repairs the
				// replica or fails over. Other per-item errors are the
				// query's own fault and pass through.
				for k, i := range idxs {
					if got[k].Error == "" || !strings.Contains(got[k].Error, service.ErrMatrixNotFound.Error()) {
						continue
					}
					g.retries.Add(1)
					if res, _, qerr := g.estimateSLA(ctx, sub[k], sla, sess); qerr == nil {
						items[i] = service.BatchItem{Result: res}
					}
				}
				return
			}
			if ctx.Err() != nil {
				return // the gather below reports the cancellation
			}
			// The sub-batch call failed as a whole (transport error,
			// overload, a closing backend): re-route its queries one by
			// one so the other replicas can absorb them.
			if err != nil {
				if ok, transportLevel := failoverable(err); ok {
					b.noteFailover(err, transportLevel)
				}
			}
			for k, i := range idxs {
				g.retries.Add(1)
				res, _, qerr := g.estimateSLA(ctx, sub[k], sla, sess)
				if qerr != nil {
					items[i] = service.BatchItem{Error: qerr.Error()}
					continue
				}
				items[i] = service.BatchItem{Result: res}
			}
		}(b, idxs)
	}
	// Queries no scattered replica could satisfy run through the
	// single-query path concurrently with the sub-batches: its in-line
	// catch-up or degrade-to-freshest decides each one.
	for _, i := range detours {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, qerr := g.estimateSLA(ctx, reqs[i], sla, sess)
			if qerr != nil {
				items[i] = service.BatchItem{Error: qerr.Error()}
				return
			}
			items[i] = service.BatchItem{Result: res}
		}(i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return items, nil
}

// slaFilter narrows a scatter pool to the replicas satisfying an SLA
// without any side effects (no catch-up, no counters). constrained is
// false when the SLA imposes no version floor — the pool then stands.
func (g *Gateway) slaFilter(name string, pool []*backend, sla SLA, sess string) (sat []*backend, constrained bool) {
	st := g.updState(name)
	if st == nil {
		return nil, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	required := g.requiredVersionLocked(st, name, sla, sess)
	if required == (version{}) {
		return nil, false
	}
	for _, b := range pool {
		if st.applied[b.id].AtLeast(required) {
			sat = append(sat, b)
		}
	}
	return sat, true
}
