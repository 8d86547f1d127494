package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitmat"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/intmat"
	"repro/internal/store"
)

// Service errors. Handlers map them to HTTP statuses.
var (
	// ErrBadRequest marks malformed or invalid query parameters.
	ErrBadRequest = errors.New("service: bad request")
	// ErrBodyTooLarge is returned for request bodies over the HTTP
	// layer's size limit (mapped to 413).
	ErrBodyTooLarge = errors.New("service: request body too large")
	// ErrMatrixNotFound is returned for queries against unknown names.
	ErrMatrixNotFound = errors.New("service: matrix not found")
	// ErrOverloaded is returned when the worker pool and its admission
	// queue are both full.
	ErrOverloaded = errors.New("service: overloaded")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("service: engine closed")
)

// Kinds lists the supported job kinds with the protocol each runs.
var Kinds = map[string]string{
	"lp":        "Algorithm 1 (Theorem 3.1): (1±ε)·‖AB‖p^p, p ∈ [0,2]",
	"l0sample":  "Theorem 3.2: uniform non-zero entry of AB with exact value",
	"l1sample":  "Remark 3: entry (i,j) ∝ C[i][j] with join witness",
	"exact":     "Remark 2: exact ‖AB‖1 for non-negative matrices",
	"linf":      "Algorithm 2 (Theorem 4.1): (2+ε)·‖AB‖∞ for Boolean matrices",
	"linfkappa": "Algorithm 3 (Theorem 4.3): κ·‖AB‖∞ for Boolean matrices",
	"hh":        "Algorithm 4 (Theorem 5.1): ℓp-(ϕ,ε)-heavy hitters",
}

// Config parameterizes an Engine. Zero values select the defaults.
type Config struct {
	// Workers bounds concurrent protocol executions. Default 8.
	Workers int
	// QueueDepth bounds jobs waiting for a worker beyond the pool;
	// admissions past it fail with ErrOverloaded. Default 64.
	QueueDepth int
	// MaxMatrices bounds the registry; inserting beyond it evicts the
	// least-recently-used matrix. Default 16.
	MaxMatrices int
	// BaseSeed seeds the per-job seed sequence used when a request does
	// not pin its own seed, and the cache's epoch-seed schedule.
	// Default 1.
	BaseSeed uint64
	// Transport creates each job's transport. Default InProcess.
	Transport TransportFactory
	// CacheCapacity bounds the Bob-side sketch cache: precomputed
	// per-matrix protocol states (dominated by the lp row sketches of
	// B) reused across queries. Default 64 entries; see DisableCache to
	// turn the cache off.
	CacheCapacity int
	// DisableCache turns the sketch cache off: every query re-derives
	// Bob's matrix-dependent state from scratch and unpinned requests
	// draw a fresh seed from the per-job sequence.
	DisableCache bool
	// SeedRotateEvery rotates the cache's seed epoch after this many
	// cached-path lookups. Requests that do not pin a seed are assigned
	// the current epoch's seed (derived from BaseSeed), which is what
	// lets their repeat queries share one cached sketch transcript;
	// rotation bounds how long any one set of public coins is reused
	// and flushes the cache. Default 4096; negative never rotates.
	SeedRotateEvery int64
	// MaxBatch bounds the queries accepted in one EstimateBatch call.
	// Default 256.
	MaxBatch int
	// Shards splits each job's row-parallel phases (Bob's per-row
	// precompute and the row scans of every Serve) into this many
	// contiguous row ranges executed concurrently on the process-wide
	// bounded shard pool. Transcripts and outputs are byte-identical for
	// any value — the core parity tests pin this — so the knob trades
	// nothing but CPU for latency. Default min(GOMAXPROCS, 8); 1 runs
	// every job sequentially.
	Shards int
	// UploadTTL bounds how long an uncommitted chunked upload may sit
	// idle before it is garbage-collected (partial-upload GC runs lazily
	// on every upload operation). Default 2 minutes.
	UploadTTL time.Duration
	// MaxUploads bounds concurrently staged chunked uploads; beginning
	// one beyond it (after GC) fails with ErrOverloaded. Default 16.
	MaxUploads int
	// Store, when non-nil, makes served matrices durable: installs are
	// snapshotted, row updates write-ahead logged, and boot recovers by
	// replaying the log over the latest snapshot (see persist.go). The
	// engine does not close the store; its owner does.
	Store store.Store
	// SnapshotEvery is how many WAL records a matrix accumulates before
	// the background compactor re-snapshots it and truncates the covered
	// log. Default 64; negative never compacts.
	SnapshotEvery int
	// MaxStagedElems bounds the total rows×cols declared across all
	// in-progress chunked uploads. Staging keeps the entries received
	// (24 bytes each, at most one per declared cell) and one bit per
	// declared cell, so this, not MaxUploads, is what caps the memory a
	// client can pin: 4 MiB of cell marks at the default 2·maxMatrixElems
	// for begins alone, 24 bytes per declared cell if every one is then
	// sent. Begins beyond the budget fail with ErrOverloaded. Default
	// 1<<25.
	MaxStagedElems int64
}

// The chunked-upload staging defaults. The gateway, which stages
// uploads itself, bounds them with the same two values.
const (
	DefaultMaxUploads     = 16
	DefaultMaxStagedElems = 2 * maxMatrixElems
)

func (c *Config) setDefaults() {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxMatrices <= 0 {
		c.MaxMatrices = 16
	}
	if c.BaseSeed == 0 {
		c.BaseSeed = 1
	}
	if c.Transport == nil {
		c.Transport = InProcess
	}
	if c.CacheCapacity <= 0 {
		c.CacheCapacity = 64
	}
	if c.SeedRotateEvery == 0 {
		c.SeedRotateEvery = 4096
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
		if c.Shards > 8 {
			c.Shards = 8
		}
	}
	if c.UploadTTL <= 0 {
		c.UploadTTL = 2 * time.Minute
	}
	if c.MaxUploads <= 0 {
		c.MaxUploads = DefaultMaxUploads
	}
	if c.MaxStagedElems <= 0 {
		c.MaxStagedElems = DefaultMaxStagedElems
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 64
	}
}

// Request is one estimation query: which served matrix to run against,
// which protocol, its parameters, and Alice's matrix.
type Request struct {
	// Matrix names the served (Bob's) matrix.
	Matrix string `json:"matrix"`
	// Kind selects the protocol; see Kinds.
	Kind string `json:"kind"`
	// A is the querying client's (Alice's) matrix; A·B is estimated.
	A Matrix `json:"a"`
	// P is the norm index for lp and hh. Defaults: lp p=1, hh p=1.
	P float64 `json:"p,omitempty"`
	// Eps is the accuracy/guarantee parameter for lp, l0sample, linf
	// and hh. Default 0.25 (0.1 for hh, where it must be ≤ Phi).
	Eps float64 `json:"eps,omitempty"`
	// Phi is the heavy-hitter threshold for hh. Default 0.2.
	Phi float64 `json:"phi,omitempty"`
	// Kappa is the approximation factor for linfkappa. Default 8.
	Kappa float64 `json:"kappa,omitempty"`
	// Seed pins the public-coin seed for reproducibility; when nil the
	// engine assigns one from its BaseSeed sequence (reported in the
	// Result).
	Seed *uint64 `json:"seed,omitempty"`
}

// Result is one estimation answer together with its exact
// communication cost and the seed that reproduces it.
type Result struct {
	// Kind echoes the request's protocol kind.
	Kind string `json:"kind"`
	// Matrix echoes the served matrix the query ran against.
	Matrix string `json:"matrix"`
	// Estimate is the protocol's answer (for hh, the output-set size).
	Estimate float64 `json:"estimate"`
	// I is the row of a sampled or witnessing entry (l0sample,
	// l1sample, linf, linfkappa).
	I int `json:"i,omitempty"`
	// J is the column of the sampled or witnessing entry.
	J int `json:"j,omitempty"`
	// Witness is the sampled join witness of l1sample.
	Witness int `json:"witness,omitempty"`
	// Entries is the hh output set.
	Entries []Entry `json:"entries,omitempty"`
	// Bits is the protocol's exact communication payload in bits.
	Bits int64 `json:"bits"`
	// Rounds is the protocol's exact round count.
	Rounds int `json:"rounds"`
	// Seed reproduces this answer bit-for-bit.
	Seed uint64 `json:"seed"`
	// Elapsed is the server-side wall-clock protocol time.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Engine hosts Bob's side of the estimation service.
type Engine struct {
	cfg     Config
	reg     *registry
	cache   *sketchCache // nil when Config.DisableCache
	stats   *collector
	met     *engineMetrics
	workers chan struct{} // worker slots
	queue   chan struct{} // bounded admission queue
	seedSeq chan uint64
	genSeq  atomic.Uint64 // upload generations (cache-key component)
	closed  chan struct{}

	uploads *UploadStager // in-progress chunked uploads

	// updMu serializes row updates (UpdateRows): sub-version assignment
	// and cache revalidation must observe a stable predecessor entry.
	// It also guards the idempotency-dedupe ring below.
	updMu         sync.Mutex
	rowUpd        rowUpdateCounters
	updRecent     map[updKey]UpdateReply
	updRecentKeys []updKey

	persist *persister // nil without Config.Store
}

// NewEngine returns a ready engine.
func NewEngine(cfg Config) *Engine {
	cfg.setDefaults()
	e := &Engine{
		cfg:     cfg,
		reg:     newRegistry(cfg.MaxMatrices),
		stats:   newCollector(),
		workers: make(chan struct{}, cfg.Workers),
		queue:   make(chan struct{}, cfg.QueueDepth),
		seedSeq: make(chan uint64, 1),
		closed:  make(chan struct{}),
		uploads: NewUploadStager("up", cfg.UploadTTL, cfg.MaxUploads, cfg.MaxStagedElems),
	}
	if !cfg.DisableCache {
		e.cache = newSketchCache(cfg.CacheCapacity, cfg.SeedRotateEvery)
	}
	if cfg.Store != nil {
		e.persist = newPersister(cfg.Store, cfg.SnapshotEvery)
		e.recoverFromStore() // before any request is admitted
		go e.compactLoop()
	}
	e.met = newEngineMetrics(e)
	e.seedSeq <- cfg.BaseSeed
	return e
}

// Close stops admitting work. In-flight jobs finish.
func (e *Engine) Close() {
	select {
	case <-e.closed:
	default:
		close(e.closed)
	}
}

// nextSeed draws the next job seed from the engine's reproducible
// sequence (a splitmix64-style stride over BaseSeed).
func (e *Engine) nextSeed() uint64 {
	s := <-e.seedSeq
	e.seedSeq <- s + 0x9E3779B97F4A7C15
	return s
}

// PutMatrix validates and stores a served matrix, returning its catalog
// info and any evicted names.
func (e *Engine) PutMatrix(name string, m Matrix) (MatrixInfo, []string, error) {
	select {
	case <-e.closed:
		return MatrixInfo{}, nil, ErrClosed
	default:
	}
	if name == "" {
		return MatrixInfo{}, nil, fmt.Errorf("%w: empty matrix name", ErrBadRequest)
	}
	list, _, _, err := m.List()
	if err != nil {
		return MatrixInfo{}, nil, err
	}
	return e.install(newServedMatrix(name, list, time.Now(), e.genSeq.Add(1), 0))
}

// install is the tail of a wholesale install (a single-body put, or a
// chunked commit through it): the matrix becomes durable, then visible,
// then its LRU victims are accounted and tombstoned.
func (e *Engine) install(sm *servedMatrix) (MatrixInfo, []string, error) {
	name := sm.info.Name
	// Durability before visibility: once a client sees the install
	// acknowledged, a crash at any point must re-serve this matrix.
	if err := e.persistPut(name, sm); err != nil {
		return MatrixInfo{}, nil, err
	}
	evicted := e.reg.put(name, sm)
	e.stats.evict(len(evicted))
	e.persistTombstones(evicted)
	// A replaced name and any LRU-evicted ones lose their cached
	// states; the generation in the cache key keeps a racing in-flight
	// query from resurrecting a stale entry for the new upload.
	if e.cache != nil {
		e.cache.invalidateMatrix(append(evicted, name)...)
	}
	return sm.info, evicted, nil
}

// DeleteMatrix removes a served matrix, its cached states, and its
// durable state. The tombstone lands first: failing the delete (matrix
// still served) beats a restart resurrecting it.
func (e *Engine) DeleteMatrix(name string) error {
	if err := e.persistDelete(name); err != nil {
		return err
	}
	if !e.reg.delete(name) {
		return fmt.Errorf("%w: %q", ErrMatrixNotFound, name)
	}
	if e.cache != nil {
		e.cache.invalidateMatrix(name)
	}
	return nil
}

// Matrices lists the served matrices, most recently used first.
func (e *Engine) Matrices() []MatrixInfo { return e.reg.infos() }

// Stats snapshots the aggregate serving statistics.
func (e *Engine) Stats() Stats {
	s := e.stats.snapshot(e.reg.len())
	if e.cache != nil {
		s.Cache = e.cache.snapshot()
	}
	s.Shard = shardStatsSnapshot(e.cfg.Shards)
	s.Uploads = e.uploads.Stats()
	s.RowUpdates = e.rowUpd.snapshot()
	if e.persist != nil {
		s.Store = e.persist.snapshot()
	}
	return s
}

// admit takes one worker slot: immediately if one is free, otherwise
// through the bounded queue; a full queue sheds the request. The
// returned release function must be called exactly once.
func (e *Engine) admit(ctx context.Context) (release func(), err error) {
	release = func() { <-e.workers }
	select {
	case e.workers <- struct{}{}:
		return release, nil
	default:
	}
	select {
	case e.queue <- struct{}{}:
	default:
		e.stats.reject()
		return nil, ErrOverloaded
	}
	defer func() { <-e.queue }()
	select {
	case e.workers <- struct{}{}:
		return release, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-e.closed:
		return nil, ErrClosed
	}
}

// admitTimed wraps admit and records the slot wait for admissions that
// succeed. Rejected or cancelled admissions record nothing: their wait
// is bounded by the caller, not the queue, and would skew the window.
func (e *Engine) admitTimed(ctx context.Context) (release func(), err error) {
	start := time.Now()
	release, err = e.admit(ctx)
	if err == nil {
		wait := time.Since(start)
		e.stats.recordQueueWait(wait)
		e.met.queueWait.Observe(wait.Seconds())
	}
	return release, err
}

// Estimate answers one query: it admits the job through the bounded
// pool, runs the requested protocol between Alice (the request's
// matrix) and Bob (the served matrix) over a fresh transport, and
// returns the estimate with its exact communication cost.
//
// Cancelling ctx before admission returns immediately; cancelling it
// mid-run aborts the job at its next transport operation (the
// transport's endpoints are shut down), so a disconnected client stops
// burning its worker.
func (e *Engine) Estimate(ctx context.Context, req Request) (*Result, error) {
	select {
	case <-e.closed:
		return nil, ErrClosed
	default:
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	release, err := e.admitTimed(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	return e.runJob(ctx, req)
}

// EstimateBatch answers many queries against a single admission slot:
// the batch waits once for a worker and then runs its queries
// sequentially on it, which amortizes admission and transport-setup
// overhead for callers issuing repeat queries (typically cache-hitting
// ones against the same served matrix). Per-query failures are reported
// in the matching BatchItem; the call itself only fails when the batch
// cannot be admitted or validated, or when ctx is cancelled.
func (e *Engine) EstimateBatch(ctx context.Context, reqs []Request) ([]BatchItem, error) {
	select {
	case <-e.closed:
		return nil, ErrClosed
	default:
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrBadRequest)
	}
	if len(reqs) > e.cfg.MaxBatch {
		return nil, fmt.Errorf("%w: batch of %d exceeds limit %d", ErrBadRequest, len(reqs), e.cfg.MaxBatch)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	release, err := e.admitTimed(ctx)
	if err != nil {
		return nil, err
	}
	defer release()

	items := make([]BatchItem, 0, len(reqs))
	for _, req := range reqs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := e.runJob(ctx, req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			items = append(items, BatchItem{Error: err.Error()})
			continue
		}
		items = append(items, BatchItem{Result: res})
	}
	return items, nil
}

// BatchItem is one query's outcome within a batch: exactly one of
// Result and Error is set.
type BatchItem struct {
	// Result is the query's answer when it succeeded.
	Result *Result `json:"result,omitempty"`
	// Error is the query's failure message when it did not.
	Error string `json:"error,omitempty"`
}

// jobSeed picks the seed (and cache epoch) for a request: the pinned
// seed when the request carries one; otherwise the current epoch's
// seed when the cache is on — repeat queries then share one cached
// sketch transcript until the epoch rotates — or the engine's per-job
// sequence when it is off.
func (e *Engine) jobSeed(req Request) (seed, epoch uint64) {
	if e.cache != nil {
		epoch = e.cache.epochNow()
	}
	if req.Seed != nil {
		return *req.Seed, epoch
	}
	if e.cache != nil {
		return e.cfg.BaseSeed + epoch*0x9E3779B97F4A7C15, epoch
	}
	return e.nextSeed(), 0
}

// runJob validates the request, builds both parties' inputs (Alice's
// matrix as the row lists her drivers read — it is never dense here —
// and Bob's state through the sketch cache), and drives the protocol
// over a fresh transport. Cancelling ctx aborts the run at its next
// transport operation.
func (e *Engine) runJob(ctx context.Context, req Request) (*Result, error) {
	sm, ok := e.reg.get(req.Matrix)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrMatrixNotFound, req.Matrix)
	}
	// What a few bytes of request can get wrong is refused before A is
	// listed: listing costs O(rows + entries) of A's own declared shape.
	if _, ok := Kinds[req.Kind]; !ok {
		return nil, errUnknownKind(req.Kind)
	}
	if req.A.Cols != sm.info.Rows {
		return nil, fmt.Errorf("%w: A is %dx%d but %q has %d rows",
			ErrBadRequest, req.A.Rows, req.A.Cols, req.Matrix, sm.info.Rows)
	}
	a, aBinary, aNonNeg, err := req.A.List()
	if err != nil {
		return nil, err
	}
	seed, epoch := e.jobSeed(req)

	job, err := e.buildJob(req, sm, a, aBinary, aNonNeg, seed, epoch)
	if err != nil {
		return nil, err
	}

	alice, bob, cleanup, err := e.cfg.Transport()
	if err != nil {
		return nil, fmt.Errorf("service: transport: %w", err)
	}
	defer cleanup()

	// Abort the transport when ctx is cancelled mid-run: finishing both
	// endpoints unblocks (and fails) any pending Send/Recv, and cleanup
	// closes socket-backed transports outright.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			if alice.Finish != nil {
				alice.Finish()
			}
			if bob.Finish != nil {
				bob.Finish()
			}
			cleanup()
		case <-watchDone:
		}
	}()

	start := time.Now()
	runErr := core.RunParties(alice, bob, job.alice, job.bob)
	elapsed := time.Since(start)
	stats := bob.T.Stats()

	e.stats.record(req.Kind, stats.TotalBits(), stats.Rounds, elapsed, runErr != nil || ctx.Err() != nil)
	e.met.observeRun(req.Kind, elapsed)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, fmt.Errorf("%w: %s", mapProtocolError(runErr), runErr)
	}
	res := job.result
	res.Kind = req.Kind
	res.Matrix = req.Matrix
	res.Bits = stats.TotalBits()
	res.Rounds = stats.Rounds
	res.Seed = seed
	res.Elapsed = elapsed
	return res, nil
}

// mapProtocolError folds core's validation errors into ErrBadRequest so
// the HTTP layer reports them as client faults; anything else is a
// protocol-level failure.
func mapProtocolError(err error) error {
	for _, bad := range []error{
		core.ErrBadP, core.ErrBadEps, core.ErrBadKappa, core.ErrBadPhi,
		core.ErrNeedNonNegative, core.ErrDimensionMismatch, core.ErrUpdateShape,
	} {
		if errors.Is(err, bad) {
			return ErrBadRequest
		}
	}
	return errors.New("service: protocol failed")
}

// lpStates is the lp cache entry: Bob's precomputed row sketches of B
// plus the Alice-side state over the same sketch families. The engine
// drives both parties of every job, so Alice's query-independent state
// (the same (m2, p, eps, seed) fingerprint) is derived from Bob's and
// shares his families rather than drawing them again — a remote Alice,
// e.g. a real network client, simply does not use it.
type lpStates struct {
	bob   *core.BobLpState
	alice *core.AliceLpState
}

func newLpStates(b *intmat.Sparse, p float64, o core.LpOpts) (*lpStates, error) {
	bob, err := core.NewBobLpState(b, p, o)
	if err != nil {
		return nil, err
	}
	return &lpStates{bob: bob, alice: bob.AliceState()}, nil
}

// Bytes is the entry's in-memory size, for the cache's Bytes stat; the
// shared families are Bob's, and counted there.
func (s *lpStates) Bytes() int64 { return s.bob.Bytes() + s.alice.Bytes() }

// job packages one protocol execution: the two party drivers plus the
// result they fill in (Bob's driver writes the outputs — the estimate
// lives server-side for every kind).
type job struct {
	alice  func(comm.Transport) error
	bob    func(comm.Transport) error
	result *Result
}

// bobState fetches the cached Bob-side state for one (matrix, kind,
// fingerprint, epoch) key, building and inserting it on a miss. With
// the cache disabled every call builds fresh — the two-phase core API
// makes that path identical to the pre-cache drivers. Build failures
// are validation errors from core; they are recorded as failed requests
// (they surfaced mid-protocol before the two-phase split) and mapped to
// ErrBadRequest.
func (e *Engine) bobState(sm *servedMatrix, kind, fp string, epoch uint64, build func() (bobState, error)) (bobState, error) {
	if e.cache == nil {
		return build()
	}
	key := cacheKey{matrix: sm.info.Name, gen: sm.gen, sub: sm.sub, kind: kind, fp: fp, epoch: epoch}
	if st, ok := e.cache.tickAndGet(key); ok {
		return st, nil
	}
	st, err := build()
	if err != nil {
		return nil, err
	}
	e.cache.put(key, st)
	return st, nil
}

// buildJob wires the request to the matching protocol drivers, fetching
// Bob's matrix-dependent state through the sketch cache. Catalog
// metadata (dimensions, binarity, signedness) crosses as parameters,
// never as protocol payload, so costs match the paper's accounting.
//
// The fingerprint passed to bobState covers exactly the inputs the
// precomputed state depends on: the seed appears for lp/l0sample/hh
// (their states bake in sketches drawn from it) and is omitted for the
// seed-free Bob phases, whose entries therefore serve any seed.
func (e *Engine) buildJob(req Request, sm *servedMatrix, a *intmat.Sparse, aBinary, aNonNeg bool, seed, epoch uint64) (*job, error) {
	res := &Result{}
	b := sm.list
	m2 := sm.info.Cols
	eps := req.Eps
	if eps == 0 {
		eps = 0.25
	}
	state := func(fp string, build func() (bobState, error)) (bobState, error) {
		st, err := e.bobState(sm, req.Kind, fp, epoch, build)
		if err != nil {
			e.stats.recordFailure(req.Kind)
			return nil, fmt.Errorf("%w: %s", mapProtocolError(err), err)
		}
		return st, nil
	}
	switch req.Kind {
	case "lp":
		p := req.P // p = 0 is meaningful: ℓ0, the composition-size estimate
		o := core.LpOpts{Eps: eps, Seed: seed, Shards: e.cfg.Shards}
		st, err := state(fmt.Sprintf("p=%g eps=%g seed=%d", p, eps, seed),
			func() (bobState, error) { return newLpStates(b, p, o) })
		if err != nil {
			return nil, err
		}
		lp := st.(*lpStates)
		return &job{
			alice: func(t comm.Transport) error { return lp.alice.Serve(t, a) },
			bob: func(t comm.Transport) (err error) {
				res.Estimate, err = lp.bob.Serve(t)
				return err
			},
			result: res,
		}, nil
	case "l0sample":
		o := core.L0SampleOpts{Eps: eps, Seed: seed, Shards: e.cfg.Shards}
		st, err := state(fmt.Sprintf("eps=%g seed=%d", eps, seed),
			func() (bobState, error) { return core.NewBobL0SampleState(b, o) })
		if err != nil {
			return nil, err
		}
		l0 := st.(*core.BobL0SampleState)
		m1 := a.Rows()
		return &job{
			alice: func(t comm.Transport) error { return core.AliceL0Sample(t, a, o) },
			bob: func(t comm.Transport) (err error) {
				pair, v, err := l0.Serve(t, m1)
				res.I, res.J, res.Estimate = pair.I, pair.J, float64(v)
				return err
			},
			result: res,
		}, nil
	case "l1sample":
		st, err := state("", func() (bobState, error) { return core.NewBobL1SampleState(b, e.cfg.Shards) })
		if err != nil {
			return nil, err
		}
		l1 := st.(*core.BobL1SampleState)
		return &job{
			alice: func(t comm.Transport) error { return core.AliceSampleL1(t, a, seed) },
			bob: func(t comm.Transport) (err error) {
				res.I, res.J, res.Witness, err = l1.Serve(t, seed)
				return err
			},
			result: res,
		}, nil
	case "exact":
		st, err := state("", func() (bobState, error) { return core.NewBobExactL1State(b, e.cfg.Shards) })
		if err != nil {
			return nil, err
		}
		ex := st.(*core.BobExactL1State)
		return &job{
			alice: func(t comm.Transport) error { return core.AliceExactL1(t, a) },
			bob: func(t comm.Transport) (err error) {
				v, err := ex.Serve(t)
				res.Estimate = float64(v)
				return err
			},
			result: res,
		}, nil
	case "linf":
		bBits, err := binaryPair(sm, aBinary)
		if err != nil {
			return nil, err
		}
		o := core.LinfOpts{Eps: eps, Seed: seed, Shards: e.cfg.Shards}
		st, err := state(fmt.Sprintf("eps=%g", eps),
			func() (bobState, error) { return core.NewBobLinfState(bBits, o) })
		if err != nil {
			return nil, err
		}
		lf := st.(*core.BobLinfState)
		m1 := a.Rows()
		return &job{
			alice: func(t comm.Transport) error { return core.AliceLinfSparse(t, a, m2, o) },
			bob: func(t comm.Transport) (err error) {
				var arg core.Pair
				res.Estimate, arg, err = lf.Serve(t, m1)
				res.I, res.J = arg.I, arg.J
				return err
			},
			result: res,
		}, nil
	case "linfkappa":
		bBits, err := binaryPair(sm, aBinary)
		if err != nil {
			return nil, err
		}
		kappa := req.Kappa
		if kappa == 0 {
			kappa = 8
		}
		o := core.LinfKappaOpts{Kappa: kappa, Seed: seed, Shards: e.cfg.Shards}
		st, err := state(fmt.Sprintf("kappa=%g", kappa),
			func() (bobState, error) { return core.NewBobLinfKappaState(bBits, o) })
		if err != nil {
			return nil, err
		}
		lk := st.(*core.BobLinfKappaState)
		m1 := a.Rows()
		return &job{
			alice: func(t comm.Transport) error { return core.AliceLinfKappaSparse(t, a, m2, o) },
			bob: func(t comm.Transport) (err error) {
				var arg core.Pair
				res.Estimate, arg, err = lk.Serve(t, m1)
				res.I, res.J = arg.I, arg.J
				return err
			},
			result: res,
		}, nil
	case "hh":
		phi := req.Phi
		if phi == 0 {
			phi = 0.2
		}
		hhEps := req.Eps
		if hhEps == 0 {
			hhEps = phi / 2
		}
		o := core.HHOpts{Phi: phi, Eps: hhEps, P: req.P, Seed: seed, Shards: e.cfg.Shards}
		st, err := state(fmt.Sprintf("p=%g phi=%g eps=%g seed=%d", req.P, phi, hhEps, seed),
			func() (bobState, error) { return core.NewBobHHState(b, o) })
		if err != nil {
			return nil, err
		}
		hh := st.(*core.BobHHState)
		m1 := a.Rows()
		bNonNeg := sm.info.NonNeg
		return &job{
			alice: func(t comm.Transport) error { return core.AliceHH(t, a, m2, bNonNeg, o) },
			bob: func(t comm.Transport) (err error) {
				out, err := hh.Serve(t, m1, aNonNeg)
				for _, wp := range out {
					res.Entries = append(res.Entries, Entry{I: wp.I, J: wp.J, Value: wp.Value})
				}
				res.Estimate = float64(len(out))
				return err
			},
			result: res,
		}, nil
	default: // a kind in Kinds without a case above
		return nil, errUnknownKind(req.Kind)
	}
}

func errUnknownKind(kind string) error {
	return fmt.Errorf("%w: unknown kind %q", ErrBadRequest, kind)
}

// binaryPair checks both matrices qualify for the Boolean-matrix
// protocols and returns Bob's bit form.
func binaryPair(sm *servedMatrix, aBinary bool) (bBits *bitmat.Matrix, err error) {
	if sm.bits == nil {
		return nil, fmt.Errorf("%w: matrix %q is not Boolean (required for ℓ∞ kinds)", ErrBadRequest, sm.info.Name)
	}
	if !aBinary {
		return nil, fmt.Errorf("%w: query matrix must be Boolean for ℓ∞ kinds", ErrBadRequest)
	}
	return sm.bits, nil
}
