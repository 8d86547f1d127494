package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/gateway"
	"repro/internal/bitmat"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/intmat"
	"repro/internal/rng"
	"repro/internal/sketch"
	"repro/internal/store"
	"repro/service"
)

// span is one timed call into a layer's public functions, taken from
// the harness (spans inside the servers are ROADMAP item 1). Spans of
// one replayed op share Trace; Parent is the enclosing span's ID (0 for
// the op's root). Times are nanoseconds since the replay began.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) duration() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; they are written out when the run
// ends. The replay is sequential, so the innermost open span is the
// parent of the next one.
type recorder struct {
	t0    time.Time
	spans []span
	trace int
	kind  string
	open  []int
}

func (rec *recorder) begin(name string) int {
	parent := 0
	if len(rec.open) > 0 {
		parent = rec.open[len(rec.open)-1]
	}
	id := len(rec.spans) + 1
	rec.spans = append(rec.spans, span{Trace: rec.trace, ID: id, Parent: parent, Name: name, Kind: rec.kind, Start: int64(time.Since(rec.t0))})
	rec.open = append(rec.open, id)
	return id
}

func (rec *recorder) end(id int) time.Duration {
	rec.spans[id-1].End = int64(time.Since(rec.t0))
	rec.open = rec.open[:len(rec.open)-1]
	return rec.spans[id-1].duration()
}

func (rec *recorder) timed(name string, f func()) time.Duration {
	id := rec.begin(name)
	f()
	return rec.end(id)
}

// selfTime is a span's duration minus the part of its interval its
// direct children cover: children are clipped to the parent and
// overlapping children are counted once.
func selfTime(spans []span, id int) time.Duration {
	parent := spans[id-1]
	var kids [][2]int64
	for _, s := range spans {
		if s.Parent != id {
			continue
		}
		lo, hi := max(s.Start, parent.Start), min(s.End, parent.End)
		if lo < hi {
			kids = append(kids, [2]int64{lo, hi})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
	covered, reach := int64(0), parent.Start
	for _, k := range kids {
		if k[1] <= reach {
			continue
		}
		covered += k[1] - max(k[0], reach)
		reach = k[1]
	}
	return parent.duration() - time.Duration(covered)
}

// statsSnap is the servers' own counters at one instant.
type statsSnap struct {
	backends []service.Stats
	gateway  *gateway.Stats
}

func (r *runner) snapStats() (*statsSnap, error) {
	snap := &statsSnap{}
	ctx := context.Background()
	for _, b := range r.st.backends {
		st, err := service.New(b.url).Stats(ctx)
		if err != nil {
			return nil, fmt.Errorf("backend /stats: %w", err)
		}
		snap.backends = append(snap.backends, st)
	}
	if r.w.gateway {
		st, err := gateway.Dial(r.st.front.url).GatewayStats(ctx)
		if err != nil {
			return nil, fmt.Errorf("gateway /stats: %w", err)
		}
		snap.gateway = &st
	}
	return snap, nil
}

// coreJob is Bob's precomputed state for one (kind, parameters, seed),
// built and served through internal/core directly — the wiring
// service.Engine.buildJob does, from outside.
type coreJob struct {
	req   service.Request
	lp    *core.BobLpState
	alice *core.AliceLpState
	state any // the other kinds' Bob state
}

func defaultShards() int { return min(runtime.GOMAXPROCS(0), 8) }

func corePrecompute(req service.Request, b *intmat.Dense, bBits *bitmat.Matrix) (*coreJob, error) {
	j := &coreJob{req: req}
	seed, shards := *req.Seed, defaultShards()
	var err error
	switch req.Kind {
	case "lp":
		o := core.LpOpts{Eps: req.Eps, Seed: seed, Shards: shards}
		if j.lp, err = core.NewBobLpState(b, req.P, o); err == nil {
			j.alice, err = core.NewAliceLpState(b.Cols(), req.P, o)
		}
	case "l0sample":
		j.state, err = core.NewBobL0SampleState(b, core.L0SampleOpts{Eps: req.Eps, Seed: seed, Shards: shards})
	case "l1sample":
		j.state, err = core.NewBobL1SampleState(b, shards)
	case "exact":
		j.state, err = core.NewBobExactL1State(b, shards)
	case "linf":
		j.state, err = core.NewBobLinfState(bBits, core.LinfOpts{Eps: req.Eps, Seed: seed, Shards: shards})
	case "linfkappa":
		j.state, err = core.NewBobLinfKappaState(bBits, core.LinfKappaOpts{Kappa: req.Kappa, Seed: seed, Shards: shards})
	case "hh":
		j.state, err = core.NewBobHHState(b, core.HHOpts{Phi: req.Phi, Eps: req.Eps, P: req.P, Seed: seed, Shards: shards})
	default:
		err = fmt.Errorf("unknown kind %q", req.Kind)
	}
	return j, err
}

// serve runs both parties over an in-process comm.Pair and returns
// Bob's estimate with the transcript's cost.
func (j *coreJob) serve(a *intmat.Dense, m2 int) (est float64, cost comm.Stats, err error) {
	req, seed, shards := j.req, *j.req.Seed, defaultShards()
	m1 := a.Rows()
	var alice, bob func(comm.Transport) error
	switch st := j.state.(type) {
	case nil: // lp
		alice = func(t comm.Transport) error { return j.alice.Serve(t, a) }
		bob = func(t comm.Transport) (err error) { est, err = j.lp.Serve(t); return err }
	case *core.BobL0SampleState:
		o := core.L0SampleOpts{Eps: req.Eps, Seed: seed, Shards: shards}
		alice = func(t comm.Transport) error { return core.AliceL0Sample(t, a, o) }
		bob = func(t comm.Transport) error {
			_, v, err := st.Serve(t, m1)
			est = float64(v)
			return err
		}
	case *core.BobL1SampleState:
		alice = func(t comm.Transport) error { return core.AliceSampleL1(t, a, seed) }
		bob = func(t comm.Transport) error { _, _, _, err := st.Serve(t, seed); return err }
	case *core.BobExactL1State:
		alice = func(t comm.Transport) error { return core.AliceExactL1(t, a) }
		bob = func(t comm.Transport) error {
			v, err := st.Serve(t)
			est = float64(v)
			return err
		}
	case *core.BobLinfState:
		o := core.LinfOpts{Eps: req.Eps, Seed: seed, Shards: shards}
		aBits := toBool(a)
		alice = func(t comm.Transport) error { return core.AliceLinf(t, aBits, m2, o) }
		bob = func(t comm.Transport) (err error) { est, _, err = st.Serve(t, m1); return err }
	case *core.BobLinfKappaState:
		o := core.LinfKappaOpts{Kappa: req.Kappa, Seed: seed, Shards: shards}
		aBits := toBool(a)
		alice = func(t comm.Transport) error { return core.AliceLinfKappa(t, aBits, m2, o) }
		bob = func(t comm.Transport) (err error) { est, _, err = st.Serve(t, m1); return err }
	case *core.BobHHState:
		o := core.HHOpts{Phi: req.Phi, Eps: req.Eps, P: req.P, Seed: seed, Shards: shards}
		alice = func(t comm.Transport) error { return core.AliceHH(t, a, m2, true, o) }
		bob = func(t comm.Transport) error {
			out, err := st.Serve(t, m1, true)
			est = float64(len(out))
			return err
		}
	}
	at, bt := comm.Pair()
	err = core.RunParties(core.Endpoint{T: at, Finish: at.Finish}, core.Endpoint{T: bt, Finish: bt.Finish}, alice, bob)
	return est, bt.Stats(), err
}

// samples collects per-op values of the layer metrics. Values that
// depend on the protocol kind are kept per kind so a mixed workload's
// number is the mix-weighted mean of per-kind medians rather than the
// median of a multi-modal pool.
type samples struct {
	flat   map[string][]float64
	byKind map[string]map[string][]float64
}

func (s *samples) add(name string, v float64) { s.flat[name] = append(s.flat[name], v) }

func (s *samples) addKind(name, kind string, v float64) {
	if s.byKind[name] == nil {
		s.byKind[name] = map[string][]float64{}
	}
	s.byKind[name][kind] = append(s.byKind[name][kind], v)
}

func (s *samples) med(name string) (float64, int) { return median(s.flat[name]), len(s.flat[name]) }

// mixMedian weights each kind's median by how many replayed reads were
// of that kind (every read has one http.roundtrip_ms sample), not by
// how many samples the metric happens to have: a cached state is
// precomputed once however often its kind is asked.
func (s *samples) mixMedian(name string) (value float64, n int) {
	var weight float64
	for kind, v := range s.byKind[name] {
		w := float64(len(s.byKind["http.roundtrip_ms"][kind]))
		weight += w
		value += w * median(v)
		n += len(v)
	}
	if weight == 0 {
		return 0, 0
	}
	return value / weight, n
}

// replayer drives the traced replay of one workload.
type replayer struct {
	r      *runner
	rec    *recorder
	eng    *service.Engine
	direct *client // straight to backend 0 on the gateway workload, else the front client
	jobs   map[string]*coreJob
	bBits  *bitmat.Matrix
	s      samples
}

// tracedTransport wraps the engine's public transport seam so the
// protocol run inside Engine.Estimate becomes a child span of it: the
// factory is called once the job is built (after admission, registry
// and cache work) and cleanup once both parties returned.
func tracedTransport(rec *recorder) service.TransportFactory {
	return func() (core.Endpoint, core.Endpoint, func(), error) {
		a, b, cleanup, err := service.InProcess()
		id := rec.begin("core.run")
		return a, b, func() { cleanup(); rec.end(id) }, err
	}
}

func (r *runner) newReplayer() (*replayer, error) {
	rp := &replayer{
		r:      r,
		rec:    &recorder{t0: time.Now()},
		jobs:   map[string]*coreJob{},
		direct: r.c,
		s:      samples{flat: map[string][]float64{}, byKind: map[string]map[string][]float64{}},
	}
	if r.w.gateway {
		rp.direct = newClient(r.st.backends[0].url, r.w.jsonWire)
	}
	rp.eng = service.NewEngine(service.Config{DisableCache: r.w.noCache, Transport: tracedTransport(rp.rec)})
	if _, _, err := rp.eng.PutMatrix(matrixName, r.o.wire()); err != nil {
		return nil, err
	}
	if r.w.noCache { // only kinds_uncached issues the Boolean kinds
		rp.bBits = toBool(r.o.b)
	}
	return rp, nil
}

func (rp *replayer) close() {
	rp.eng.Close()
	if rp.direct != rp.r.c {
		rp.direct.close()
	}
}

func jobKey(req *service.Request) string {
	return fmt.Sprintf("%s p=%g eps=%g phi=%g kappa=%g seed=%d", req.Kind, req.P, req.Eps, req.Phi, req.Kappa, *req.Seed)
}

func mallocs() (count, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// codecRequest and codecResult run the four encode/decode calls of one
// exchange the way the wire format in use does (service.AppendBinary/
// DecodeBinary, or encoding/json as service.DecodeJSON does) and return
// each half's summed time; the engine call sits between the two.
func (rp *replayer) codecRequest(req *service.Request) (decoded service.Request, total time.Duration, err error) {
	var buf []byte
	enc := rp.rec.timed("codec.encode_request", func() {
		if rp.r.w.jsonWire {
			buf, err = json.Marshal(req)
		} else {
			buf, err = service.AppendBinary(nil, req)
		}
	})
	if err != nil {
		return decoded, 0, err
	}
	dec := rp.rec.timed("codec.decode_request", func() {
		if rp.r.w.jsonWire {
			d := json.NewDecoder(bytes.NewReader(buf))
			d.DisallowUnknownFields()
			err = d.Decode(&decoded)
		} else {
			err = service.DecodeBinary(buf, &decoded)
		}
	})
	rp.s.add("codec.encode_request_us", us(enc))
	rp.s.add("codec.decode_request_us", us(dec))
	return decoded, enc + dec, err
}

func (rp *replayer) codecResult(res *service.Result) (total time.Duration, err error) {
	var buf []byte
	var decoded service.Result
	enc := rp.rec.timed("codec.encode_result", func() {
		if rp.r.w.jsonWire {
			buf, err = json.Marshal(res)
		} else {
			buf, err = service.AppendBinary(nil, res)
		}
	})
	if err != nil {
		return 0, err
	}
	dec := rp.rec.timed("codec.decode_result", func() {
		if rp.r.w.jsonWire {
			err = json.Unmarshal(buf, &decoded)
		} else {
			err = service.DecodeBinary(buf, &decoded)
		}
	})
	rp.s.add("codec.encode_result_us", us(enc))
	rp.s.add("codec.decode_result_us", us(dec))
	return enc + dec, err
}

// read replays one estimate: the client round trip(s) to the children,
// then the same op through codec → in-process Engine → core directly.
// The three tiers must agree on the answer.
func (rp *replayer) read(p *op) error {
	r, rec, ctx := rp.r, rp.rec, context.Background()
	var viaGateway, child *service.Result
	if r.w.gateway {
		d := rec.timed("gateway.estimate", func() { _, viaGateway, _ = r.read(r.c.Client, p, -1) })
		rp.s.addKind("gateway.estimate_ms", p.kind, ms(d))
		rp.s.add("front_ms", ms(d))
	}
	roundtrip := rec.timed("http.roundtrip", func() { _, child, _ = r.read(rp.direct.Client, p, -1) })
	rp.s.addKind("http.roundtrip_ms", p.kind, ms(roundtrip))
	if !r.w.gateway {
		rp.s.add("front_ms", ms(roundtrip))
	}
	if child == nil || (r.w.gateway && viaGateway == nil) {
		return fmt.Errorf("replayed %s failed: %s", p.kind, r.firstFail)
	}

	var inproc *service.Result
	var err error
	allocs0, _ := mallocs()
	decoded, codecTime, err := rp.codecRequest(&p.req)
	if err != nil {
		return fmt.Errorf("codec: %w", err)
	}
	allocs1, bytes1 := mallocs()
	engID := rec.begin("engine.estimate")
	inproc, err = rp.eng.Estimate(ctx, decoded)
	estimate := rec.end(engID)
	if err != nil {
		return fmt.Errorf("in-process engine: %w", err)
	}
	allocs2, bytes2 := mallocs()
	resultTime, err := rp.codecResult(inproc)
	if err != nil {
		return fmt.Errorf("codec: %w", err)
	}
	allocs3, _ := mallocs()
	rp.s.add("codec.allocs_per_exchange", float64((allocs1-allocs0)+(allocs3-allocs2)))
	rp.s.add("engine.allocs_per_op", float64(allocs2-allocs1))
	rp.s.add("engine.alloc_bytes_per_op", float64(bytes2-bytes1))
	rp.s.addKind("engine.estimate_ms", p.kind, ms(estimate))
	codecTime += resultTime

	if !sameAnswer(child, inproc) || (viaGateway != nil && !sameAnswer(child, viaGateway)) {
		r.fail("%s seed %d: tiers disagree: server %v/%d bits/%d rounds, in-process engine %v/%d bits/%d rounds",
			p.kind, *p.req.Seed, child.Estimate, child.Bits, child.Rounds, inproc.Estimate, inproc.Bits, inproc.Rounds)
	}

	// core directly: precompute (when this op's state is not at hand,
	// which on -no-cache is every op) and serve.
	key := jobKey(&p.req)
	job := rp.jobs[key]
	var precompute time.Duration
	if job == nil || r.w.noCache {
		// A cached state is built once per replay; build it three times
		// so its precompute time is a median, not one draw.
		reps := 3
		if r.w.noCache {
			reps = 1
		}
		for i := 0; i < reps; i++ {
			precompute = rec.timed("core.precompute", func() { job, err = corePrecompute(p.req, r.o.b, rp.bBits) })
			if err != nil {
				return fmt.Errorf("core precompute: %w", err)
			}
			rp.s.addKind("core.precompute_ms", p.kind, ms(precompute))
		}
		rp.jobs[key] = job
	}
	var est float64
	var cost comm.Stats
	serve := rec.timed("core.serve", func() { est, cost, err = job.serve(r.in.queries[p.query], r.o.b.Cols()) })
	if err != nil {
		return fmt.Errorf("core serve: %w", err)
	}
	rp.s.addKind("core.serve_ms", p.kind, ms(serve))
	if est != inproc.Estimate || cost.TotalBits() != inproc.Bits || cost.Rounds != inproc.Rounds {
		r.fail("%s seed %d: core run directly answers %v/%d bits, the engine %v/%d bits", p.kind, *p.req.Seed, est, cost.TotalBits(), inproc.Estimate, inproc.Bits)
	}

	// Self times. The engine's is its span minus the protocol run
	// inside it (and minus Bob's precompute, which on a cache miss also
	// happens inside it): registry, cache lookup, toDense, transport
	// set-up. The HTTP tier's is the round trip minus everything the
	// in-process path accounts for.
	engSelf := selfTime(rec.spans, engID)
	if r.w.noCache {
		engSelf -= precompute
	}
	rp.s.add("engine.self_ms", ms(engSelf))
	rp.s.add("http.self_ms", ms(roundtrip-estimate-codecTime))
	return nil
}

// write replays one row update through the children, the in-process
// engine (no store) and core's incremental splice.
func (rp *replayer) write(p *op) error {
	r, rec := rp.r, rp.rec
	name := "http.update"
	if r.w.gateway {
		if p.update.Delta {
			return fmt.Errorf("gateway replay needs idempotent updates")
		}
		name = "gateway.update"
	}
	var good bool
	front := rec.timed(name, func() { _, good = r.write(r.c.Client, p) })
	if !good {
		return fmt.Errorf("replayed update failed: %s", r.firstFail)
	}
	var err error
	if r.w.gateway {
		// The same replace sent straight to one backend leaves the
		// replicas' contents equal, and times the update without the
		// gateway's fan-out.
		direct := rec.timed("http.update", func() {
			_, err = rp.direct.UpdateRows(context.Background(), matrixName, p.update)
		})
		if err != nil {
			return fmt.Errorf("direct update: %w", err)
		}
		rp.s.add("gateway.update_ms", ms(front))
		rp.s.add("gateway.fanout_ms", ms(front-direct))
	}
	d := rec.timed("engine.update", func() { _, err = rp.eng.UpdateRows(matrixName, p.update) })
	if err != nil {
		return fmt.Errorf("in-process update: %w", err)
	}
	rp.s.add("engine.update_ms", ms(d))

	// core: splice the touched rows into every lp state at hand; other
	// kinds' states are rebuilt on next use.
	var rows []int
	for _, u := range p.update.Updates {
		rows = append(rows, u.Row)
	}
	for key, job := range rp.jobs {
		if job.lp == nil {
			delete(rp.jobs, key)
			continue
		}
		d := rec.timed("core.update_rows", func() { job.lp, err = job.lp.UpdateRows(r.o.b, rows) })
		if err != nil {
			return fmt.Errorf("core UpdateRows: %w", err)
		}
		rp.s.add("core.update_rows_ms", ms(d)/float64(len(rows)))
	}
	if rp.bBits != nil {
		rp.bBits = toBool(r.o.b)
	}
	return nil
}

// replay walks the first replayOps generated ops sequentially with
// spans.
func (rp *replayer) replay() error {
	r := rp.r
	if !r.w.noCache {
		// The children's caches are warm; warm the in-process engine's
		// the same way so its replayed ops hit like theirs.
		warmed := map[string]bool{}
		for i := range r.in.ops {
			p := &r.in.ops[i]
			if p.isUpdate() || warmed[jobKey(&p.req)] {
				continue
			}
			warmed[jobKey(&p.req)] = true
			if _, err := rp.eng.Estimate(context.Background(), p.req); err != nil {
				return err
			}
		}
		rp.rec.spans = nil // the warm-up's core.run spans are not the replay's
	}
	for i := 0; i < replayOps; i++ {
		p := &r.in.ops[i%len(r.in.ops)]
		rp.rec.trace, rp.rec.kind = i, p.kind
		root := rp.rec.begin("op")
		var err error
		if p.isUpdate() {
			err = rp.write(p)
		} else {
			err = rp.read(p)
		}
		rp.rec.end(root)
		if err != nil {
			return err
		}
	}
	return nil
}

// storeLayer times the store's public calls on the workload's own
// records in a scratch directory, FsyncAlways: one WAL append per
// update op, a snapshot of the served matrix, and a Load over snapshot
// + 63 records (one short of a compaction).
func (r *runner) storeLayer(s *samples) error {
	dir, err := os.MkdirTemp(r.env.scratch, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	disk, err := store.OpenDisk(store.DiskConfig{Dir: dir, Fsync: store.FsyncAlways})
	if err != nil {
		return err
	}
	defer disk.Close()
	snap := store.Snapshot{Epoch: 1, Payload: service.EncodeMatrixSnapshot(r.o.wire(), time.Now())}
	for i := 0; i < 5; i++ {
		start := time.Now()
		if err := disk.SaveSnapshot(matrixName, snap); err != nil {
			return err
		}
		s.add("store.snapshot_ms", ms(time.Since(start)))
	}
	seq := uint64(0)
	for i := range r.in.ops {
		p := &r.in.ops[i]
		if !p.isUpdate() || seq == 63 {
			continue
		}
		seq++
		payload, _ := service.AppendBinary(nil, p.update)
		start := time.Now()
		if err := disk.AppendWAL(matrixName, store.Record{Epoch: 1, Seq: seq, Payload: payload}); err != nil {
			return err
		}
		s.add("store.wal_append_us", us(time.Since(start)))
	}
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, recs, err := disk.Load(matrixName); err != nil || len(recs) != int(seq) {
			return fmt.Errorf("store load: %d records, %v", len(recs), err)
		}
		s.add("store.load_ms", ms(time.Since(start)))
	}
	return nil
}

// sketchLayer times the p-stable sketch lp selects (p = 1, dimension
// ⌈SketchC/ε⌉ rounded up to odd) over the served matrix's rows.
func (r *runner) sketchLayer(s *samples) {
	dim := int(8/lpEps) | 1
	b := r.o.b
	sk := sketch.NewStable(rng.New(r.seed), b.Cols(), 1, dim)
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		for k := 0; k < b.Rows(); k++ {
			sk.Apply(b.Row(k))
		}
		s.add("sketch.apply_us_per_row", us(time.Since(start))/float64(b.Rows()))
	}
}

var allKinds = []string{"lp", "l0sample", "l1sample", "exact", "linf", "linfkappa", "hh"}

// runTraced produces the per-layer metrics and the spans.
func (r *runner) runTraced(seconds int) (*result, []span, error) {
	defer r.teardown()
	m, err := r.phases(seconds, true)
	if err != nil {
		return nil, nil, err
	}
	reads := r.pooledReads(m)
	rp, err := r.newReplayer()
	if err != nil {
		return nil, nil, err
	}
	defer rp.close()
	if err := rp.replay(); err != nil {
		return nil, nil, err
	}
	s := &rp.s
	r.sketchLayer(s)
	if r.w.durable {
		if err := r.storeLayer(s); err != nil {
			return nil, nil, err
		}
	}

	out := map[string]metric{}
	flat := func(name, unit string) {
		v, n := s.med(name)
		out[name] = metric{v, unit, n}
	}
	mixed := func(name, unit string) float64 {
		v, n := s.mixMedian(name)
		out[name] = metric{v, unit, n}
		return v
	}
	flat("sketch.apply_us_per_row", "us")
	precompute := mixed("core.precompute_ms", "ms")
	serve := mixed("core.serve_ms", "ms")
	for _, kind := range allKinds {
		v := s.byKind["core.serve_ms"][kind]
		out["core.serve_ms."+kind] = metric{median(v), "ms", len(v)}
	}
	flat("core.update_rows_ms", "ms")
	for _, name := range []string{"codec.encode_request_us", "codec.decode_request_us", "codec.encode_result_us", "codec.decode_result_us"} {
		flat(name, "us")
	}
	flat("codec.allocs_per_exchange", "count")
	mixed("engine.estimate_ms", "ms")
	flat("engine.self_ms", "ms")
	flat("engine.allocs_per_op", "count")
	flat("engine.alloc_bytes_per_op", "bytes")
	flat("engine.update_ms", "ms")
	roundtrip := mixed("http.roundtrip_ms", "ms")
	flat("http.self_ms", "ms")
	out["http.p99_ms"] = metric{percentile(reads, 0.99), "ms", len(reads)}
	out["http.boot_ms"] = metric{m.bootMs, "ms", len(r.st.procs())}
	for _, name := range []string{"store.wal_append_us", "store.snapshot_ms", "store.load_ms"} {
		unit := "ms"
		if name == "store.wal_append_us" {
			unit = "us"
		}
		flat(name, unit)
	}
	gwEstimate := mixed("gateway.estimate_ms", "ms")
	hop := 0.0
	if r.w.gateway {
		hop = gwEstimate - roundtrip
	}
	out["gateway.hop_ms"] = metric{hop, "ms", out["gateway.estimate_ms"].samples}
	flat("gateway.update_ms", "ms")
	flat("gateway.fanout_ms", "ms")

	// Counters the servers keep, as deltas over the measure phase.
	r.counterMetrics(out, m)

	miss := 1 - out["engine.cache_hit_ratio"].Value
	share := 0.0
	if d := miss*precompute + serve; d > 0 {
		share = miss * precompute / d
	}
	out["core.precompute_share"] = metric{share, "share", out["core.precompute_ms"].samples}
	out["comm.rounds_per_query"] = metric{m.rounds, "rounds", len(r.in.ops)}
	out["core.guarantee_violation_share"] = metric{ratio(float64(r.violations), float64(r.statistical)), "share", r.statistical}
	out["rel_error_p90"] = metric{r.checkAccuracy(), "ratio", len(r.relErrs)} // before error_rate: a miss counts
	out["error_rate"] = metric{ratio(float64(r.failed), float64(r.attempted)), "share", r.attempted}
	// The same reads, through the same front door, with and without
	// the replay's spans around them.
	traced, untraced := percentile(s.flat["front_ms"], 0.50), percentile(reads, 0.50)
	out["trace_overhead_pct"] = metric{100 * (traced - untraced) / untraced, "%", len(s.flat["front_ms"])}
	return r.result(out), rp.rec.spans, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterMetrics fills the metrics read from the children's /stats.
func (r *runner) counterMetrics(out map[string]metric, m *measured) {
	var hits, misses, busy, shards, updates, refreshed float64
	var queueWait time.Duration
	perBackend := make([]float64, len(m.after.backends))
	for i, after := range m.after.backends {
		before := m.before.backends[i]
		hits += float64(after.Cache.Hits - before.Cache.Hits)
		misses += float64(after.Cache.Misses - before.Cache.Misses)
		for k, b := range after.Shard.Busy {
			d := b
			if k < len(before.Shard.Busy) {
				d -= before.Shard.Busy[k]
			}
			busy += d.Seconds()
		}
		shards += float64(after.Shard.Shards)
		updates += float64(after.RowUpdates.Requests - before.RowUpdates.Requests)
		refreshed += float64(after.RowUpdates.StatesRefreshed - before.RowUpdates.StatesRefreshed)
		queueWait = max(queueWait, after.QueueWaitP50)
		perBackend[i] = float64(after.Requests - before.Requests)
	}
	lookups := int(hits + misses)
	out["engine.cache_hit_ratio"] = metric{ratio(hits, hits+misses), "share", lookups}
	out["engine.queue_wait_p50_us"] = metric{us(queueWait), "us", lookups}
	out["core.shard_busy_share"] = metric{ratio(busy, m.wall.Seconds()*shards), "share", int(shards)}
	out["engine.states_refreshed_per_update"] = metric{ratio(refreshed, updates), "count", int(updates)}

	// store: one durable backend, or zeros.
	after, before := m.after.backends[0].Store, m.before.backends[0].Store
	walAppends := float64(after.WALAppends - before.WALAppends)
	out["store.fsyncs_per_update"] = metric{ratio(float64(after.Backend.Fsyncs-before.Backend.Fsyncs), walAppends), "count", int(walAppends)}
	out["store.wal_bytes_per_update"] = metric{ratio(float64(after.Backend.WALBytes-before.Backend.WALBytes), walAppends), "bytes", int(walAppends)}
	out["store.compactions"] = metric{float64(after.Compactions - before.Compactions), "count", int(walAppends)}
	wire, _ := service.AppendBinary(nil, r.o.wire())
	out["store.disk_bytes_per_matrix_byte"] = metric{float64(m.diskSize) / float64(len(wire)), "ratio", 1}

	// backend_balance is the busiest backend's share of the reads (0.5
	// is even over two replicas, 1 is all on one): max/min is undefined
	// whenever one replica serves nothing, which a single idle-waiting
	// client makes the normal case.
	failovers, balance := 0.0, 0.0
	if g := m.after.gateway; g != nil {
		b := m.before.gateway
		failovers = float64((g.Failovers - b.Failovers) + (g.Retries - b.Retries) + (g.Repairs - b.Repairs))
		var busiest, total float64
		for _, v := range perBackend {
			busiest, total = max(busiest, v), total+v
		}
		balance = ratio(busiest, total)
		if failovers > 0 {
			r.fail("gateway failed over, retried or repaired %v times during the measure phase: the run is invalid", failovers)
		}
	}
	out["gateway.failovers"] = metric{failovers, "count", len(perBackend)}
	out["gateway.backend_balance"] = metric{balance, "share", len(perBackend)}
}
