package main

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/service"
)

// Load shape, shared by every workload. One closed-loop client: the
// callers are Alice-side programs that wait for each reply, and on the
// 2-core reference box a second connection oversubscribes the cores the
// servers need. The oracle also relies on it — with one client every
// reply has exactly one matrix version it can have been computed from.
const (
	// sideRounds is how many times a run stops between slices of its
	// measure phase to boot a second stack beside the measured one, time
	// its set-up, and crash and restart it (see sideRound). Spread over
	// the run, a neighbour's burst covers one or two of them, not all.
	sideRounds = 12
	tailReads  = 200 // reads the p95 is read from (≥ 10 beyond it)
	warmup     = 2 * time.Second
	probeOps   = 32 // updates a side round sends before its crash ...
	// ... over and over for probeSlice on the read-only workloads, whose
	// update_p50_ms they are: a 0.3 ms update needs far more repeats than
	// a 5 ms one before each has met a quiet moment.
	probeSlice = 250 * time.Millisecond
	replayOps  = 200
)

// client is one HTTP connection pool to a server, counting body bytes.
type client struct {
	*service.Client
	wire *countingTransport
	base *http.Transport
}

func newClient(url string, jsonWire bool) *client {
	base := &http.Transport{MaxIdleConnsPerHost: 4}
	ct := &countingTransport{base: base}
	opts := []service.ClientOption{service.WithHTTPClient(&http.Client{Transport: ct}), service.WithTimeout(60 * time.Second)}
	if !jsonWire {
		opts = append(opts, service.WithAccept(service.MediaTypeBinary))
	}
	return &client{Client: service.New(url, opts...), wire: ct, base: base}
}

func (c *client) close() { c.base.CloseIdleConnections() }

// pass is one walk over a fixed list of ops: each op's client-observed
// latency in ms by its index in the list, NaN where the op failed.
// Passes repeat exactly the same requests, so what differs between
// them is noise, not which ops fell inside.
type pass []float64

// runner drives one workload once.
type runner struct {
	env  *env
	w    *spec
	seed uint64
	in   *instance
	o    *oracle
	st   *stack
	c    *client

	// first holds each read op's first graded reply. The served matrix
	// of a read-only workload never changes, so a repeat of a
	// pinned-seed request must reproduce it exactly.
	first   []*service.Result
	mutable bool   // the cycle holds updates: grade every reply against the model
	lastSub uint64 // sub-version the last update was acknowledged at: updates since the upload

	attempted   int
	failed      int
	firstFail   string
	statistical int // graded replies of the kinds with a probabilistic guarantee
	violations  int
	relErrs     []float64
}

func newRunner(e *env, w *spec, seed uint64) *runner {
	r := (&runner{env: e, w: w, seed: seed, in: w.generate(seed)}).fresh()
	for i := range r.in.ops {
		r.mutable = r.mutable || r.in.ops[i].isUpdate()
	}
	return r
}

// fresh is a runner on the same input with a model of its own, no stack
// and nothing tallied.
func (r *runner) fresh() *runner {
	return &runner{env: r.env, w: r.w, seed: r.seed, in: r.in, o: newOracle(r.in),
		first: make([]*service.Result, len(r.in.ops)), mutable: r.mutable}
}

// absorb adds what another runner tallied to r's own tallies.
func (r *runner) absorb(o *runner) {
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstFail == "" {
		r.firstFail = o.firstFail
	}
	r.statistical += o.statistical
	r.violations += o.violations
	r.relErrs = append(r.relErrs, o.relErrs...)
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	if r.firstFail == "" {
		r.firstFail = fmt.Sprintf(format, args...)
	}
}

// grade runs the full output check on one reply and tallies it.
func (r *runner) grade(p *op, res *service.Result) bool {
	v, relErr, why := r.o.check(p, res)
	switch p.kind {
	case "lp", "linf", "linfkappa", "hh":
		r.statistical++
		if v == violation {
			r.violations++
		}
	}
	if relErr >= 0 {
		r.relErrs = append(r.relErrs, relErr)
	}
	if v == wrong {
		r.fail("%s: %s", p.kind, why)
		return false
	}
	return true
}

// read issues one estimate through c and checks the reply. idx is the
// op's position in the cycle, or -1 for ops outside it (probes, cold
// requests).
func (r *runner) read(c *service.Client, p *op, idx int) (latMs float64, res *service.Result, good bool) {
	r.attempted++
	start := time.Now()
	res, err := c.Estimate(context.Background(), p.req)
	lat := ms(time.Since(start))
	if err != nil {
		r.fail("%s: %v", p.kind, err)
		return lat, nil, false
	}
	if idx >= 0 && !r.mutable {
		if prev := r.first[idx]; prev != nil {
			if !sameAnswer(prev, res) {
				r.fail("%s op %d: a repeat of the same pinned-seed request answered %v/%d bits, first answer %v/%d bits",
					p.kind, idx, res.Estimate, res.Bits, prev.Estimate, prev.Bits)
				return lat, res, false
			}
			return lat, res, true
		}
		r.first[idx] = res
	}
	return lat, res, r.grade(p, res)
}

// write issues one row update through c and, once acknowledged, folds
// it into the model.
func (r *runner) write(c *service.Client, p *op) (latMs float64, good bool) {
	r.attempted++
	start := time.Now()
	rep, err := c.UpdateRows(context.Background(), matrixName, p.update)
	lat := ms(time.Since(start))
	if err != nil {
		r.fail("update: %v", err)
		return lat, false
	}
	r.o.apply(p.update)
	r.lastSub = rep.Sub
	if rep.RowsApplied != len(p.update.Updates) {
		r.fail("update applied %d rows, sent %d", rep.RowsApplied, len(p.update.Updates))
		return lat, false
	}
	return lat, true
}

// walk issues ops once, in order. inCycle says they are the workload's
// cycle, whose first replies are kept for the repeat check.
func (r *runner) walk(ops []op, inCycle bool) pass {
	p := make(pass, len(ops))
	for i := range ops {
		var lat float64
		var good bool
		if ops[i].isUpdate() {
			lat, good = r.write(r.c.Client, &ops[i])
		} else {
			idx := -1
			if inCycle {
				idx = i
			}
			lat, _, good = r.read(r.c.Client, &ops[i], idx)
		}
		if !good {
			lat = math.NaN()
		}
		p[i] = lat
	}
	return p
}

// setup boots a fresh stack and times what a user waits for before the
// first warm answer: the upload of the served matrix plus one cold
// request per kind of the workload. Process spawn is outside the timed
// span (http.boot_ms reports it).
func (r *runner) setup() (seconds float64, err error) {
	if r.st, err = r.env.start(r.w, ""); err != nil {
		return 0, err
	}
	r.c = newClient(r.st.front.url, r.w.jsonWire)
	start := time.Now()
	if _, err := r.c.UploadMatrix(context.Background(), matrixName, r.o.wire()); err != nil {
		return 0, fmt.Errorf("upload: %w", err)
	}
	seen := map[string]bool{}
	for i := range r.in.ops {
		p := &r.in.ops[i]
		if p.isUpdate() || seen[p.kind] {
			continue
		}
		seen[p.kind] = true
		r.read(r.c.Client, p, -1)
	}
	return time.Since(start).Seconds(), nil
}

func (r *runner) teardown() {
	if r.c != nil {
		r.c.close()
	}
	if r.st != nil {
		r.st.kill()
		if r.st.dataDir != "" {
			os.RemoveAll(r.st.dataDir)
		}
	}
}

// costPass walks the cycle once, untimed: it warms every layer, grades
// every distinct op, and yields the deterministic per-query costs —
// mean protocol bits and rounds over the reads, HTTP body bytes over
// all ops.
func (r *runner) costPass() (bitsPerQuery, roundsPerQuery, wireBytesPerOp float64) {
	var bits, rounds, reads int64
	before := r.c.wire.bytes.Load()
	for i := range r.in.ops {
		p := &r.in.ops[i]
		if p.isUpdate() {
			r.write(r.c.Client, p)
			continue
		}
		if _, res, good := r.read(r.c.Client, p, i); good {
			bits += res.Bits
			rounds += int64(res.Rounds)
			reads++
		}
	}
	if reads == 0 {
		return 0, 0, 0
	}
	wire := r.c.wire.bytes.Load() - before
	return float64(bits) / float64(reads), float64(rounds) / float64(reads), float64(wire) / float64(len(r.in.ops))
}

// measure walks whole passes of the cycle until they have taken d (at
// least one pass). The phase is cut into equal slices and between, if
// given, runs after each; the time it takes is not the phase's.
func (r *runner) measure(d time.Duration, slices int, between func() error) ([]pass, error) {
	var passes []pass
	var spent time.Duration
	for k := 1; k <= slices; k++ {
		for until := d * time.Duration(k) / time.Duration(slices); len(passes) == 0 || spent < until; {
			start := time.Now()
			passes = append(passes, r.walk(r.in.ops, true))
			spent += time.Since(start)
		}
		if between != nil {
			if err := between(); err != nil {
				return nil, err
			}
		}
	}
	return passes, nil
}

// bestPerOp is each op's lowest latency over the passes (NaN if it
// never succeeded). On a shared box the noise is one-sided: other
// tenants' bursts (seconds long, a quarter of the time on the reference
// sandbox in its quiet hours, most of the time in its busy ones) only
// ever slow a request down, so a request's quickest repeat is the
// closest reading of what the system itself takes for it. What a change
// does to every execution of a request moves its best time as much as
// any other; what it does to one execution in a hundred (a pause, a
// rebuild) is estimate_p95_ms's to show.
func bestPerOp(passes []pass) []float64 {
	best := make([]float64, len(passes[0]))
	for i := range best {
		best[i] = math.NaN()
		for _, p := range passes {
			if x := p[i]; !math.IsNaN(x) && (math.IsNaN(best[i]) || x < best[i]) {
				best[i] = x
			}
		}
	}
	return best
}

// split files per-op values under reads or updates, dropping NaNs.
func split(ops []op, v []float64) (reads, updates []float64) {
	for i, x := range v {
		switch {
		case math.IsNaN(x):
		case ops[i].isUpdate():
			updates = append(updates, x)
		default:
			reads = append(reads, x)
		}
	}
	return reads, updates
}

// quietReads pools the read latencies of the quietest passes, ranked by
// the median of each pass's reads, until at least minReads are held.
// A neighbour's burst slows every request of the passes it covers and
// so moves their medians; a pause or a rebuild inside the servers slows
// one request and leaves its pass's median where it was, so the passes
// kept hold the system's own slow requests at the rate they occur.
func quietReads(ops []op, passes []pass, minReads int) []float64 {
	type ranked struct {
		reads []float64
		p50   float64
	}
	byP50 := make([]ranked, len(passes))
	for i, p := range passes {
		reads, _ := split(ops, p)
		byP50[i] = ranked{reads, percentile(reads, 0.50)}
	}
	sort.SliceStable(byP50, func(i, j int) bool { return byP50[i].p50 < byP50[j].p50 })
	var pool []float64
	for _, p := range byP50 {
		if len(pool) >= minReads {
			break
		}
		pool = append(pool, p.reads...)
	}
	return pool
}

// probeAnswers asks the two pinned-seed probe reads.
func (r *runner) probeAnswers() (out [2]*service.Result, good bool) {
	good = true
	for i := range r.in.probe {
		_, res, g := r.read(r.c.Client, &r.in.probe[i], -1)
		out[i], good = res, good && g
	}
	return out, good
}

// recover crashes every server process with SIGKILL right after the
// last acknowledged update, restarts the stack, and times how long
// until the pinned-seed probes are answered again — with the answers
// they had before the crash. A durable workload restarts on its data
// directory and must also resume at the next matrix version; an
// in-memory one has nothing on disk, so the operator's re-upload of the
// current matrix is part of its recovery.
func (r *runner) recover(marker *op) (seconds float64, err error) {
	want, good := r.probeAnswers()
	if !good {
		return 0, fmt.Errorf("probe failed before the crash: %s", r.firstFail)
	}
	lastSub := r.lastSub
	start := time.Now()
	r.st.kill()
	r.c.close()
	if r.st, err = r.env.start(r.w, r.st.dataDir); err != nil {
		return 0, err
	}
	r.c = newClient(r.st.front.url, r.w.jsonWire)
	if !r.w.durable {
		if _, err := r.c.UploadMatrix(context.Background(), matrixName, r.o.wire()); err != nil {
			return 0, fmt.Errorf("re-upload after crash: %w", err)
		}
	}
	got, good := r.probeAnswers()
	seconds = time.Since(start).Seconds()
	if !good {
		return 0, fmt.Errorf("probe failed after the restart: %s", r.firstFail)
	}
	for i := range want {
		if !sameAnswer(want[i], got[i]) {
			r.fail("%s probe answered %v/%d bits after the restart, %v/%d bits before the crash",
				want[i].Kind, got[i].Estimate, got[i].Bits, want[i].Estimate, want[i].Bits)
			return 0, fmt.Errorf("durability check failed: %s", r.firstFail)
		}
	}
	if r.w.durable {
		if _, good := r.write(r.c.Client, marker); !good || r.lastSub != lastSub+1 {
			r.fail("matrix version after recovery: next update got sub %d, want %d", r.lastSub, lastSub+1)
			return 0, fmt.Errorf("durability check failed: %s", r.firstFail)
		}
	}
	return seconds, nil
}

// metric is one reported number. samples is printed beside timings and
// left out of the result line.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

// result is what one run reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	failure   string
}

func (r *runner) result(metrics map[string]metric) *result {
	return &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics, failure: r.firstFail}
}

// measured is what the phases shared by the untraced and the traced
// run produce.
type measured struct {
	setupS    []float64 // the measured stack's set-up, then each side round's
	recoveryS []float64 // each side round's crash → restart → probes
	probes    []op      // the side rounds' updates: probeOps of them, then the marker
	probed    []pass    // every walk of probes[:probeOps]
	bits      float64
	rounds    float64
	wire      float64
	passes    []pass        // the measure phase
	wall      time.Duration // the measure phase, start → end (traced runs: no side rounds inside)
	peakRSS   float64
	bootMs    float64
	before    *statsSnap // child /stats around the measure phase (traced runs)
	after     *statsSnap
	diskSize  int64
}

// pooledReads is every read latency of the measure phase.
func (r *runner) pooledReads(m *measured) []float64 {
	var all []float64
	for _, p := range m.passes {
		reads, _ := split(r.in.ops, p)
		all = append(all, reads...)
	}
	return all
}

// sideRound boots a fresh stack beside the measured one and takes it
// through what a run can measure once per process: the set-up, timed;
// then probeOps single-row updates — half a compaction period of WAL on
// the durable workload, so that every restart replays the same length,
// and on the read-only workloads sent over and over for probeSlice,
// because they are what update_p50_ms is read from there; then a crash
// and restart, timed.
func (r *runner) sideRound(m *measured) error {
	side := r.fresh()
	defer side.teardown()
	defer r.absorb(side)
	setupS, err := side.setup()
	if err != nil {
		return err
	}
	for start := time.Now(); ; {
		m.probed = append(m.probed, side.walk(m.probes[:probeOps], false))
		if r.mutable || time.Since(start) >= probeSlice {
			break
		}
	}
	recoveryS, err := side.recover(&m.probes[probeOps])
	if err != nil {
		return err
	}
	m.setupS, m.recoveryS = append(m.setupS, setupS), append(m.recoveryS, recoveryS)
	return nil
}

// phases runs set-up, the cost pass, warm-up and the measure phase. An
// untraced run measures in sideRounds slices with a side round after
// each.
func (r *runner) phases(seconds int, traced bool) (*measured, error) {
	m := &measured{probes: probeUpdates(r.seed, r.in, probeOps+1)}
	s, err := r.setup()
	if err != nil {
		return nil, err
	}
	m.setupS = append(m.setupS, s)
	m.bootMs = r.st.bootMs()
	m.bits, m.rounds, m.wire = r.costPass()
	r.measure(warmup, 1, nil)
	if r.failed > 0 {
		return nil, fmt.Errorf("wrong output before the measure phase: %s", r.firstFail)
	}
	slices, between := sideRounds, func() error { return r.sideRound(m) }
	if traced {
		slices, between = 1, nil
		if m.before, err = r.snapStats(); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	if m.passes, err = r.measure(time.Duration(seconds)*time.Second, slices, between); err != nil {
		return nil, err
	}
	m.wall = time.Since(start)
	if traced {
		if m.after, err = r.snapStats(); err != nil {
			return nil, err
		}
		m.diskSize = dirSize(r.st.dataDir)
	}
	if m.peakRSS, err = r.st.peakRSSMiB(); err != nil {
		return nil, err
	}
	return m, nil
}

// checkAccuracy enforces the served guarantee on the run as a whole:
// the p90 relative error of the graded lp replies must stay within ε.
func (r *runner) checkAccuracy() float64 {
	p90 := percentile(r.relErrs, 0.90)
	if p90 > lpEps {
		r.fail("lp relative error p90 %.4f exceeds ε = %v", p90, lpEps)
	}
	return p90
}

// runUntraced produces the end-to-end metrics.
func (r *runner) runUntraced(seconds int) (*result, error) {
	defer r.teardown()
	m, err := r.phases(seconds, false)
	if err != nil {
		return nil, err
	}
	best := bestPerOp(m.passes)
	reads, updates := split(r.in.ops, best)
	var quietPass float64 // seconds one pass takes when every op runs at its best
	for _, x := range best {
		quietPass += x / 1000
	}
	throughput := float64(len(reads)+len(updates)) / quietPass // NaN if an op never succeeded: the run is incorrect anyway
	readSamples, updateSamples := len(m.passes)*len(reads), len(m.passes)*len(updates)
	if !r.mutable {
		_, updates = split(m.probes[:probeOps], bestPerOp(m.probed))
		updateSamples = len(m.probed) * probeOps
	}
	if r.w.durable {
		// The side rounds crash a stack 32 updates old. Crash the measured
		// one too, with every update and compaction of the run behind it.
		if _, err := r.recover(&m.probes[probeOps]); err != nil {
			return nil, err
		}
	}
	r.checkAccuracy()

	return r.result(map[string]metric{
		"setup_s":           {median(m.setupS), "s", len(m.setupS)},
		"throughput_rps":    {throughput, "ops/s", len(m.passes) * len(r.in.ops)},
		"estimate_p50_ms":   {percentile(reads, 0.50), "ms", readSamples},
		"estimate_p95_ms":   {percentile(quietReads(r.in.ops, m.passes, tailReads), 0.95), "ms", readSamples},
		"update_p50_ms":     {percentile(updates, 0.50), "ms", updateSamples},
		"bits_per_query":    {m.bits, "bits", len(r.in.ops)},
		"wire_bytes_per_op": {m.wire, "bytes", len(r.in.ops)},
		"recovery_s":        {percentile(m.recoveryS, 0), "s", len(m.recoveryS)},
		"peak_rss_mb":       {m.peakRSS, "MiB", len(r.st.procs())},
	}), nil
}

func dirSize(dir string) int64 {
	if dir == "" {
		return 0
	}
	var total int64
	filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if info, err := e.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}
