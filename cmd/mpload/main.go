// Command mpload is a closed-loop load generator for mpserver: it
// uploads a served matrix, then drives a mixed estimation workload from
// concurrent workers and reports per-kind latency percentiles and
// communication costs.
//
//	mpserver -addr :8080 &
//	mpload -addr http://127.0.0.1:8080 -n 512 -workers 8 -duration 5s
//
// The default mix exercises every protocol kind the server offers; set
// -mix "lp=4,exact=1" style weights to shape it. With -qps 0 each
// worker issues its next request as soon as the previous answer lands
// (closed loop); -qps > 0 paces the aggregate request rate. The exit
// code is non-zero if any request failed.
//
// Two flags shape a repeat-query serving workload: -batch N ships N
// queries per POST /v1/estimate/batch call (one server admission slot per
// batch; latencies are reported amortized per query), and -pin-seed S
// pins every query's job seed so the server's Bob-side sketch cache
// answers repeats from its precomputed state:
//
//	mpload -addr http://127.0.0.1:8080 -mix lp=1 -batch 16 -pin-seed 7
//
// With -chunk-rows N the served matrix is admitted through the chunked
// streaming-ingestion endpoint (POST /v1/matrices/{name}/chunks, N rows
// per chunk) instead of one monolithic PUT body — the path for matrices
// beyond the server's single-body size limit.
//
// With -gateway the target is an mpgateway fleet front rather than a
// single mpserver: the load path is identical (the gateway mirrors the
// service API), and after the run the generator fetches the gateway's
// stats and prints the fleet view — per-backend request counts and
// health plus the placement/failover/retry counters — so a mid-run
// backend kill shows up as failovers rather than client errors:
//
//	mpload -gateway -addr http://127.0.0.1:8080 -duration 10s
//
// The mix accepts the pseudo-kind "update" for a mixed read/write
// workload: each "update" pick issues one PATCH /v1/matrices/{name}/rows
// replacing -update-rows random rows with fresh 0/1 entries (the
// served matrix stays binary and non-negative, so every estimation
// kind remains valid throughout). Against a single server this
// exercises the sketch-cache revalidation path; against a gateway, the
// replicated all-or-nothing propagation:
//
//	mpload -addr http://127.0.0.1:8080 -mix lp=8,exact=2,update=1 -duration 10s
//
// Against a gateway, reads can carry a consistency SLA: -consistency
// pins one level on every estimate (eventual | monotonic | rmw |
// bounded:<dur> | strong, with -session supplying the token the
// session levels track), and -sla-sweep "eventual,monotonic,rmw,
// bounded:250ms,strong" drives one closed-loop step per level against
// an update-bearing mix and writes the measured latency-vs-staleness
// frontier — per-level read percentiles plus the gateway's SLA
// hit/catchup/miss outcomes — to -slacurve-out (BENCH_slacurve.json):
//
//	mpload -gateway -addr http://127.0.0.1:8080 -mix lp=8,update=1 -sla-sweep eventual,rmw,strong
//
// # Open-loop mode and the capacity model
//
// With -rps > 0 the generator switches from closed-loop to open-loop:
// arrivals are scheduled at the target rate (-arrivals uniform spacing
// or a poisson process) independently of how fast answers come back,
// each request runs on its own goroutine (bounded by -max-inflight),
// and latency is measured from the scheduled arrival rather than the
// dispatch — so a stalled server accrues queueing delay in the
// percentiles instead of silently slowing the generator down
// (coordinated omission). Each step drives -warmup of discarded
// traffic and then -measure of tallied traffic; requests are bounded
// by -timeout, arrivals past the inflight cap are accounted as
// timeouts, and dispatches that slip more than 2ms past their schedule
// are counted as late (a generator-saturation diagnostic).
//
// With -rps-sweep "50,100,200,400" the generator runs one open-loop
// step per target, fits the throughput-vs-offered-load curve with the
// Universal Scalability Law (internal/loadcurve), reports the
// predicted capacity knee, and writes the sweep and fit to
// -loadcurve-out (BENCH_loadcurve.json by default):
//
//	mpload -addr http://127.0.0.1:8080 -mix lp=1 -rps-sweep 25,50,100,200 -measure 10s
//
// Open-loop runs exit zero even when requests fail with 429s or
// timeouts — finding the overload point is the purpose — and exit
// non-zero only when no request succeeds at all. Requests are driven
// singly (-batch does not apply). In every mode a progress line with
// the last interval's counts and percentiles is logged every
// -report-interval (default 20s).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"repro/gateway"
	"repro/internal/rng"
	"repro/internal/workload"
	"repro/service"
)

type kindWeight struct {
	kind   string
	weight int
}

// parseMix parses "lp=4,exact=2" into cumulative pick weights.
func parseMix(s string) ([]kindWeight, int, error) {
	var mix []kindWeight
	total := 0
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind, weightStr, ok := strings.Cut(part, "=")
		w := 1
		if ok {
			var err error
			w, err = strconv.Atoi(weightStr)
			if err != nil || w < 0 {
				return nil, 0, fmt.Errorf("bad weight in %q", part)
			}
		}
		if _, known := service.Kinds[kind]; !known && kind != "update" {
			return nil, 0, fmt.Errorf("unknown kind %q", kind)
		}
		if w == 0 {
			continue
		}
		total += w
		mix = append(mix, kindWeight{kind: kind, weight: w})
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("empty mix")
	}
	return mix, total, nil
}

// kindTally accumulates one kind's measurements under the shared lock.
type kindTally struct {
	requests int64
	errors   int64
	bits     int64
	rounds   int64
	lats     []time.Duration
}

type tallies struct {
	mu      sync.Mutex
	perKind map[string]*kindTally
	// ivReqs/ivErrs/ivLats accumulate since the last reporter tick —
	// the in-run progress lines read and reset them.
	ivReqs int64
	ivErrs int64
	ivLats []time.Duration
}

func (t *tallies) record(kind string, lat time.Duration, bits int64, rounds int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kt := t.perKind[kind]
	if kt == nil {
		kt = &kindTally{}
		t.perKind[kind] = kt
	}
	kt.requests++
	t.ivReqs++
	if err != nil {
		kt.errors++
		t.ivErrs++
		return
	}
	kt.bits += bits
	kt.rounds += int64(rounds)
	kt.lats = append(kt.lats, lat)
	t.ivLats = append(t.ivLats, lat)
}

// intervalTake drains the since-last-tick accumulator.
func (t *tallies) intervalTake() (reqs, errs int64, lats []time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	reqs, errs, lats = t.ivReqs, t.ivErrs, t.ivLats
	t.ivReqs, t.ivErrs, t.ivLats = 0, 0, nil
	return reqs, errs, lats
}

// startReporter logs a progress line with the last interval's batch
// percentiles every period until stop closes. Intervals with no
// completed requests log a stall note instead of a zero row.
func startReporter(t *tallies, period time.Duration, stop <-chan struct{}) {
	if period <= 0 {
		return
	}
	start := time.Now()
	go func() {
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			reqs, errs, lats := t.intervalTake()
			since := time.Since(start).Round(time.Second)
			if reqs == 0 {
				log.Printf("[t+%v] no requests completed this interval", since)
				continue
			}
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			log.Printf("[t+%v] %d reqs (%d errs), %.1f req/s, p50 %v p90 %v p99 %v",
				since, reqs, errs, float64(reqs)/period.Seconds(),
				percentile(lats, 0.50).Round(time.Microsecond),
				percentile(lats, 0.90).Round(time.Microsecond),
				percentile(lats, 0.99).Round(time.Microsecond))
		}
	}()
}

// percentile is service.Percentile: the nearest-rank quantile, shared
// with the server so both report latencies by one definition.
func percentile(sorted []time.Duration, q float64) time.Duration {
	return service.Percentile(sorted, q)
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "server base URL")
	workers := flag.Int("workers", 8, "concurrent load workers")
	duration := flag.Duration("duration", 5*time.Second, "how long to drive load")
	qps := flag.Float64("qps", 0, "aggregate request rate (0 = closed loop, as fast as answers land)")
	mixFlag := flag.String("mix", "lp=4,exact=2,l0sample=1,l1sample=1,linf=1,linfkappa=1,hh=1", "workload mix of kind=weight pairs")
	matrix := flag.String("matrix", "bench", "served matrix name")
	n := flag.Int("n", 512, "matrix dimension (served matrix is n×n, queries are n×n)")
	density := flag.Float64("density", 0.02, "matrix density")
	seed := flag.Uint64("seed", 1, "workload generation seed; job seeds derive from it")
	upload := flag.Bool("upload", true, "generate and upload the served matrix before driving load")
	eps := flag.Float64("eps", 0.3, "accuracy parameter for lp/l0sample/linf")
	phi := flag.Float64("phi", 0.2, "heavy-hitter threshold (eps for hh is phi/2)")
	p := flag.Float64("p", 1, "norm index for lp")
	aPool := flag.Int("a-pool", 8, "distinct query (Alice) matrices to rotate through")
	batch := flag.Int("batch", 1, "queries per request: >1 uses POST /v1/estimate/batch (one admission slot per batch; latencies reported amortized per query)")
	pinSeed := flag.Uint64("pin-seed", 0, "pin every query's job seed (>0) so repeat queries hit the server's sketch cache; 0 lets the server assign epoch seeds")
	chunkRows := flag.Int("chunk-rows", 0, "upload the served matrix through POST /v1/matrices/{name}/chunks with this many rows per chunk (0 = single-body PUT)")
	gatewayMode := flag.Bool("gateway", false, "target is an mpgateway fleet front: print the gateway's per-backend and failover stats after the run")
	updateRows := flag.Int("update-rows", 1, "rows replaced per \"update\" pick in the mix (PATCH /v1/matrices/{name}/rows batch size)")
	rps := flag.Float64("rps", 0, "open-loop target arrival rate (0 = closed loop); latencies are measured from the scheduled arrival")
	rpsSweep := flag.String("rps-sweep", "", "comma-separated open-loop target rates to sweep (e.g. 25,50,100,200); fits a USL capacity model and implies open loop")
	arrivals := flag.String("arrivals", "uniform", "open-loop arrival process: uniform or poisson")
	warmup := flag.Duration("warmup", 2*time.Second, "open-loop warmup per step (driven but not tallied)")
	measure := flag.Duration("measure", 10*time.Second, "open-loop measure phase per step")
	timeout := flag.Duration("timeout", 5*time.Second, "open-loop per-request deadline; arrivals shed at the inflight cap count as timeouts")
	maxInflight := flag.Int("max-inflight", 256, "open-loop cap on concurrent in-flight requests")
	loadcurveOut := flag.String("loadcurve-out", "BENCH_loadcurve.json", "where -rps-sweep writes its points and USL fit (empty = don't write)")
	reportInterval := flag.Duration("report-interval", 20*time.Second, "period of in-run progress lines with batch percentiles (0 = off)")
	wireFmt := flag.String("wire", "json", "hot-path wire format: json or binary (negotiated per request; servers without binary support fall back to JSON)")
	consistency := flag.String("consistency", "", "consistency SLA attached to every read against a gateway: eventual | monotonic | rmw | bounded:<dur> | strong (empty: server default, strong)")
	session := flag.String("session", "", "session token pinned on every request (with -consistency monotonic/rmw; empty: client mints none)")
	slaSweep := flag.String("sla-sweep", "", "comma-separated consistency levels to sweep (e.g. eventual,monotonic,rmw,bounded:250ms,strong): one closed-loop step per level measuring the latency-vs-staleness frontier; pair with an update-bearing -mix")
	slacurveOut := flag.String("slacurve-out", "BENCH_slacurve.json", "where -sla-sweep writes its per-level points (empty = don't write)")
	flag.Parse()

	if *batch < 1 {
		log.Fatalf("-batch must be ≥ 1")
	}
	openLoop := *rpsSweep != "" || *rps > 0
	if *arrivals != "uniform" && *arrivals != "poisson" {
		log.Fatalf("-arrivals must be uniform or poisson, got %q", *arrivals)
	}
	if openLoop && *maxInflight < 1 {
		log.Fatalf("-max-inflight must be ≥ 1")
	}

	mix, mixTotal, err := parseMix(*mixFlag)
	if err != nil {
		log.Fatalf("-mix: %v", err)
	}

	var clientOpts []service.ClientOption
	switch *wireFmt {
	case "json":
	case "binary":
		clientOpts = append(clientOpts, service.WithAccept(service.MediaTypeBinary))
	default:
		log.Fatalf("-wire must be json or binary, got %q", *wireFmt)
	}
	var slaLevels []string
	if *slaSweep != "" {
		for _, lvl := range strings.Split(*slaSweep, ",") {
			lvl = strings.TrimSpace(lvl)
			if lvl == "" {
				continue
			}
			if _, err := gateway.ParseConsistency(lvl); err != nil {
				log.Fatalf("-sla-sweep: %v", err)
			}
			slaLevels = append(slaLevels, lvl)
		}
		if len(slaLevels) == 0 {
			log.Fatalf("-sla-sweep: no levels")
		}
	}
	if *consistency != "" {
		if _, err := gateway.ParseConsistency(*consistency); err != nil {
			log.Fatalf("-consistency: %v", err)
		}
		clientOpts = append(clientOpts, service.WithHeader("MP-Consistency", *consistency))
	}
	if *session != "" {
		clientOpts = append(clientOpts, service.WithHeader("MP-Session", *session))
	}
	client := service.New(*addr, clientOpts...)
	ctx := context.Background()

	// Boolean matrices satisfy every kind's preconditions (binary for
	// the ℓ∞ kinds, non-negative for exact/l1sample).
	if *upload {
		b := workload.Binary(*seed, *n, *n, *density)
		wire := service.MatrixFromBool(b)
		var info service.MatrixInfo
		var err error
		if *chunkRows > 0 {
			info, err = client.UploadMatrixChunked(ctx, *matrix, wire, *chunkRows)
		} else {
			info, err = client.UploadMatrix(ctx, *matrix, wire)
		}
		if err != nil {
			log.Fatalf("upload: %v", err)
		}
		how := "single body"
		if *chunkRows > 0 {
			how = fmt.Sprintf("%d-row chunks", *chunkRows)
		}
		log.Printf("uploaded %q (%s): %dx%d, %d non-zeros", info.Name, how, info.Rows, info.Cols, info.NNZ)
	}
	pool := make([]service.Matrix, *aPool)
	for i := range pool {
		pool[i] = service.MatrixFromBool(workload.Binary(*seed+uint64(i)+1, *n, *n, *density))
	}

	// Optional aggregate pacing: a token per admitted request.
	var tokens chan struct{}
	if *qps > 0 && !openLoop {
		interval := time.Duration(float64(time.Second) / *qps)
		if interval <= 0 {
			log.Fatalf("-qps %v too high (sub-nanosecond interval); use 0 for closed loop", *qps)
		}
		tokens = make(chan struct{})
		go func() {
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for range tick.C {
				select {
				case tokens <- struct{}{}:
				default: // workers saturated; shed the token
				}
			}
		}()
	}

	tally := &tallies{perKind: make(map[string]*kindTally)}
	deadline := time.Now().Add(*duration)
	var firstErr error
	var errOnce sync.Once

	pickKind := func(r *rng.RNG) string {
		pick := r.Intn(mixTotal)
		for _, kw := range mix {
			if pick < kw.weight {
				return kw.kind
			}
			pick -= kw.weight
		}
		return mix[len(mix)-1].kind
	}

	// makeUpdate builds one random row-replacement request: fresh 0/1
	// rows at the workload density, so the served matrix keeps every
	// kind's preconditions while its content churns.
	if *updateRows < 1 {
		log.Fatalf("-update-rows must be ≥ 1")
	}
	if *updateRows > *n {
		*updateRows = *n
	}
	makeUpdate := func(r *rng.RNG) service.UpdateRequest {
		var req service.UpdateRequest
		seen := make(map[int]bool, *updateRows)
		for len(req.Updates) < *updateRows {
			row := r.Intn(*n)
			if seen[row] {
				continue
			}
			seen[row] = true
			u := service.RowUpdate{Row: row}
			for j := 0; j < *n; j++ {
				if r.Float64() < *density {
					u.Entries = append(u.Entries, [2]int64{int64(j), 1})
				}
			}
			req.Updates = append(req.Updates, u)
		}
		return req
	}

	makeReq := func(r *rng.RNG, kind string) service.Request {
		req := service.Request{
			Matrix: *matrix,
			Kind:   kind,
			A:      pool[r.Intn(len(pool))],
			Eps:    *eps,
		}
		switch kind {
		case "lp":
			req.P = *p
		case "hh":
			req.Phi = *phi
			req.Eps = *phi / 2
		case "l1sample", "exact":
			req.Eps = 0
		}
		if *pinSeed > 0 {
			req.Seed = pinSeed
		}
		return req
	}

	if len(slaLevels) > 0 {
		if openLoop {
			log.Fatalf("-sla-sweep is a closed-loop mode; drop -rps/-rps-sweep")
		}
		log.Printf("sweeping %d consistency levels, %v each (mix %s, %d workers)",
			len(slaLevels), *duration, *mixFlag, *workers)
		runSLACurve(ctx, slaCurveCfg{
			addr:        *addr,
			levels:      slaLevels,
			workers:     *workers,
			duration:    *duration,
			out:         *slacurveOut,
			mix:         *mixFlag,
			matrix:      *matrix,
			seed:        *seed,
			clientOpts:  clientOpts,
			gatewayMode: *gatewayMode,
			pickKind:    pickKind,
			makeReq:     makeReq,
			makeUpdate:  makeUpdate,
		})
		return
	}

	if openLoop {
		// prepare runs on the scheduler goroutine (single rng), the
		// returned closure on its own goroutine. Every completion also
		// lands in the shared tally so the periodic reporter covers
		// open-loop runs too.
		prepare := func(r *rng.RNG) func(context.Context) error {
			kind := pickKind(r)
			if kind == "update" {
				upd := makeUpdate(r)
				return func(cctx context.Context) error {
					start := time.Now()
					_, err := client.UpdateRows(cctx, *matrix, upd)
					tally.record("update", time.Since(start), 0, 0, err)
					return err
				}
			}
			req := makeReq(r, kind)
			return func(cctx context.Context) error {
				start := time.Now()
				res, err := client.Estimate(cctx, req)
				if err != nil {
					tally.record(req.Kind, time.Since(start), 0, 0, err)
					return err
				}
				tally.record(req.Kind, time.Since(start), res.Bits, res.Rounds, nil)
				return nil
			}
		}
		stop := make(chan struct{})
		startReporter(tally, *reportInterval, stop)
		runSweep(ctx, sweepCfg{
			addr:         *addr,
			mix:          *mixFlag,
			rps:          *rps,
			sweep:        *rpsSweep,
			arrivals:     *arrivals,
			warmup:       *warmup,
			measure:      *measure,
			timeout:      *timeout,
			maxInflight:  *maxInflight,
			seed:         *seed,
			loadcurveOut: *loadcurveOut,
			gatewayMode:  *gatewayMode,
			prepare:      prepare,
		})
		close(stop)
		return
	}

	log.Printf("driving %d workers for %v (mix %s, qps %s)", *workers, *duration, *mixFlag,
		map[bool]string{true: fmt.Sprintf("%.0f", *qps), false: "closed-loop"}[*qps > 0])
	reporterStop := make(chan struct{})
	startReporter(tally, *reportInterval, reporterStop)

	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(*seed).Derive("mpload", strconv.Itoa(w))
			for time.Now().Before(deadline) {
				if tokens != nil {
					select {
					case <-tokens:
					case <-time.After(time.Until(deadline)):
						return
					}
				}
				kind := pickKind(r)
				if kind == "update" {
					// One write per pick, batch mode or not: updates take
					// the PATCH path, never the estimate batch.
					upd := makeUpdate(r)
					start := time.Now()
					_, err := client.UpdateRows(ctx, *matrix, upd)
					lat := time.Since(start)
					if err != nil {
						errOnce.Do(func() { firstErr = fmt.Errorf("update: %w", err) })
					}
					tally.record("update", lat, 0, 0, err)
					continue
				}
				if *batch == 1 {
					req := makeReq(r, kind)
					start := time.Now()
					res, err := client.Estimate(ctx, req)
					lat := time.Since(start)
					if err != nil {
						errOnce.Do(func() { firstErr = fmt.Errorf("%s: %w", req.Kind, err) })
						tally.record(req.Kind, lat, 0, 0, err)
						continue
					}
					tally.record(req.Kind, lat, res.Bits, res.Rounds, nil)
					continue
				}
				reqs := make([]service.Request, *batch)
				for i := range reqs {
					k := pickKind(r)
					if k == "update" {
						k = kind // keep batches pure reads; the write path is above
					}
					reqs[i] = makeReq(r, k)
				}
				start := time.Now()
				items, err := client.EstimateBatch(ctx, reqs)
				lat := time.Since(start)
				perQuery := lat / time.Duration(len(reqs))
				if err != nil {
					errOnce.Do(func() { firstErr = fmt.Errorf("batch: %w", err) })
					for _, req := range reqs {
						tally.record(req.Kind, perQuery, 0, 0, err)
					}
					continue
				}
				for i, item := range items {
					kind := reqs[i].Kind
					if item.Error != "" {
						itemErr := fmt.Errorf("%s: %s", kind, item.Error)
						errOnce.Do(func() { firstErr = itemErr })
						tally.record(kind, perQuery, 0, 0, itemErr)
						continue
					}
					tally.record(kind, perQuery, item.Result.Bits, item.Result.Rounds, nil)
				}
			}
		}(w)
	}
	wg.Wait()
	close(reporterStop)

	printSummary(tally, *duration)
	if *gatewayMode {
		printGatewayStats(ctx, *addr)
	}
	if firstErr != nil {
		log.Printf("first error: %v", firstErr)
		os.Exit(1)
	}
}

// printGatewayStats fetches and prints the fleet view after a
// -gateway run: the routing counters that show how much failover the
// run absorbed, and one line per backend.
func printGatewayStats(ctx context.Context, addr string) {
	gc := gateway.Dial(addr)
	st, err := gc.GatewayStats(ctx)
	if err != nil {
		log.Printf("gateway stats: %v", err)
		return
	}
	fmt.Printf("gateway: %d matrices at replication %d, %d estimates, %d batches, %d updates (%d reverts), %d failovers, %d retries, %d repairs, %d rebalanced\n",
		st.Matrices, st.Replication, st.Estimates, st.Batches, st.Updates, st.UpdateReverts, st.Failovers, st.Retries, st.Repairs, st.Rebalanced)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "backend\tstate\tmatrices\treqs\terrs\tfailovers\tp50\tp99")
	for _, b := range st.Backends {
		state := "healthy"
		if !b.Healthy {
			state = "unhealthy"
		}
		if b.Draining {
			state += ",draining"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%v\t%v\n",
			b.Addr, state, b.Matrices, b.Requests, b.Errors, b.Failovers,
			b.LatencyP50.Round(time.Microsecond), b.LatencyP99.Round(time.Microsecond))
	}
	tw.Flush()
}

func printSummary(t *tallies, dur time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kinds := make([]string, 0, len(t.perKind))
	for k := range t.perKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "kind\treqs\terrs\tp50\tp90\tp99\tmean bits\tmean rounds")
	var totReq, totErr, totBits int64
	var allLats []time.Duration
	for _, k := range kinds {
		kt := t.perKind[k]
		sort.Slice(kt.lats, func(i, j int) bool { return kt.lats[i] < kt.lats[j] })
		okReqs := kt.requests - kt.errors
		meanBits, meanRounds := int64(0), 0.0
		if okReqs > 0 {
			meanBits = kt.bits / okReqs
			meanRounds = float64(kt.rounds) / float64(okReqs)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%v\t%v\t%v\t%d\t%.1f\n",
			k, kt.requests, kt.errors,
			percentile(kt.lats, 0.50).Round(time.Microsecond),
			percentile(kt.lats, 0.90).Round(time.Microsecond),
			percentile(kt.lats, 0.99).Round(time.Microsecond),
			meanBits, meanRounds)
		totReq += kt.requests
		totErr += kt.errors
		totBits += kt.bits
		allLats = append(allLats, kt.lats...)
	}
	sort.Slice(allLats, func(i, j int) bool { return allLats[i] < allLats[j] })
	fmt.Fprintf(tw, "total\t%d\t%d\t%v\t%v\t%v\t\t\n", totReq, totErr,
		percentile(allLats, 0.50).Round(time.Microsecond),
		percentile(allLats, 0.90).Round(time.Microsecond),
		percentile(allLats, 0.99).Round(time.Microsecond))
	tw.Flush()
	fmt.Printf("throughput: %.1f req/s, protocol payload: %d bits total\n",
		float64(totReq-totErr)/dur.Seconds(), totBits)
}
