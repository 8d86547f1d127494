package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/gateway"
	"repro/internal/rng"
	"repro/service"
)

// slaCurvePoint is one measured point on the latency-vs-staleness
// frontier: a closed-loop mixed read/update step driven entirely at one
// consistency level, plus the gateway's SLA outcome counters for the
// level over the step.
type slaCurvePoint struct {
	// Level is the consistency token the step's reads carried
	// (e.g. "eventual", "bounded:250ms").
	Level string `json:"level"`
	// Reads and ReadErrors count the step's estimate calls.
	Reads      int64 `json:"reads"`
	ReadErrors int64 `json:"read_errors"`
	// Updates and UpdateErrors count the step's row-update calls.
	Updates      int64 `json:"updates"`
	UpdateErrors int64 `json:"update_errors"`
	// ReadsPerSec is successful read throughput over the measure phase.
	ReadsPerSec float64 `json:"reads_per_sec"`
	// P50/P90/P99 are read latency percentiles in milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	// SLAHits/SLACatchups/SLAMisses are the gateway's outcome counters
	// for the level, taken as a before/after delta around the step
	// (zero when the target is a bare mpserver).
	SLAHits     int64 `json:"sla_hits"`
	SLACatchups int64 `json:"sla_catchups"`
	SLAMisses   int64 `json:"sla_misses"`
}

// slaCurveOut is the BENCH_slacurve.json document.
type slaCurveOut struct {
	Mix      string          `json:"mix"`
	Workers  int             `json:"workers"`
	Duration string          `json:"duration"`
	Points   []slaCurvePoint `json:"points"`
}

type slaCurveCfg struct {
	addr        string
	levels      []string
	workers     int
	duration    time.Duration
	out         string
	mix         string
	matrix      string
	seed        uint64
	clientOpts  []service.ClientOption
	gatewayMode bool
	pickKind    func(r *rng.RNG) string
	makeReq     func(r *rng.RNG, kind string) service.Request
	makeUpdate  func(r *rng.RNG) service.UpdateRequest
}

// runSLACurve drives one closed-loop step per consistency level and
// writes the measured latency-vs-staleness frontier to cfg.out. Each
// level gets per-worker clients pinning MP-Consistency (and, for the
// session levels, a client-minted MP-Session token), so a step's reads
// all route under one SLA while the mix's updates churn the update log
// underneath them.
func runSLACurve(ctx context.Context, cfg slaCurveCfg) {
	gc := gateway.Dial(cfg.addr)
	var points []slaCurvePoint
	anyOK := false
	for _, level := range cfg.levels {
		levelKey, _, _ := strings.Cut(level, ":")
		var before gateway.SLAStats
		if cfg.gatewayMode {
			if st, err := gc.GatewayStats(ctx); err == nil {
				before = st.SLA[levelKey]
			}
		}
		pt := driveSLALevel(ctx, cfg, level)
		if cfg.gatewayMode {
			if st, err := gc.GatewayStats(ctx); err == nil {
				after := st.SLA[levelKey]
				pt.SLAHits = after.Hits - before.Hits
				pt.SLACatchups = after.Catchups - before.Catchups
				pt.SLAMisses = after.Misses - before.Misses
			}
		}
		log.Printf("sla %-14s %d reads (%d errs) %.1f read/s p50 %.2fms p99 %.2fms, %d updates (%d errs), outcomes hit=%d catchup=%d miss=%d",
			level, pt.Reads, pt.ReadErrors, pt.ReadsPerSec, pt.P50Ms, pt.P99Ms,
			pt.Updates, pt.UpdateErrors, pt.SLAHits, pt.SLACatchups, pt.SLAMisses)
		points = append(points, pt)
		if pt.Reads > pt.ReadErrors {
			anyOK = true
		}
		// Let the apply loop drain the step's update backlog so the next
		// level starts from converged replicas, not the previous step's lag.
		time.Sleep(time.Second)
	}
	if cfg.out != "" {
		doc := slaCurveOut{Mix: cfg.mix, Workers: cfg.workers, Duration: cfg.duration.String(), Points: points}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(cfg.out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			log.Printf("write %s: %v", cfg.out, err)
		} else {
			log.Printf("wrote SLA curve (%d levels) to %s", len(points), cfg.out)
		}
	}
	if cfg.gatewayMode {
		printGatewayStats(ctx, cfg.addr)
	}
	if !anyOK {
		log.Printf("no read succeeded at any level")
		os.Exit(1)
	}
}

// driveSLALevel runs one closed-loop step with every read pinned to the
// given consistency level and returns its tallied point.
func driveSLALevel(ctx context.Context, cfg slaCurveCfg, level string) slaCurvePoint {
	var (
		mu   sync.Mutex
		pt   = slaCurvePoint{Level: level}
		lats []time.Duration
	)
	deadline := time.Now().Add(cfg.duration)
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			opts := append([]service.ClientOption{}, cfg.clientOpts...)
			opts = append(opts, service.WithHeader("MP-Consistency", level))
			if level == "monotonic" || level == "rmw" {
				// Client-minted session token: the gateway creates the
				// session on first use, and each worker keeps its own so
				// read-my-writes pins to the worker's writes only.
				opts = append(opts, service.WithHeader("MP-Session",
					fmt.Sprintf("mpload-%s-%d-w%d", level, cfg.seed, w)))
			}
			client := service.New(cfg.addr, opts...)
			r := rng.New(cfg.seed).Derive("mpload-sla", level, fmt.Sprint(w))
			for time.Now().Before(deadline) {
				kind := cfg.pickKind(r)
				if kind == "update" {
					upd := cfg.makeUpdate(r)
					_, err := client.UpdateRows(ctx, cfg.matrix, upd)
					mu.Lock()
					pt.Updates++
					if err != nil {
						pt.UpdateErrors++
					}
					mu.Unlock()
					continue
				}
				req := cfg.makeReq(r, kind)
				start := time.Now()
				_, err := client.Estimate(ctx, req)
				lat := time.Since(start)
				mu.Lock()
				pt.Reads++
				if err != nil {
					pt.ReadErrors++
				} else {
					lats = append(lats, lat)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	pt.P50Ms = ms(percentile(lats, 0.50))
	pt.P90Ms = ms(percentile(lats, 0.90))
	pt.P99Ms = ms(percentile(lats, 0.99))
	pt.ReadsPerSec = float64(int64(len(lats))) / cfg.duration.Seconds()
	return pt
}
