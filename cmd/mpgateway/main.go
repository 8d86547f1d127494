// Command mpgateway fronts a fleet of mpserver backends as one
// estimation service: it places matrices across the fleet by
// consistent (rendezvous) hashing with a configurable replication
// factor, routes estimates to the least-busy healthy replica with
// automatic failover, scatters batches, health-checks the backends,
// and rebalances placements when the pool changes at runtime.
//
//	mpserver -addr :8081 &
//	mpserver -addr :8082 &
//	mpserver -addr :8083 &
//	mpgateway -addr :8080 -backends http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083 -replication 2
//
// The gateway serves the same JSON API as mpserver (clients and
// mpload work unchanged pointed at it) plus the admin surface:
//
//	GET  /v1/admin/backends   pool listing with health and counters
//	POST /v1/admin/backends   {"op":"add"|"drain"|"remove","addr":"http://…"}
//	GET  /v1/stats            gateway + per-backend counters (placements, failovers, retries, latencies)
//	GET  /v1/metrics          Prometheus text exposition of the fleet telemetry (mpgw_* families)
//
// Kill a backend mid-load and the gateway fails queries over to the
// surviving replicas; restart it and the health prober re-seeds it
// from the gateway's retained matrix copies and re-admits it, and the
// apply loop replays whatever row updates it missed. See
// docs/API.md for the full API and README.md for a walkthrough.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/gateway"
	"repro/service"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	backends := flag.String("backends", "", "comma-separated backend base URLs (e.g. http://127.0.0.1:8081,http://127.0.0.1:8082)")
	replication := flag.Int("replication", 2, "replicas per matrix (R)")
	probeInterval := flag.Duration("probe-interval", time.Second, "health prober base period")
	probeTimeout := flag.Duration("probe-timeout", 2*time.Second, "per-probe timeout")
	probeBackoffMax := flag.Duration("probe-backoff-max", 30*time.Second, "cap on the prober's exponential backoff for failing backends")
	uploadTTL := flag.Duration("upload-ttl", 2*time.Minute, "idle chunked uploads staged at the gateway are garbage-collected after this long")
	writeQuorum := flag.Int("write-quorum", 0, "replica acks a row update commits on (W); the apply loop catches the rest up in the background (0: every live replica acks before the update returns)")
	updateLogMax := flag.Int("update-log-max", 0, "retained update-log entries per matrix; replicas lagging past the log are reseeded from the full wire copy (0: default 1024)")
	sessionTTL := flag.Duration("session-ttl", 0, "idle consistency sessions (monotonic / read-my-writes tokens) expire after this long (0: default 10m)")
	flag.Parse()

	var pool []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			pool = append(pool, b)
		}
	}
	if len(pool) == 0 {
		log.Fatalf("no backends: pass -backends (more can be added at runtime via POST /v1/admin/backends)")
	}

	gw := gateway.New(gateway.Config{
		Backends:        pool,
		Replication:     *replication,
		ProbeInterval:   *probeInterval,
		ProbeTimeout:    *probeTimeout,
		ProbeBackoffMax: *probeBackoffMax,
		UploadTTL:       *uploadTTL,
		WriteQuorum:     *writeQuorum,
		UpdateLogMax:    *updateLogMax,
		SessionTTL:      *sessionTTL,
	})
	defer gw.Close()

	log.Printf("mpgateway listening on %s (backends=%d replication=%d write-quorum=%d [0 = every live replica] probe-interval=%v)",
		*addr, len(pool), *replication, *writeQuorum, *probeInterval)
	for _, b := range pool {
		log.Printf("backend: %s", b)
	}

	if err := service.ListenAndServe(*addr, gateway.NewHandler(gw)); err != nil {
		log.Fatalf("serve: %v", err)
	}
	st := gw.Stats()
	log.Printf("routed %d estimates, %d batches across %d backends: %d failovers, %d retries, %d repairs, %d rebalanced",
		st.Estimates, st.Batches, len(st.Backends), st.Failovers, st.Retries, st.Repairs, st.Rebalanced)
	for _, b := range st.Backends {
		state := "healthy"
		if !b.Healthy {
			state = fmt.Sprintf("unhealthy (%s)", b.LastError)
		}
		if b.Draining {
			state += ", draining"
		}
		log.Printf("backend %s: %s, %d matrices, %d reqs (%d errors), p50=%v p99=%v",
			b.Addr, state, b.Matrices, b.Requests, b.Errors, b.LatencyP50, b.LatencyP99)
	}
}
