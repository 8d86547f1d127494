// Command mpserver serves the two-party matrix-product estimation
// protocols over HTTP: upload Bob's matrix once, then run estimation
// queries against it. Every answer carries the protocol's exact
// communication cost (bits, rounds) under the paper's model.
//
//	mpserver -addr :8080 -workers 16 -transport inproc
//
// API (JSON):
//
//	PUT    /v1/matrix/{name}   {"rows":512,"cols":512,"entries":[[i,j,v],...]}
//	POST   /v1/estimate        {"matrix":"name","kind":"lp","p":1,"eps":0.25,"a":{...}}
//	GET    /v1/matrices        served matrices
//	GET    /v1/stats           aggregate serving statistics
//	GET    /v1/metrics         Prometheus text exposition of the same telemetry
//	DELETE /v1/matrix/{name}
//	GET    /v1/healthz
//
// Kinds: lp, l0sample, l1sample, exact, linf, linfkappa, hh — see the
// service package for the protocol each runs.
//
// With -transport tcp every protocol execution crosses a real loopback
// socket through the comm.NetConn framing; the reported costs are
// identical to -transport inproc (the transport-parity tests pin this
// down), so the flag is a live demonstration that the protocol layer is
// transport-agnostic.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"repro/internal/store"
	"repro/service"
)

// storeOrNil keeps Config.Store a true nil when no -data-dir is set —
// a nil *store.Disk boxed in the interface would read as "store
// configured" to the engine.
func storeOrNil(d *store.Disk) store.Store {
	if d == nil {
		return nil
	}
	return d
}

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	workers := flag.Int("workers", 8, "max concurrent protocol executions")
	queue := flag.Int("queue", 64, "max queued jobs beyond the worker pool")
	maxMatrices := flag.Int("max-matrices", 16, "registry capacity (LRU eviction beyond it)")
	baseSeed := flag.Uint64("seed", 1, "base seed for server-assigned job seeds")
	transport := flag.String("transport", "inproc", "protocol transport: inproc | tcp (loopback socket per job)")
	cacheCap := flag.Int("cache-capacity", 64, "sketch-cache capacity (cached Bob-side states)")
	noCache := flag.Bool("no-cache", false, "disable the sketch cache (re-derive Bob's state per query)")
	seedRotate := flag.Int64("seed-rotate-every", 4096, "rotate the cache seed epoch after this many cached-path lookups (negative: never)")
	maxBatch := flag.Int("max-batch", 256, "max queries per /v1/estimate/batch request")
	shards := flag.Int("shards", 0, "row shards per job on the parallel serve path (0 = min(GOMAXPROCS, 8), 1 = sequential; transcripts are identical for any value)")
	uploadTTL := flag.Duration("upload-ttl", 2*time.Minute, "idle partial chunked uploads are garbage-collected after this long")
	maxUploads := flag.Int("max-uploads", 16, "max concurrently staged chunked uploads")
	maxStaged := flag.Int64("max-staged-elems", 0, "total rows*cols budget across staged chunked uploads (0 = default 1<<25; staging keeps one bit per declared cell and 24 bytes per received entry)")
	dataDir := flag.String("data-dir", "", "durable store directory: served matrices are snapshotted and row updates WAL-logged there, and the server recovers them on boot (empty: in-memory only)")
	fsyncFlag := flag.String("fsync", "always", "durable store fsync policy: always | batch | never (with -data-dir)")
	snapshotEvery := flag.Int("snapshot-every", 64, "re-snapshot a matrix after this many WAL records and truncate the covered log (negative: never compact; with -data-dir)")
	flag.Parse()

	factory, ok := service.TransportByName(*transport)
	if !ok {
		log.Fatalf("unknown -transport %q (want inproc or tcp)", *transport)
	}
	var durable *store.Disk
	if *dataDir != "" {
		mode, err := store.ParseFsyncMode(*fsyncFlag)
		if err != nil {
			log.Fatalf("-fsync: %v", err)
		}
		durable, err = store.OpenDisk(store.DiskConfig{Dir: *dataDir, Fsync: mode})
		if err != nil {
			log.Fatalf("open -data-dir: %v", err)
		}
		defer durable.Close()
	}
	engine := service.NewEngine(service.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		MaxMatrices:     *maxMatrices,
		BaseSeed:        *baseSeed,
		Transport:       factory,
		CacheCapacity:   *cacheCap,
		DisableCache:    *noCache,
		SeedRotateEvery: *seedRotate,
		MaxBatch:        *maxBatch,
		Shards:          *shards,
		UploadTTL:       *uploadTTL,
		MaxUploads:      *maxUploads,
		MaxStagedElems:  *maxStaged,
		Store:           storeOrNil(durable),
		SnapshotEvery:   *snapshotEvery,
	})
	defer engine.Close()
	if durable != nil {
		ps := engine.Stats().Store
		log.Printf("durable store %s (fsync=%s snapshot-every=%d): recovered %d matrices, replayed %d WAL records, %d recovery errors",
			*dataDir, *fsyncFlag, *snapshotEvery, ps.RecoveredMatrices, ps.ReplayedRecords, ps.RecoveryErrors)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           service.NewHandler(engine),
		ReadHeaderTimeout: 10 * time.Second,
	}

	kinds := make([]string, 0, len(service.Kinds))
	for k := range service.Kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	log.Printf("mpserver listening on %s (workers=%d queue=%d max-matrices=%d transport=%s cache=%s shards=%d)",
		*addr, *workers, *queue, *maxMatrices, *transport,
		map[bool]string{true: "off", false: fmt.Sprintf("%d entries", *cacheCap)}[*noCache],
		engine.Stats().Shard.Shards)
	log.Printf("kinds: %v", kinds)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-stop:
		log.Printf("received %v, draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("serve: %v", err)
		}
	}
	st := engine.Stats()
	log.Printf("served %d requests (%d errors, %d rejected), %d protocol bits, p50=%v p99=%v",
		st.Requests, st.Errors, st.Rejected, st.TotalBits, st.LatencyP50, st.LatencyP99)
	log.Printf("shard pool: %d shards/job, %d parallel sections, %d tasks; chunked uploads: %d committed, %d expired",
		st.Shard.Shards, st.Shard.Jobs, st.Shard.Tasks, st.Uploads.Committed, st.Uploads.Expired)
	if !*noCache {
		log.Printf("sketch cache: %d hits, %d misses, %d entries (%d bytes), seed epoch %d",
			st.Cache.Hits, st.Cache.Misses, st.Cache.Entries, st.Cache.Bytes, st.Cache.SeedEpoch)
	}
}
