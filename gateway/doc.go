// Package gateway is the multi-backend front tier of the estimation
// service: one Gateway owns a health-checked pool of mpserver
// backends and serves the service API across them, so a fleet looks
// like one server to clients.
//
// # Placement
//
// Matrices are placed by rendezvous (highest-random-weight) hashing on
// the matrix name with a configurable replication factor R: each
// matrix ranks every backend by a per-(backend, name) hash and lives
// on the top R. There is one placement path, PutMatrix: a single-body
// put fans out to all R replicas and commits all-or-nothing — a partial
// failure tears down the copies that landed, so a matrix is either
// queryable on its full replica set or absent everywhere — and the
// chunked begin/append/commit lifecycle is staged at the gateway (no
// backend sees a chunk; the staging table is the engines' own,
// service.UploadStager) and placed through the same put at commit. The
// gateway retains each matrix — in memory only: it is diskless and holds
// no store — in the form the backends hold it, one immutable row-shared
// non-zero list (intmat.Sparse) validated at the put by their rule, and
// is the placement's source of truth; that copy, rendered to wire
// triples, is what rebalancing and every replica repair re-upload,
// through one routine (seedReplica). Row updates (UpdateRows) go to every
// live replica — or to Config.WriteQuorum of them — and advance the
// retained copy in the same commit with the backends' own patcher
// (service.PatchRows, O(touched rows)), so repairs after an update
// re-seed the patched matrix; a replica that misses an update stays
// placed, lags behind the update log, and is caught up by the apply loop
// when it returns, while an answered rejection reverts the legs that
// applied the patch (all-or-nothing).
//
// # Routing
//
// Estimates route to the least-busy healthy replica and fail over to
// the next replica on transport errors (and on answered 404/502/503);
// a replica that restarted empty is re-seeded in line from the
// retained copy. Batches scatter per-backend sub-batches concurrently
// and gather items back in request order, with per-query re-routing
// when a sub-batch's backend dies mid-call. Answered client errors
// (bad parameters, over-limit bodies) never fail over — the backend
// is alive, the request is at fault.
//
// # Health and topology
//
// A background prober pings every backend's stats endpoint on
// Config.ProbeInterval, demotes failures with exponential backoff,
// and re-admits a recovering backend only after resyncing it against
// the placement table (re-seeding lost copies, deleting stragglers).
// The admin API (POST /v1/admin/backends) adds, drains, and removes
// backends at runtime; each change rebalances affected matrices to
// their new rendezvous targets, uploading gains before dropping
// losses.
//
// # Consistency caveats
//
// Replicas are independent engines: each keeps its own sketch cache
// and seed-epoch schedule, so unpinned repeat queries may be answered
// under different epoch seeds depending on which replica serves them —
// estimates then differ within the protocol's accuracy guarantee,
// not bit-for-bit. Queries that pin a seed are bit-reproducible on
// every replica. See DESIGN.md's gateway section for the full
// lifecycle and failure semantics, and docs/API.md for the HTTP
// reference.
package gateway
