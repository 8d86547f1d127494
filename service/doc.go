// Package service is the networked estimation service built on the
// paper's protocols: a server engine hosts Bob's side — a registry of
// named matrices, uploaded once and queried many times — and answers
// estimation queries by running the two-party protocol drivers of
// internal/core against the querying client, who plays Alice.
//
// # Engine
//
// The engine is transport-agnostic: each job runs over a pluggable
// comm.Transport (in-process pair by default, loopback TCP to force
// every protocol message through a real socket) with the exact
// bit-and-round accounting of the paper's communication model, which
// the per-request results and aggregate stats report.
//
// A bounded worker pool caps concurrent protocol executions, a bounded
// admission queue sheds overload, and per-job seeds make every answer
// reproducible. A Bob-side sketch cache (see Config.CacheCapacity)
// answers repeat queries from precomputed per-matrix protocol states,
// and each job's row-parallel phases are sharded across a process-wide
// pool (Config.Shards) with transcripts byte-identical to sequential
// execution.
//
// # Ingestion
//
// Matrices arrive either as one PUT body or through the chunked
// begin/append/commit upload lifecycle (BeginUpload, AppendChunk,
// CommitUpload), which admits matrices beyond the single-body size
// limit one validated row-range chunk at a time.
//
// Served matrices are dynamic: UpdateRows applies sparse row
// replacements or deltas in place. The protocols' sketches are linear
// in the rows of B, so the update recomputes only the touched rows
// and revalidates cached states under a bumped generation sub-version
// instead of evicting them — transcripts stay byte-identical to a
// from-scratch rebuild on the patched matrix.
//
// # HTTP surface
//
// NewHandler exposes the engine as a JSON API and Client is its typed
// counterpart; docs/API.md is the complete HTTP reference. The ten /v1
// routes are declared once, by Routes, over the Front interface: the
// engine serves through a thin adapter, and package gateway, the
// replicated multi-backend front tier, serves the same table with its
// *Gateway, so the tiers share one body limit, decode → call → reply
// shape and error envelope. ListenAndServe is both binaries' serve
// loop: it drains in-flight requests on SIGINT/SIGTERM. cmd/mpserver
// and cmd/mpload are the runnable server and load generator;
// cmd/mpgateway fronts a fleet of servers.
package service
