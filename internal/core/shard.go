package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the row-shard parallel execution layer. The paper's
// protocols are embarrassingly row-parallel on Bob's side: his per-row
// sketches, row sums, and per-row contributions to a served query are
// independent and only merge at the end. Every Bob state precompute and
// per-query Serve therefore splits its row scans into contiguous shard
// ranges executed concurrently, with a deterministic merge step that
// keeps transcripts (and outputs) byte-identical to the sequential
// drivers:
//
//   - the parallel sections consume no randomness — shared sketch
//     families are drawn once up front, and every private coin flip
//     happens in the sequential merge step, in the same order as the
//     sequential driver, so both parties' RNG streams are untouched by
//     the shard count;
//   - per-shard outputs land in disjoint slots (a buffer per shard, or
//     disjoint index ranges of one slice) and are merged in shard
//     order, so encoded payloads concatenate to the sequential bytes;
//   - floating-point reductions are re-run over the merged slots in
//     index order, reproducing the sequential driver's summation order
//     exactly; integer reductions are exact and order-free, so they may
//     sum per-shard partials directly.
//
// Shard tasks from all concurrent queries share one process-wide pool
// bounded by GOMAXPROCS, so a heavily loaded server cannot oversubscribe
// the CPUs no matter how many queries shard at once.

// maxShardSlots caps how many distinct shard indices the per-shard busy
// counters track; shard counts beyond it still run, their time folding
// into the last slot.
const maxShardSlots = 64

// minShardRows is the smallest row range worth a goroutine: below it a
// shard's synchronization overhead exceeds its work, so the split is
// coarsened.
const minShardRows = 8

var (
	// shardSem bounds concurrently executing shard tasks process-wide.
	shardSem = make(chan struct{}, max(1, runtime.GOMAXPROCS(0)))

	shardJobs  atomic.Int64 // sharded sections executed in parallel
	shardTasks atomic.Int64 // shard tasks executed (parallel sections only)
	shardBusy  [maxShardSlots]atomic.Int64
)

// ShardInfo is a snapshot of the process-wide row-shard pool counters:
// how many sharded sections ran, how many shard tasks they spawned, and
// the cumulative busy time per shard index (shard 0 first). Sections
// that degenerate to a single range run inline and are not counted.
type ShardInfo struct {
	// Jobs counts sharded sections that ran in parallel.
	Jobs int64
	// Tasks counts shard tasks executed by the pool.
	Tasks int64
	// Busy is the cumulative busy time per shard index.
	Busy []time.Duration
}

// ShardCounters snapshots the row-shard pool counters.
func ShardCounters() ShardInfo {
	info := ShardInfo{Jobs: shardJobs.Load(), Tasks: shardTasks.Load()}
	top := 0
	var busy [maxShardSlots]time.Duration
	for i := range busy {
		busy[i] = time.Duration(shardBusy[i].Load())
		if busy[i] > 0 {
			top = i + 1
		}
	}
	info.Busy = append(info.Busy, busy[:top]...)
	return info
}

// shardRanges splits n rows into at most shards contiguous [lo, hi)
// ranges of near-equal size, never smaller than minShardRows (except
// when n itself is smaller). shards ≤ 1 or tiny n yield one range.
func shardRanges(n, shards int) [][2]int {
	if shards > n/minShardRows {
		shards = n / minShardRows
	}
	if shards <= 1 || n <= 0 {
		return [][2]int{{0, n}}
	}
	ranges := make([][2]int, 0, shards)
	lo := 0
	for s := 0; s < shards; s++ {
		hi := lo + (n-lo)/(shards-s)
		ranges = append(ranges, [2]int{lo, hi})
		lo = hi
	}
	return ranges
}

// runShards executes fn over the shard ranges of n rows: fn(shard, lo,
// hi) once per range, concurrently on the bounded pool when there is
// more than one range, inline otherwise. fn must write only to
// shard-private or disjoint-slot state; the caller performs the
// deterministic merge after runShards returns.
//
// A panic in fn is re-raised on the calling goroutine once every task
// has finished (the lowest shard's, when several panic), so a sharded
// section fails the way the inline one does: inside the party driver's
// recoverDecodeError, as the request's error, not the process's end.
func runShards(n, shards int, fn func(shard, lo, hi int)) {
	ranges := shardRanges(n, shards)
	if len(ranges) == 1 {
		fn(0, ranges[0][0], ranges[0][1])
		return
	}
	shardJobs.Add(1)
	panics := make([]any, len(ranges))
	var wg sync.WaitGroup
	for s, r := range ranges {
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			defer func() { panics[s] = recover() }()
			shardSem <- struct{}{}
			defer func() { <-shardSem }()
			start := time.Now() //mp:nondeterministic-ok busy-time telemetry: feeds ShardCounters, never a transcript
			fn(s, lo, hi)
			slot := s
			if slot >= maxShardSlots {
				slot = maxShardSlots - 1
			}
			shardBusy[slot].Add(int64(time.Since(start))) //mp:nondeterministic-ok busy-time telemetry, see above
			shardTasks.Add(1)
		}(s, r[0], r[1])
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}
