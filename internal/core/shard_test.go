package core

import (
	"sync/atomic"
	"testing"
)

func TestShardRanges(t *testing.T) {
	cases := []struct {
		n, shards int
		want      [][2]int
	}{
		{0, 4, [][2]int{{0, 0}}},
		{10, 1, [][2]int{{0, 10}}},
		{10, 0, [][2]int{{0, 10}}},
		{10, -3, [][2]int{{0, 10}}},
		// Coarsening: 10 rows cannot feed two ≥ minShardRows shards.
		{10, 4, [][2]int{{0, 10}}},
		{32, 2, [][2]int{{0, 16}, {16, 32}}},
		{33, 2, [][2]int{{0, 16}, {16, 33}}},
		{100, 3, [][2]int{{0, 33}, {33, 66}, {66, 100}}},
	}
	for _, c := range cases {
		got := shardRanges(c.n, c.shards)
		if len(got) != len(c.want) {
			t.Fatalf("shardRanges(%d, %d) = %v, want %v", c.n, c.shards, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("shardRanges(%d, %d) = %v, want %v", c.n, c.shards, got, c.want)
			}
		}
	}
}

// TestShardRangesCoverExactly checks that for arbitrary (n, shards) the
// ranges partition [0, n) into contiguous ascending pieces, each at
// least minShardRows long when split at all.
func TestShardRangesCoverExactly(t *testing.T) {
	for n := 0; n <= 200; n += 7 {
		for shards := -1; shards <= 9; shards++ {
			ranges := shardRanges(n, shards)
			lo := 0
			for _, r := range ranges {
				if r[0] != lo {
					t.Fatalf("n=%d shards=%d: gap at %v (ranges %v)", n, shards, r, ranges)
				}
				if len(ranges) > 1 && r[1]-r[0] < minShardRows {
					t.Fatalf("n=%d shards=%d: undersized range %v", n, shards, r)
				}
				lo = r[1]
			}
			if lo != n {
				t.Fatalf("n=%d shards=%d: ranges %v do not cover [0, %d)", n, shards, ranges, n)
			}
		}
	}
}

func TestRunShardsExecutesEveryRange(t *testing.T) {
	const n = 64
	var hit [n]atomic.Int32
	runShards(n, 4, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			hit[i].Add(1)
		}
	})
	for i := range hit {
		if got := hit[i].Load(); got != 1 {
			t.Fatalf("row %d visited %d times, want 1", i, got)
		}
	}
}

// TestRunShardsReraisesTaskPanic pins that a panic inside a shard task
// reaches the caller of runShards — where the party drivers' recover
// turns it into the request's error — after every other task has run,
// instead of ending the process from the task's own goroutine.
func TestRunShardsReraisesTaskPanic(t *testing.T) {
	var ran atomic.Int32
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		runShards(64, 4, func(s, _, _ int) {
			ran.Add(1)
			if s == 1 || s == 3 {
				panic("boom in shard " + string(rune('0'+s)))
			}
		})
	}()
	if recovered != "boom in shard 1" {
		t.Fatalf("recovered %v, want the lowest panicking shard's value", recovered)
	}
	if got := ran.Load(); got != 4 {
		t.Fatalf("%d of 4 tasks ran before the panic was re-raised", got)
	}
}

// TestShardCountersAdvance pins that parallel sections feed the pool
// counters the service surfaces in its stats.
func TestShardCountersAdvance(t *testing.T) {
	before := ShardCounters()
	runShards(64, 4, func(_, lo, hi int) {
		s := 0
		for i := lo; i < hi; i++ {
			s += i
		}
		_ = s
	})
	after := ShardCounters()
	if after.Jobs <= before.Jobs {
		t.Fatalf("shard jobs did not advance: %d -> %d", before.Jobs, after.Jobs)
	}
	if after.Tasks < before.Tasks+4 {
		t.Fatalf("shard tasks did not advance by the shard count: %d -> %d", before.Tasks, after.Tasks)
	}
}
