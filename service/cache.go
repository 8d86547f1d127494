package service

import (
	"container/list"
	"sync"
)

// bobState is what the sketch cache stores: a precomputed Bob-side
// protocol state from internal/core (BobLpState, BobLinfState, …) that
// reports its retained size. States are immutable and safe for
// concurrent Serve calls, which is what lets one entry answer many
// queries at once.
type bobState interface{ Bytes() int64 }

// cacheKey identifies one cached Bob-side state.
//
// gen is the upload generation of the matrix name: every PutMatrix
// assigns a fresh generation, so a state built against a replaced
// matrix can never be returned for its successor even if an in-flight
// query inserts it after the replacement purged the name (the stale
// entry is simply unreachable and ages out of the LRU).
//
// sub is the generation's sub-version, advanced by one per row update.
// Unlike a generation change — which strands old entries to age out —
// a sub-version change migrates them: refreshMatrix advances each
// entry's state incrementally and re-keys it, so an update keeps the
// cache warm.
//
// fp is the kind-specific parameter fingerprint. It includes the job
// seed exactly when the precomputed state depends on it (lp, l0sample,
// hh — their sketches are drawn from the shared seed); for the
// seed-free Bob phases (exact, l1sample, linf, linfkappa) it does not,
// so those entries are shared across seeds.
type cacheKey struct {
	matrix string
	gen    uint64
	sub    uint64
	kind   string
	fp     string
	epoch  uint64
}

type cacheEntry struct {
	key   cacheKey
	state bobState
	elem  *list.Element
}

// sketchCache is the Bob-side sketch cache: precomputed protocol states
// keyed by (matrix name, generation, kind, parameter fingerprint, seed
// epoch), reused across queries so the matrix-dependent work — for lp,
// re-sketching every row of B — is paid once per matrix instead of once
// per request.
//
// Entries are invalidated when their matrix is replaced, deleted, or
// LRU-evicted from the registry, when the cache itself exceeds its
// capacity (LRU), and when the seed epoch rotates.
//
// The seed epoch makes coin reuse an explicit serving knob: queries
// that do not pin a seed are assigned the current epoch's seed, so
// repeated queries share one cached transcript; after rotateEvery
// lookups the epoch advances, fresh public coins are drawn, and the
// whole cache flushes. rotateEvery ≤ 0 never rotates.
type sketchCache struct {
	mu          sync.Mutex
	cap         int
	rotateEvery int64
	m           map[cacheKey]*cacheEntry
	lru         *list.List // front = most recently used; values are *cacheEntry

	hits    int64
	misses  int64
	epoch   uint64
	lookups int64 // lookups in the current epoch
}

func newSketchCache(capacity int, rotateEvery int64) *sketchCache {
	return &sketchCache{
		cap:         capacity,
		rotateEvery: rotateEvery,
		m:           make(map[cacheKey]*cacheEntry),
		lru:         list.New(),
	}
}

// epochNow returns the seed epoch new jobs should key against.
func (c *sketchCache) epochNow() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// tickAndGet advances the rotation clock by one lookup and returns the
// cached state for key, counting a hit or a miss.
//
//mp:hotpath
func (c *sketchCache) tickAndGet(key cacheKey) (bobState, bool) {
	c.mu.Lock() //mp:lock-ok audited allowed set: O(1) critical section (map probe + LRU splice), never blocks on I/O
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if ok {
		c.hits++
		c.lru.MoveToFront(e.elem)
	} else {
		c.misses++
	}
	c.lookups++
	if c.rotateEvery > 0 && c.lookups >= c.rotateEvery {
		c.rotateLocked()
	}
	if !ok {
		return nil, false
	}
	return e.state, true
}

// rotateLocked advances the seed epoch and flushes the cache (every
// entry is keyed to an older epoch). Callers hold c.mu.
func (c *sketchCache) rotateLocked() {
	c.epoch++
	c.lookups = 0
	c.m = make(map[cacheKey]*cacheEntry)
	c.lru.Init()
}

// put inserts a built state, evicting least-recently-used entries
// beyond capacity. An entry already present under key wins (a
// concurrent builder got there first); the loser is dropped.
func (c *sketchCache) put(key cacheKey, state bobState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; ok {
		return
	}
	e := &cacheEntry{key: key, state: state}
	e.elem = c.lru.PushFront(e)
	c.m[key] = e
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		victim := back.Value.(*cacheEntry)
		c.removeLocked(victim)
	}
}

func (c *sketchCache) removeLocked(e *cacheEntry) {
	c.lru.Remove(e.elem)
	delete(c.m, e.key)
}

// invalidateMatrix drops every entry of the named matrices (all
// generations, kinds, fingerprints, and epochs).
func (c *sketchCache) invalidateMatrix(names ...string) {
	if len(names) == 0 {
		return
	}
	drop := make(map[string]bool, len(names))
	for _, n := range names {
		drop[n] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*cacheEntry)
		if drop[e.key.matrix] {
			c.removeLocked(e)
		}
	}
}

// refreshMatrix migrates the named matrix's cached states across a row
// update: every entry keyed to (gen, oldSub) whose state advance
// succeeds is re-keyed to newSub in place (keeping its LRU position);
// entries that cannot advance — or that are keyed to a stale
// generation or sub-version — are dropped. advance runs under the
// cache lock: it recomputes only the update's touched rows, and
// holding the lock keeps a concurrent miss from rebuilding the same
// state redundantly while the migration is mid-flight.
func (c *sketchCache) refreshMatrix(matrix string, gen, oldSub, newSub uint64, advance func(kind string, st bobState) (bobState, bool)) (refreshed, dropped int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*cacheEntry)
		if e.key.matrix != matrix {
			continue
		}
		if e.key.gen == gen && e.key.sub == newSub {
			// A concurrent miss already built this state against the new
			// sub-version (the registry entry is published before this
			// sweep runs): it is valid as-is — keep it.
			continue
		}
		if e.key.gen != gen || e.key.sub != oldSub {
			c.removeLocked(e)
			dropped++
			continue
		}
		st, ok := advance(e.key.kind, e.state)
		if !ok {
			c.removeLocked(e)
			dropped++
			continue
		}
		nk := e.key
		nk.sub = newSub
		if _, taken := c.m[nk]; taken {
			// Lost the race to a concurrent fresh build under the new
			// sub-version; keeping both would orphan one of them, so the
			// already-installed entry wins and the migration is dropped.
			c.removeLocked(e)
			dropped++
			continue
		}
		delete(c.m, e.key)
		e.key = nk
		e.state = st
		c.m[nk] = e
		refreshed++
	}
	return refreshed, dropped
}

// CacheStats is a snapshot of the sketch cache's counters.
type CacheStats struct {
	// Hits counts lookups that found a precomputed Bob state.
	Hits int64 `json:"hits"`
	// Misses counts lookups that had to build the state fresh.
	Misses int64 `json:"misses"`
	// Entries is the number of currently retained states.
	Entries int `json:"entries"`
	// Bytes is the summed in-memory size of the retained states.
	Bytes int64 `json:"bytes"`
	// SeedEpoch is the current seed epoch (see Config.SeedRotateEvery).
	SeedEpoch uint64 `json:"seed_epoch"`
}

func (c *sketchCache) snapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Bytes are summed live: lazily built parts of a state (the nested
	// lp sketches of an hh entry) would make an insert-time figure go
	// stale.
	var bytes int64
	for _, e := range c.m {
		bytes += e.state.Bytes()
	}
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Entries:   len(c.m),
		Bytes:     bytes,
		SeedEpoch: c.epoch,
	}
}
