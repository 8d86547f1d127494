package gateway

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/service"
)

// Consistency SLAs (the Pileus model): every estimate carries a
// consistency level, and routing picks the highest-utility replica
// among those whose applied version satisfies it. The version domain is
// the gateway's per-matrix (epoch, seq) pair — epoch advances on every
// wholesale placement install (a put, a chunked commit, a replacement),
// seq per committed row update within the epoch — mirroring the
// (generation, sub-version) keys the backends' WAL already assigns, so
// the two tiers agree on what "the same state" means.
//
//	eventual       any routable replica
//	monotonic      replicas at or past the session's last read
//	rmw            replicas that applied the session's own writes
//	bounded:<dur>  replicas missing no update committed ≥ dur ago
//	strong         replicas at the update-log head (the write quorum)
//
// Sessions are opaque client tokens (MP-Session); the gateway mints
// one when a session-dependent level arrives without one, and clients
// may equally bring their own.

// version is one point in a matrix's update history: the placement
// epoch and the update sequence number within it. The zero version
// precedes everything.
type version struct {
	epoch uint64
	seq   uint64
}

// Less orders versions: epoch first, then seq.
func (v version) Less(o version) bool {
	if v.epoch != o.epoch {
		return v.epoch < o.epoch
	}
	return v.seq < o.seq
}

// AtLeast reports v ≥ o.
func (v version) AtLeast(o version) bool { return !v.Less(o) }

// String renders "epoch.seq" — the MP-Version wire form.
func (v version) String() string { return fmt.Sprintf("%d.%d", v.epoch, v.seq) }

// Consistency is one SLA level.
type Consistency int

const (
	// ConsStrong requires the update-log head — the strongest (and
	// default) level; with WriteQuorum 0 every replica that acked the
	// last update satisfies it.
	ConsStrong Consistency = iota
	// ConsEventual accepts any routable replica.
	ConsEventual
	// ConsMonotonic requires the session's reads to never move
	// backwards.
	ConsMonotonic
	// ConsRMW requires the session's own writes to be visible.
	ConsRMW
	// ConsBounded requires every update committed at least Bound ago.
	ConsBounded
)

// String returns the level's wire token.
func (c Consistency) String() string {
	switch c {
	case ConsEventual:
		return "eventual"
	case ConsMonotonic:
		return "monotonic"
	case ConsRMW:
		return "rmw"
	case ConsBounded:
		return "bounded"
	default:
		return "strong"
	}
}

// SLA is one parsed consistency requirement.
type SLA struct {
	Level Consistency
	// Bound is the staleness bound for ConsBounded (ignored otherwise).
	Bound time.Duration
}

// ParseConsistency parses the ?consistency= grammar:
// "eventual" | "monotonic" | "rmw" | "bounded:<dur>" | "strong".
// The empty string selects strong — the pre-SLA behavior.
func ParseConsistency(s string) (SLA, error) {
	switch s {
	case "", "strong":
		return SLA{Level: ConsStrong}, nil
	case "eventual":
		return SLA{Level: ConsEventual}, nil
	case "monotonic":
		return SLA{Level: ConsMonotonic}, nil
	case "rmw":
		return SLA{Level: ConsRMW}, nil
	}
	if rest, ok := strings.CutPrefix(s, "bounded:"); ok {
		d, err := time.ParseDuration(rest)
		if err != nil || d < 0 {
			return SLA{}, fmt.Errorf("%w: bad staleness bound %q (want bounded:<duration>)", service.ErrBadRequest, rest)
		}
		return SLA{Level: ConsBounded, Bound: d}, nil
	}
	return SLA{}, fmt.Errorf("%w: unknown consistency %q (want eventual|monotonic|rmw|bounded:<dur>|strong)", service.ErrBadRequest, s)
}

// session is one client session's consistency state: per matrix, the
// highest version it has read and the highest it has written.
type session struct {
	lastRead  map[string]version
	lastWrite map[string]version
	touched   time.Time
}

// sessionStore tracks sessions by token with TTL garbage collection.
// Tokens are opaque: clients may mint their own, and the gateway mints
// one ("gws-<n>") when a session-dependent level arrives without one.
type sessionStore struct {
	mu   sync.Mutex
	m    map[string]*session
	ttl  time.Duration
	seq  uint64
	last time.Time // last GC sweep
}

func newSessionStore(ttl time.Duration) *sessionStore {
	return &sessionStore{m: make(map[string]*session), ttl: ttl}
}

// get returns the session for token, creating it if absent; an empty
// token mints a fresh one. The lazy TTL sweep runs at most once per
// ttl/4 so hot paths never pay a full-map scan per request.
func (ss *sessionStore) get(token string) (string, *session) {
	now := time.Now()
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if now.Sub(ss.last) > ss.ttl/4 {
		ss.last = now
		for tok, s := range ss.m {
			if now.Sub(s.touched) > ss.ttl {
				delete(ss.m, tok)
			}
		}
	}
	if token == "" {
		ss.seq++
		token = fmt.Sprintf("gws-%d-%d", ss.seq, now.UnixNano())
	}
	s, ok := ss.m[token]
	if !ok {
		s = &session{lastRead: make(map[string]version), lastWrite: make(map[string]version)}
		ss.m[token] = s
	}
	s.touched = now
	return token, s
}

// len reports the live session count (for the mpgw_sessions gauge).
func (ss *sessionStore) len() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return len(ss.m)
}

// noteRead folds a served version into the session's monotonic-read
// floor for the matrix, creating the session if the client minted its
// own token.
func (ss *sessionStore) noteRead(token, name string, v version) {
	if token == "" {
		return
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	s, ok := ss.m[token]
	if !ok {
		s = &session{lastRead: make(map[string]version), lastWrite: make(map[string]version)}
		ss.m[token] = s
	}
	if s.lastRead[name].Less(v) {
		s.lastRead[name] = v
	}
	s.touched = time.Now()
}

// noteWrite folds a committed write version into the session's
// read-my-writes floor for the matrix.
func (ss *sessionStore) noteWrite(token, name string, v version) {
	if token == "" {
		return
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	s, ok := ss.m[token]
	if !ok {
		s = &session{lastRead: make(map[string]version), lastWrite: make(map[string]version)}
		ss.m[token] = s
	}
	if s.lastWrite[name].Less(v) {
		s.lastWrite[name] = v
	}
	s.touched = time.Now()
}

// floor reads the session's requirement for one matrix under one level
// (the zero version when the session or matrix has no history).
func (ss *sessionStore) floor(token, name string, level Consistency) version {
	if token == "" {
		return version{}
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	s, ok := ss.m[token]
	if !ok {
		return version{}
	}
	switch level {
	case ConsMonotonic:
		return s.lastRead[name]
	case ConsRMW:
		return s.lastWrite[name]
	}
	return version{}
}

// slaOutcome classifies how one SLA-routed read was satisfied.
type slaOutcome int

const (
	slaHit     slaOutcome = iota // an eligible replica served directly
	slaCatchup                   // a replica was caught up in line first
	slaMiss                      // degraded to the freshest available replica
)

// slaCounters is the per-level × per-outcome tally behind the
// mpgw_sla_requests_total family and the /stats SLA table. Guarded by
// its own mutex — the counters are off the per-backend hot path.
type slaCounters struct {
	mu sync.Mutex
	n  [5][3]int64 // [Consistency][slaOutcome]
}

func (c *slaCounters) note(level Consistency, out slaOutcome) {
	c.mu.Lock()
	c.n[level][out]++
	c.mu.Unlock()
}

// SLAStats is the /stats view of one level's read outcomes.
type SLAStats struct {
	// Hits counts reads served directly by an eligible replica.
	Hits int64 `json:"hits"`
	// Catchups counts reads that first replayed pending updates to a
	// replica in line to make it eligible.
	Catchups int64 `json:"catchups"`
	// Misses counts reads degraded to the freshest available replica
	// after no replica could satisfy the level.
	Misses int64 `json:"misses"`
}

func (c *slaCounters) snapshot() map[string]SLAStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]SLAStats, 5)
	for lvl := ConsStrong; lvl <= ConsBounded; lvl++ {
		n := c.n[lvl]
		if n[slaHit]+n[slaCatchup]+n[slaMiss] == 0 {
			continue
		}
		out[lvl.String()] = SLAStats{Hits: n[slaHit], Catchups: n[slaCatchup], Misses: n[slaMiss]}
	}
	return out
}
