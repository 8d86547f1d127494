package gateway

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/service"
)

// Replica convergence: the per-matrix ordered update log, the
// per-backend applied-(epoch, seq) vector, and the background apply loop
// that brings lagging replicas back to the log head.
//
// A committed row update lands in the matrix's ordered log; the replicas
// that acked it advance their applied entry, and everyone else — a
// replica that was down, shedding, reserved, or simply beyond the write
// quorum — stays placed and lags. The apply loop replays the pending
// log suffix to it in the background, or reseeds the full retained wire
// when a replay cannot cover the gap (trimmed log, epoch change, lost
// copy, or a zeroed entry marking unknown state). The applied vector is
// also what SLA routing reads: a replica is eligible for a consistency
// level exactly when its entry is at or past the level's required
// version (see sla.go).
//
// Ordering discipline:
//
//   - a matrix's st.mu IS its commit order. Every writer of the name —
//     a row update, a put, a delete — holds it across its replica legs
//     (lockWriter), so log-append order equals send order and two writes
//     never overlap on a replica. A put or a delete also waits out every
//     send reservation first, so a reserved state is never reset or
//     dropped under its holder;
//   - the apply loop never contacts a backend without first reserving
//     its send slot (st.sending) under st.mu, so a background drain can
//     never interleave with a commit leg or an in-line catch-up to the
//     same backend — writers skip reserved backends, and drains skip
//     backends a writer could pick only while holding st.mu;
//   - every full copy shipped to a placed matrix's replica goes through
//     shipCopy.
//
// A shipped copy stamps the backend's applied entry to the version it
// uploaded — an unconditional overwrite, not a monotone advance,
// because a full upload really can move a replica's content backwards
// (the apply loop then drains the difference forward again, and the
// backends' per-generation idempotency keys keep the replay exact).

// logEntry is one committed row update in a matrix's ordered log.
type logEntry struct {
	seq       uint64 // version.seq the commit assigned
	ups       []service.RowUpdate
	delta     bool
	committed time.Time
}

// dedupeRec remembers one client-keyed committed update so a retried
// PATCH returns the original reply instead of applying twice.
type dedupeRec struct {
	rep service.UpdateReply
	ver version
}

// clientDedupeWindow bounds the per-matrix ring of remembered client
// idempotency keys. It needs to cover the retry window of in-flight
// writers, not history: a retry arrives within the client's timeout.
const clientDedupeWindow = 128

// matrixUpd is one matrix's update-ordering state: the log head, the
// bounded ordered log, the per-backend applied vector, and the send
// reservations that keep concurrent senders off the same backend. The
// struct lives from a name's first write until a write leaves the name
// unplaced (a delete, a failed put of a new name): a replacement resets
// its fields in place (resetLocked) rather than replacing the pointer.
type matrixUpd struct {
	mu   sync.Mutex
	head version
	// log holds the committed updates with seq in (logStart, head.seq];
	// log[i].seq == logStart+1+i. Entries past Config.UpdateLogMax are
	// trimmed from the front, advancing logStart — replicas behind it
	// need a full reseed rather than a replay.
	log      []logEntry
	logStart uint64
	// logLen mirrors len(log) for readers that must not take mu, which
	// writers hold across replica legs (Stats, the metrics scrape).
	logLen atomic.Int64
	// applied maps backend id → the version its copy has reached.
	applied map[string]version
	// sending marks backends with a replay or reseed in flight;
	// slotFreed (on mu) is signalled at every release.
	sending   map[string]bool
	slotFreed sync.Cond
	// recent/recentKeys are the client-idempotency dedupe ring (FIFO).
	recent     map[uint64]dedupeRec
	recentKeys []uint64
}

func newMatrixUpd() *matrixUpd {
	st := &matrixUpd{}
	st.slotFreed.L = &st.mu
	return st
}

func (st *matrixUpd) setAppliedLocked(id string, v version) {
	if st.applied == nil {
		st.applied = make(map[string]version)
	}
	st.applied[id] = v
}

// advanceAppliedLocked moves a backend's applied entry forward only —
// the form every patch ack uses (a stale ack must not regress a vector
// a newer send already advanced).
func (st *matrixUpd) advanceAppliedLocked(id string, v version) {
	if st.applied[id].Less(v) {
		st.setAppliedLocked(id, v)
	}
}

// reserveLocked claims a backend's send slot; false means another
// sender (a drain, a reseed) is already on it.
func (st *matrixUpd) reserveLocked(id string) bool {
	if st.sending[id] {
		return false
	}
	if st.sending == nil {
		st.sending = make(map[string]bool)
	}
	st.sending[id] = true
	return true
}

func (st *matrixUpd) release(id string) {
	st.mu.Lock()
	delete(st.sending, id)
	st.mu.Unlock()
	st.slotFreed.Broadcast()
}

// resetLocked reinstalls the state after a wholesale placement: a fresh
// epoch head, an empty log, every target replica stamped at the head.
// The placing writer has waited out every send reservation.
func (st *matrixUpd) resetLocked(ver version, ids []string) {
	st.head = ver
	st.log = nil
	st.logStart = 0
	st.logLen.Store(0)
	st.applied = make(map[string]version, len(ids))
	for _, id := range ids {
		st.applied[id] = ver
	}
	st.recent = nil
	st.recentKeys = nil
}

// pendingLocked returns the log suffix a backend at av still needs and
// whether a replay can cover it at all (false → full reseed: the
// backend is on another epoch or behind the trimmed window). The
// returned slice aliases the log; copy it before releasing st.mu.
func (st *matrixUpd) pendingLocked(av version) ([]logEntry, bool) {
	if av.AtLeast(st.head) {
		return nil, true
	}
	if av.epoch != st.head.epoch || av.seq < st.logStart {
		return nil, false
	}
	return st.log[av.seq-st.logStart:], true
}

// rememberLocked records a client-keyed committed update in the dedupe
// ring, evicting FIFO past the window.
func (st *matrixUpd) rememberLocked(key uint64, rep service.UpdateReply, ver version) {
	if key == 0 {
		return
	}
	if st.recent == nil {
		st.recent = make(map[uint64]dedupeRec, clientDedupeWindow)
	}
	if _, dup := st.recent[key]; dup {
		return
	}
	st.recent[key] = dedupeRec{rep: rep, ver: ver}
	st.recentKeys = append(st.recentKeys, key)
	if len(st.recentKeys) > clientDedupeWindow {
		delete(st.recent, st.recentKeys[0])
		st.recentKeys = st.recentKeys[1:]
	}
}

// updState returns the matrix's update state; nil when no write has
// installed one. Every placed matrix has one.
func (g *Gateway) updState(name string) *matrixUpd {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.upd[name]
}

// isCurrent reports whether st is still name's update state. A state
// is dropped only by a writer holding st.mu with no send slot reserved,
// so the answer holds while the caller holds st.mu or a slot on st.
func (g *Gateway) isCurrent(name string, st *matrixUpd) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.upd[name] == st
}

// lockWriter takes name's commit lock and returns its update state with
// st.mu held, installing one for a new name; unlockWriter releases it.
// whole (a put, a delete) also waits until no send slot is reserved. A
// state dropped while the writer waited sends it back to the current.
func (g *Gateway) lockWriter(name string, whole bool) *matrixUpd {
	for {
		g.mu.Lock()
		st := g.upd[name]
		if st == nil {
			st = newMatrixUpd()
			g.upd[name] = st
		}
		g.mu.Unlock()
		st.mu.Lock() //mp:lockio-ok audited: the per-matrix commit lock is held across the replica legs by design — log-append order must equal send order (see the ordering discipline above)
		for whole && len(st.sending) > 0 {
			st.slotFreed.Wait()
		}
		if g.isCurrent(name, st) {
			return st
		}
		st.mu.Unlock()
	}
}

// unlockWriter releases the commit lock, first dropping the state of a
// name the write left unplaced, so writers waiting on it start over.
func (g *Gateway) unlockWriter(name string, st *matrixUpd) {
	g.mu.Lock()
	if _, placed := g.matrices[name]; !placed && g.upd[name] == st {
		delete(g.upd, name)
	}
	g.mu.Unlock()
	st.mu.Unlock()
}

// appendLogLocked records one committed update at ver and trims the
// log to the configured window.
func (g *Gateway) appendLogLocked(st *matrixUpd, ver version, ups []service.RowUpdate, delta bool) {
	st.head = ver
	st.log = append(st.log, logEntry{seq: ver.seq, ups: ups, delta: delta, committed: time.Now()})
	if n := len(st.log) - g.cfg.UpdateLogMax; n > 0 {
		st.logStart = st.log[n-1].seq
		st.log = append(st.log[:0:0], st.log[n:]...)
	}
	st.logLen.Store(int64(len(st.log)))
}

// reseedUploadTimeout bounds one apply-loop full-wire reseed upload.
const reseedUploadTimeout = 10 * time.Second

// replay is the one loop that sends log entries: b gets entries in
// order, each send bounded by ProbeTimeout, and its applied entry is
// kept in step — advanced after each ack, zeroed by a send that got no
// answer (see rowupdate.go). Callers own b's send slot: held says they
// hold st.mu itself (an in-line catch-up); a drain holds only the
// reservation, so the vector is touched under st.mu per entry. Either
// way no put can reset the log meanwhile.
func (g *Gateway) replay(ctx context.Context, st *matrixUpd, name string, b *backend, entries []logEntry, held bool) error {
	for _, ent := range entries {
		sendCtx, cancel := context.WithTimeout(ctx, g.cfg.ProbeTimeout)
		_, err := b.client.UpdateRows(sendCtx, name, service.UpdateRequest{Updates: ent.ups, Delta: ent.delta, Key: ent.seq})
		cancel()
		if !held {
			st.mu.Lock()
		}
		switch {
		case err == nil:
			st.advanceAppliedLocked(b.id, version{epoch: st.head.epoch, seq: ent.seq})
		case isTransportLevel(err):
			st.setAppliedLocked(b.id, version{})
		}
		if !held {
			st.mu.Unlock()
		}
		if err != nil {
			return err
		}
		g.asyncApplied.Add(1)
	}
	return nil
}

// catchUpLocked replays a backend's pending log suffix in line. Callers
// hold st.mu — the replay is thereby serialized against concurrent
// writers, which is exactly what makes in-line catch-up safe to
// interleave with commits. A drain already on the backend is waited out
// (it is doing the same work) — with st.mu released, so commitLocked,
// which must not let another writer in, skips reserved backends before
// calling. A state a delete dropped meanwhile (a reader looked it up
// before the delete) replays nothing: its log is not the name's any
// more. Reports whether the backend reached the head.
func (g *Gateway) catchUpLocked(ctx context.Context, st *matrixUpd, name string, b *backend) bool {
	for st.sending[b.id] {
		st.slotFreed.Wait()
	}
	pending, ok := st.pendingLocked(st.applied[b.id])
	if !ok || !g.isCurrent(name, st) {
		return false // a full reseed is the apply loop's job
	}
	if err := g.replay(ctx, st, name, b, pending, true); err != nil {
		b.noteFailover(err, isTransportLevel(err))
		return false
	}
	return true
}

// wakeApply nudges the apply loop without blocking (a full wake
// channel already guarantees a pass is coming).
func (g *Gateway) wakeApply() {
	select {
	case g.applyWake <- struct{}{}:
	default:
	}
}

// applyLoop is the background drainer: on every wake (a commit that
// left a replica behind, a backend's re-admission) and every
// ProbeInterval tick it walks the placement table and brings lagging
// replicas to the log head — replaying the pending log suffix where it
// can, reseeding the full retained wire where it cannot.
func (g *Gateway) applyLoop() {
	defer g.probeWG.Done()
	tick := time.NewTicker(g.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-g.closed:
			return
		case <-g.applyWake:
		case <-tick.C:
		}
		g.drainAll()
	}
}

// drainAll runs one drain pass over every placed matrix.
func (g *Gateway) drainAll() {
	g.mu.Lock()
	names := make([]string, 0, len(g.matrices))
	for name := range g.matrices {
		names = append(names, name)
	}
	g.mu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		if g.isClosed() {
			return
		}
		g.drainMatrix(name)
	}
}

// drainMatrix collects the lagging replicas of one matrix under st.mu
// — reserving each one's send slot — and drains them concurrently
// outside it: a log replay where the pending suffix is still in the
// log, a full reseed (nil entries) where it is not. The replica set is
// read under st.mu too, so it is the last put's, not one it replaced.
func (g *Gateway) drainMatrix(name string) {
	st := g.updState(name)
	if st == nil {
		return
	}
	var lagging []*backend
	var entries [][]logEntry
	st.mu.Lock()
	if _, reps, err := g.replicaSnapshot(name); err == nil && g.isCurrent(name, st) {
		for _, b := range reps {
			av := st.applied[b.id]
			if av.AtLeast(st.head) || !b.eligible() || !st.reserveLocked(b.id) {
				continue
			}
			pending, _ := st.pendingLocked(av)
			lagging = append(lagging, b)
			entries = append(entries, append([]logEntry(nil), pending...))
		}
	}
	st.mu.Unlock()
	_, _ = fanout(lagging, func(i int, b *backend) error {
		g.runDrain(name, st, b, entries[i])
		return nil
	})
}

// runDrain executes one backend's drain job while holding its send
// reservation: a log replay, or a full reseed where no replay can cover
// the gap (trimmed window, epoch change: nil entries) or the backend
// answers 404 mid-replay (it lost the matrix). Any other failure leaves
// the replica lagging for the next pass.
func (g *Gateway) runDrain(name string, st *matrixUpd, b *backend, entries []logEntry) {
	defer st.release(b.id)
	if len(entries) > 0 {
		switch err := g.replay(g.baseCtx, st, name, b, entries, false); {
		case err == nil:
			return
		case !isNotFound(err):
			b.noteFailover(err, isTransportLevel(err))
			return
		}
	}
	ctx, cancel := context.WithTimeout(g.baseCtx, reseedUploadTimeout)
	defer cancel()
	switch _, err := g.seedReplica(ctx, name, b, true); {
	case err == nil:
		g.asyncReseeds.Add(1)
	case !errors.Is(err, errNotSeeded):
		b.noteFailover(err, isTransportLevel(err))
	}
}
