package gateway

import (
	"context"
	"errors"
	"net/http"
	"sort"
	"sync"
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
//   - a matrix's st.mu IS its commit order. Writers hold it across
//     their replica legs, so log-append order equals send order;
//   - the apply loop never contacts a backend without first reserving
//     its send slot (st.sending) under st.mu, so a background drain can
//     never interleave with a commit leg or an in-line catch-up to the
//     same backend — writers skip reserved backends, and drains skip
//     backends a writer could pick only while holding st.mu;
//   - every full reseed of a placed matrix goes through seedReplica,
//     which takes the same reservation.
//
// A reseed stamps the backend's applied entry to the snapshot version
// it uploaded — an unconditional overwrite, not a monotone advance,
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
// struct is stable per name — placement installs reset its fields in
// place (resetLocked) rather than replacing the pointer, so a drain
// holding a reservation always releases it on the state routing reads.
type matrixUpd struct {
	mu   sync.Mutex
	head version
	// log holds the committed updates with seq in (logStart, head.seq];
	// log[i].seq == logStart+1+i. Entries past Config.UpdateLogMax are
	// trimmed from the front, advancing logStart — replicas behind it
	// need a full reseed rather than a replay.
	log      []logEntry
	logStart uint64
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
// In-flight drains keep their sending slots (they clear them on exit)
// and detect the epoch change before sending anything stale (see
// runDrain).
func (st *matrixUpd) resetLocked(ver version, ids []string) {
	st.head = ver
	st.log = nil
	st.logStart = 0
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

// updState returns the matrix's update state, creating it from the
// current placement on first touch; nil when the matrix is not placed.
// The placement paths always install state explicitly (resetUpdState),
// so the lazy branch only covers matrices placed before the state map
// existed — and stamps every replica at the table head, which is what
// a just-installed placement means.
func (g *Gateway) updState(name string) *matrixUpd {
	g.mu.Lock()
	defer g.mu.Unlock()
	if st, ok := g.upd[name]; ok {
		return st
	}
	pm, ok := g.matrices[name]
	if !ok {
		return nil
	}
	st := newMatrixUpd()
	st.resetLocked(pm.ver, pm.replicas)
	g.upd[name] = st
	return st
}

// resetUpdState installs fresh update state for a wholesale placement.
func (g *Gateway) resetUpdState(name string, ver version, ids []string) {
	g.mu.Lock()
	st := g.upd[name]
	if st == nil {
		st = newMatrixUpd()
		g.upd[name] = st
	}
	g.mu.Unlock()
	st.mu.Lock()
	st.resetLocked(ver, ids)
	st.mu.Unlock()
}

// setApplied stamps a backend's applied entry after a full reseed — an
// unconditional overwrite (see the file comment).
func (g *Gateway) setApplied(name, id string, v version) {
	st := g.updState(name)
	if st == nil {
		return
	}
	st.mu.Lock()
	st.setAppliedLocked(id, v)
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
}

// reseedUploadTimeout bounds one apply-loop full-wire reseed upload.
const reseedUploadTimeout = 10 * time.Second

// errEpochChanged aborts a replay whose matrix was wholesale replaced
// under it.
var errEpochChanged = errors.New("gateway: placement epoch changed under a log replay")

// replay is the one loop that sends log entries: b gets entries in
// order, each send bounded by ProbeTimeout, and its applied entry is
// kept in step — advanced after each ack, zeroed by a send that got no
// answer (see rowupdate.go). Callers own b's send slot: held says they
// hold st.mu itself (an in-line catch-up); a drain holds only the
// reservation, so the vector is touched — and the epoch re-checked —
// under st.mu per entry.
func (g *Gateway) replay(ctx context.Context, st *matrixUpd, name string, b *backend, epoch uint64, entries []logEntry, held bool) error {
	for _, ent := range entries {
		sendCtx, cancel := context.WithTimeout(ctx, g.cfg.ProbeTimeout)
		_, err := b.client.UpdateRows(sendCtx, name, service.UpdateRequest{Updates: ent.ups, Delta: ent.delta, Key: ent.seq})
		cancel()
		if !held {
			st.mu.Lock()
		}
		switch {
		case st.head.epoch != epoch:
			err = errEpochChanged
		case err == nil:
			st.advanceAppliedLocked(b.id, version{epoch: epoch, seq: ent.seq})
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
// calling. Reports whether the backend reached the head.
func (g *Gateway) catchUpLocked(ctx context.Context, st *matrixUpd, name string, b *backend) bool {
	for st.sending[b.id] {
		st.slotFreed.Wait()
	}
	pending, ok := st.pendingLocked(st.applied[b.id])
	if !ok {
		return false // needs a full reseed; that is the apply loop's job
	}
	if err := g.replay(ctx, st, name, b, st.head.epoch, pending, true); err != nil {
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
// log, a full reseed (nil entries) where it is not.
func (g *Gateway) drainMatrix(name string) {
	_, reps, err := g.replicaSnapshot(name)
	if err != nil {
		return
	}
	st := g.updState(name)
	if st == nil {
		return
	}
	var lagging []*backend
	var entries [][]logEntry
	st.mu.Lock()
	epoch := st.head.epoch
	for _, b := range reps {
		av := st.applied[b.id]
		if av.AtLeast(st.head) || !b.eligible() || !st.reserveLocked(b.id) {
			continue
		}
		pending, _ := st.pendingLocked(av)
		lagging = append(lagging, b)
		entries = append(entries, append([]logEntry(nil), pending...))
	}
	st.mu.Unlock()
	_, _ = fanout(lagging, func(i int, b *backend) error {
		g.runDrain(name, st, b, epoch, entries[i])
		return nil
	})
}

// runDrain executes one backend's drain job while holding its send
// reservation. A 404 mid-replay (the backend lost the matrix) falls
// back to a full reseed, and so does an epoch change under the drain (a
// wholesale placement replaced the matrix): reseeding from the current
// table keeps a stale patch from surviving on top of the replacement's
// upload. Any other failure leaves the replica lagging for the next
// pass.
func (g *Gateway) runDrain(name string, st *matrixUpd, b *backend, epoch uint64, entries []logEntry) {
	defer st.release(b.id)
	if len(entries) == 0 {
		g.reseedLagging(name, b)
		return
	}
	err := g.replay(g.baseCtx, st, name, b, epoch, entries, false)
	var apiErr *service.APIError
	switch {
	case err == nil:
	case err == errEpochChanged, errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound:
		g.reseedLagging(name, b)
	default:
		b.noteFailover(err, isTransportLevel(err))
	}
}

// reseedLagging re-seeds a backend whose log replay is impossible
// (trimmed window, epoch change, lost copy). Callers hold the backend's
// send reservation.
func (g *Gateway) reseedLagging(name string, b *backend) {
	ctx, cancel := context.WithTimeout(g.baseCtx, reseedUploadTimeout)
	defer cancel()
	switch _, err := g.seedReplica(ctx, name, b, true); {
	case err == nil:
		g.asyncReseeds.Add(1)
	case !errors.Is(err, errNotSeeded):
		b.noteFailover(err, isTransportLevel(err))
	}
}
