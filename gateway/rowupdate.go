package gateway

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/intmat"
	"repro/service"
)

// Replicated row updates: PATCH /v1/matrices/{name}/rows at the gateway
// applies a sparse row patch to the replicas of a placed matrix and —
// critically for the repair path — retains the patched wire copy in
// the placement table in the same commit. Every later repair
// (estimate-path 404 re-seed, probe resync, rebalance move, apply-loop
// reseed) re-uploads from that retained copy, so a replica repaired
// after an update comes back holding the updated matrix, not the bytes
// of the original upload. (Retaining only the upload-time copy was the
// bug class this design closes: updates that landed after the copy was
// taken were silently rolled back by the next repair. The
// update-then-repair regression test pins the fix.)
//
// There is one commit path (commitLocked) and one knob,
// Config.WriteQuorum: 0 waits for every live replica, W > 0 for W acks.
// Either way a replica that does not ack stays in the placement and
// lags — SLA routing reads around it by its applied vector, and the
// apply loop (async.go) brings it back to the log head. Per leg:
//
//   - an ack advances the replica's applied entry to the new version;
//   - an answered 404 means the replica lost its copy — it is repaired
//     in line with a full upload of the *patched* wire and counts as an
//     ack;
//   - an answered 429/502/503 means the replica is alive but shedding
//     or closing — it lags at its current version and is replayed later;
//   - no answer at all (a transport-level failure) leaves the replica's
//     state unknown: the patch may have applied, and a durable backend
//     would carry it across a restart where the engine's idempotency
//     keys do not survive. Its applied entry is zeroed, so it is
//     reseeded from the retained wire, never replayed over;
//   - any other answered rejection (400/409/…) means the patch itself is
//     suspect — the update is all-or-nothing: every leg that acked is
//     reverted to the retained pre-update wire and the request fails.

// UpdateRows applies a row update to a placed matrix and atomically
// retains the patched wire copy for future repairs (see the file
// comment for the per-leg semantics). With Config.WriteQuorum 0 (the
// default) every live replica applies the patch before the call
// returns; with W > 0 the call commits once W replicas ack and the
// apply loop drains the rest (see async.go). Every write of a name —
// an update, a put, a delete — holds the name's commit lock across its
// replica legs (see lockWriter), so an update racing a put of the name
// applies before it or after it, on the copy the put left.
//
// Under an HTTP request (see NewHandler) the update takes the request's
// session — consistency levels apply to reads only — and on success the
// reply echoes MP-Session, when there is one, and the committed
// MP-Version, which a client can hand to another consumer as a read
// floor. A call with no request runs with no session.
func (g *Gateway) UpdateRows(ctx context.Context, name string, req service.UpdateRequest) (service.UpdateReply, error) {
	sess := sessionToken(ctx)
	rep, ver, err := g.updateRowsSLA(ctx, name, req, sess)
	if err == nil {
		echo(ctx, sess, ver.String())
	}
	return rep, err
}

// updateRowsSLA is UpdateRows plus the SLA bookkeeping: it also
// returns the committed version (the MP-Version response echo) and
// folds it into the session's read-my-writes floor.
func (g *Gateway) updateRowsSLA(ctx context.Context, name string, req service.UpdateRequest, sess string) (service.UpdateReply, version, error) {
	if g.isClosed() {
		return service.UpdateReply{}, version{}, ErrClosed
	}
	g.updates.Add(1)
	ups, err := req.Normalized()
	if err != nil {
		return service.UpdateReply{}, version{}, err
	}
	for {
		st := g.lockWriter(name, false)
		rep, ver, err := g.updateRowsLocked(ctx, st, name, req, ups, sess)
		if err == errSendSlotBusy {
			// Wait (st.mu released) for a send slot to come free, then
			// start over: another writer may have committed meanwhile.
			st.slotFreed.Wait()
		}
		g.unlockWriter(name, st)
		if err != errSendSlotBusy {
			return rep, ver, err
		}
	}
}

// errSendSlotBusy is commitLocked's verdict on an update that fell short
// only because a drain held the send slot of a live replica it needed;
// nothing of the update is left on any replica.
var errSendSlotBusy = errors.New("gateway: replica send slot busy")

// updateRowsLocked is one attempt at updateRowsSLA's commit. Callers
// hold st.mu.
func (g *Gateway) updateRowsLocked(ctx context.Context, st *matrixUpd, name string, req service.UpdateRequest, ups []service.RowUpdate, sess string) (service.UpdateReply, version, error) {
	// A replayed client idempotency key returns the remembered reply
	// instead of applying twice (the WithRetry double-apply fix: the
	// first attempt may have committed before its connection died).
	if req.Key != 0 {
		if rec, ok := st.recent[req.Key]; ok {
			g.sessions.noteWrite(sess, name, rec.ver)
			return rec.rep, rec.ver, nil
		}
	}
	pm, reps, err := g.replicaSnapshot(name)
	if err != nil {
		return service.UpdateReply{}, version{}, err
	}
	if len(reps) == 0 {
		return service.UpdateReply{}, version{}, fmt.Errorf("%w: matrix %q has no replica to update", ErrNoBackends, name)
	}
	newList, _, err := service.PatchRows(pm.list, ups, req.Delta)
	if err != nil {
		return service.UpdateReply{}, version{}, err
	}
	newVer := version{epoch: pm.ver.epoch, seq: pm.ver.seq + 1}
	// The backends dedupe on the update-log seq (canonical within the
	// placement generation), so a drain replaying this same entry after
	// a partial commit is exact, never double-applied.
	fwd := req
	fwd.Key = newVer.seq

	rep, err := g.commitLocked(ctx, st, name, pm, reps, ups, fwd, newList, newVer)
	if err != nil {
		return service.UpdateReply{}, version{}, err
	}
	st.rememberLocked(req.Key, rep, newVer)
	g.sessions.noteWrite(sess, name, newVer)
	return rep, newVer, nil
}

// commitLocked is the one commit path (see the file comment for the
// per-leg rules). Candidates are the replicas, in placement order, that
// are eligible and hold no send reservation. With WriteQuorum 0 every
// candidate is patched in one concurrent round and the update commits
// if any acked; with W > 0 the first W are, spares are tried only while
// acks fall short, and it commits on W acks (clamped to the replica
// count). Callers hold st.mu.
func (g *Gateway) commitLocked(ctx context.Context, st *matrixUpd, name string, pm *placedMatrix, reps []*backend, ups []service.RowUpdate, fwd service.UpdateRequest, newList *intmat.Sparse, newVer version) (service.UpdateReply, error) {
	w := g.cfg.WriteQuorum
	need := min(w, len(reps))
	var (
		acked      []*backend
		busy       bool // a live replica was skipped for its send reservation
		rep        service.UpdateReply
		fromRepair bool  // rep is a 404-repaired leg's synthesized reply
		hardErr    error // first answered rejection: triggers the revert
	)
	// A cancelled request stops before trying spares: every further leg
	// would end in an unknown state too.
	for next := 0; hardErr == nil && ctx.Err() == nil; {
		var round []*backend
		for ; next < len(reps) && (w == 0 || len(acked)+len(round) < need); next++ {
			b := reps[next]
			if !b.eligible() {
				continue // unhealthy: leave it lagging
			}
			if st.sending[b.id] {
				busy = true
				continue // a drain owns its send slot
			}
			// Bring a lagging candidate in line first so the patch
			// applies on top of its full log prefix.
			if st.applied[b.id].Less(st.head) && !g.catchUpLocked(ctx, st, name, b) {
				continue
			}
			round = append(round, b)
		}
		if len(round) == 0 {
			break
		}
		replies := make([]service.UpdateReply, len(round))
		errs, _ := fanout(round, func(i int, b *backend) error {
			var err error
			replies[i], err = b.client.UpdateRows(ctx, name, fwd)
			return err
		})
		for i, b := range round {
			err, repaired := errs[i], false
			if isNotFound(err) {
				// b lost its copy: repair it in line with the patched
				// list, which counts as an ack. A repair that got no
				// answer may have landed, so its error replaces the 404.
				info, rerr := g.shipCopy(ctx, st, name, b, newList, newVer, true)
				switch {
				case rerr == nil:
					g.repairs.Add(1)
					replies[i], repaired, err = service.UpdateReply{MatrixInfo: info, RowsApplied: len(ups)}, true, nil
				case isTransportLevel(rerr):
					err = rerr
				}
			}
			if err == nil {
				st.setAppliedLocked(b.id, newVer)
				// Prefer the reply of a leg that applied the patch: a
				// repaired leg's sub-version and cache counters describe
				// its full re-upload, not the update.
				if len(acked) == 0 || (fromRepair && !repaired) {
					rep, fromRepair = replies[i], repaired
				}
				acked = append(acked, b)
				continue
			}
			lagging, unknown := failoverable(err)
			if !lagging {
				if hardErr == nil {
					hardErr = err
				}
				continue
			}
			b.noteFailover(err, unknown)
			if unknown {
				st.setAppliedLocked(b.id, version{})
			}
		}
	}

	if hardErr != nil || len(acked) == 0 || len(acked) < need {
		// Not committed: converge every acked leg back to the retained
		// pre-update wire so no replica holds an uncommitted patch. A
		// leg the revert does not reach stays at the zero version —
		// never replayable — so the apply loop full-reseeds it.
		if len(acked) > 0 {
			g.updateReverts.Add(1)
		}
		for _, b := range acked {
			st.setAppliedLocked(b.id, version{})
			revCtx, cancel := context.WithTimeout(context.Background(), g.cfg.ProbeTimeout)
			_, _ = g.shipCopy(revCtx, st, name, b, pm.list, pm.ver, true)
			cancel()
		}
		g.wakeApply()
		switch {
		case hardErr != nil:
			return service.UpdateReply{}, fmt.Errorf("gateway: replicated update of %q rejected (reverted): %w", name, hardErr)
		case busy && ctx.Err() == nil:
			return service.UpdateReply{}, errSendSlotBusy
		case w > 0:
			return service.UpdateReply{}, fmt.Errorf("%w: update of %q reached %d of %d write-quorum acks", ErrNoBackends, name, len(acked), need)
		}
		return service.UpdateReply{}, fmt.Errorf("%w: no replica of %q accepted the update", ErrAllReplicasFailed, name)
	}

	// Commit: the patched wire becomes the retained copy in the same
	// table write that publishes the update — repairs and reseeds from
	// here on ship the post-update matrix.
	// The entry is rebuilt from the current one, so replica-set edits
	// made meanwhile (a rebalance, an eviction prune) are kept.
	rep.RowsApplied = len(ups)
	g.mu.Lock()
	npm := g.matrices[name].clone()
	npm.info, npm.list, npm.ver = rep.MatrixInfo, newList, newVer
	g.matrices[name] = npm
	g.mu.Unlock()
	g.appendLogLocked(st, newVer, ups, fwd.Delta)
	if len(acked) < len(reps) {
		g.wakeApply()
	}
	return rep, nil
}

// isTransportLevel classifies an update-leg error for the backend's
// health bookkeeping.
func isTransportLevel(err error) bool {
	var apiErr *service.APIError
	return !errors.As(err, &apiErr)
}

// isNotFound reports an answered 404: the backend does not hold the
// matrix.
func isNotFound(err error) bool {
	var apiErr *service.APIError
	return errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound
}
