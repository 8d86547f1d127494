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
// apply loop drains the rest (see async.go). Updates are serialized per
// matrix; a concurrent full replacement of the name wins with
// ErrConflict and the replicas are converged back to it.
func (g *Gateway) UpdateRows(ctx context.Context, name string, req service.UpdateRequest) (service.UpdateReply, error) {
	rep, _, err := g.updateRowsSLA(ctx, name, req, "")
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
	st := g.updState(name)
	if st == nil {
		return service.UpdateReply{}, version{}, fmt.Errorf("%w: %q", service.ErrMatrixNotFound, name)
	}
	st.mu.Lock() //mp:lockio-ok audited: the per-matrix commit lock is held across the replica legs by design — log-append order must equal send order (see async.go's ordering discipline)
	defer st.mu.Unlock()
	for {
		rep, ver, err := g.updateRowsLocked(ctx, st, name, req, ups, sess)
		if err != errSendSlotBusy {
			return rep, ver, err
		}
		// Wait (st.mu released) for a send slot to come free, then start
		// over: another writer may have committed meanwhile.
		st.slotFreed.Wait()
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
	if st.head.epoch != pm.ver.epoch {
		// A wholesale replacement installed its table entry and is
		// waiting on st.mu to reset this state: its upload owns the
		// name, and patching its content would corrupt it.
		return service.UpdateReply{}, version{}, fmt.Errorf("%w: %q", service.ErrConflict, name)
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

// patchLeg sends one replica its commit-path patch. A replica that
// lost the matrix (an answered 404) is repaired in line with the
// patched wire and reports repaired, with a reply synthesized from the
// upload. A repair upload that got no answer may have landed, so its
// error replaces the 404: the copy is then unknown, not merely lagging.
func (g *Gateway) patchLeg(ctx context.Context, b *backend, name string, fwd service.UpdateRequest, newList *intmat.Sparse, rows int) (rep service.UpdateReply, repaired bool, err error) {
	rep, err = b.client.UpdateRows(ctx, name, fwd)
	var apiErr *service.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		return rep, false, err
	}
	info, rerr := g.uploadTo(ctx, b, name, service.MatrixFromList(newList))
	if rerr != nil {
		if isTransportLevel(rerr) {
			err = rerr
		}
		return rep, false, err
	}
	g.repairs.Add(1)
	return service.UpdateReply{MatrixInfo: info, RowsApplied: rows}, true, nil
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
		repaired := make([]bool, len(round))
		errs, _ := fanout(round, func(i int, b *backend) error {
			var err error
			replies[i], repaired[i], err = g.patchLeg(ctx, b, name, fwd, newList, len(ups))
			return err
		})
		for i, b := range round {
			if errs[i] == nil {
				st.setAppliedLocked(b.id, newVer)
				// Prefer the reply of a leg that applied the patch: a
				// repaired leg's sub-version and cache counters describe
				// its full re-upload, not the update.
				if len(acked) == 0 || (fromRepair && !repaired[i]) {
					rep, fromRepair = replies[i], repaired[i]
				}
				acked = append(acked, b)
				continue
			}
			lagging, unknown := failoverable(errs[i])
			if !lagging {
				if hardErr == nil {
					hardErr = errs[i]
				}
				continue
			}
			b.noteFailover(errs[i], unknown)
			if unknown {
				st.setAppliedLocked(b.id, version{})
			}
		}
	}

	if hardErr != nil || len(acked) == 0 || len(acked) < need {
		// Not committed: converge every acked leg back to the retained
		// pre-update wire so no replica holds an uncommitted patch. A
		// leg unreachable mid-revert is stamped at the zero version —
		// never replayable — so the apply loop full-reseeds it.
		if len(acked) > 0 {
			g.updateReverts.Add(1)
		}
		for _, b := range acked {
			revCtx, cancel := context.WithTimeout(context.Background(), g.cfg.ProbeTimeout)
			_, rerr := g.uploadTo(revCtx, b, name, service.MatrixFromList(pm.list))
			cancel()
			if rerr != nil {
				st.setAppliedLocked(b.id, version{})
			} else {
				st.setAppliedLocked(b.id, pm.ver)
			}
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
	rep.RowsApplied = len(ups)
	if !g.installUpdate(name, pm, newList, rep.MatrixInfo, newVer) {
		g.convergeReplacement(name)
		return service.UpdateReply{}, fmt.Errorf("%w: %q", service.ErrConflict, name)
	}
	g.appendLogLocked(st, newVer, ups, fwd.Delta)
	if len(acked) < len(reps) {
		g.wakeApply()
	}
	return rep, nil
}

// convergeReplacement handles an update losing the copy-on-write race
// to a full replacement of the name: the replacement's wholesale
// upload is authoritative, but a replica it wrote *before* the update
// landed there would now be divergent. Re-upload the replacement's
// retained wire to every current replica, best-effort.
func (g *Gateway) convergeReplacement(name string) {
	cur, curReps, err := g.replicaSnapshot(name)
	if err != nil {
		return
	}
	_, _ = fanout(curReps, func(_ int, b *backend) error {
		syncCtx, cancel := context.WithTimeout(context.Background(), g.cfg.ProbeTimeout)
		defer cancel()
		_, err := g.uploadTo(syncCtx, b, name, service.MatrixFromList(cur.list))
		return err
	})
}

// isTransportLevel classifies an update-leg error for the backend's
// health bookkeeping.
func isTransportLevel(err error) bool {
	var apiErr *service.APIError
	return !errors.As(err, &apiErr)
}

// installUpdate publishes a committed update for name iff the table
// entry is still pm (compare half of the copy-on-write): the patched
// wire becomes the retained copy at version ver — the update-log head
// the commit assigned. Reports whether the swap happened.
func (g *Gateway) installUpdate(name string, pm *placedMatrix, newList *intmat.Sparse, info service.MatrixInfo, ver version) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if cur, ok := g.matrices[name]; !ok || cur != pm {
		return false
	}
	npm := pm.clone()
	npm.info = info
	npm.list = newList
	npm.ver = ver
	g.matrices[name] = npm
	return true
}
