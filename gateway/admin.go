package gateway

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/service"
)

// probeLoop is the health prober: every ProbeInterval tick it probes
// each backend whose backoff window has elapsed, one goroutine per
// backend — a slow probe or resync of one backend must not delay the
// others' probes. Each probe goroutine is tracked by probeWG (Close
// waits for it, after cancelling its context through baseCtx), and a
// per-backend in-flight flag keeps ticks from stacking probes on a
// slow backend. A failing backend is demoted to unhealthy and probed
// on an exponential backoff (ProbeInterval·2^failures, capped at
// ProbeBackoffMax); a succeeding one is resynced (see resyncBackend)
// and re-admitted.
func (g *Gateway) probeLoop() {
	defer g.probeWG.Done()
	tick := time.NewTicker(g.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-g.closed:
			return
		case now := <-tick.C:
			g.mu.Lock()
			due := make([]*backend, 0, len(g.backends))
			for _, b := range g.backends {
				b.mu.Lock()
				if !b.probing && !now.Before(b.nextProbe) {
					b.probing = true
					due = append(due, b)
				}
				b.mu.Unlock()
			}
			g.mu.Unlock()
			for _, b := range due {
				g.probeWG.Add(1)
				go func(b *backend) {
					defer g.probeWG.Done()
					g.probeBackend(b)
					b.mu.Lock()
					b.probing = false
					b.mu.Unlock()
				}(b)
			}
		}
	}
}

// probeBackend pings one backend's stats endpoint and updates its
// health state. An unhealthy backend that answers is resynced —
// re-seeded with every matrix placed on it that it no longer holds —
// before it is re-admitted, so a restarted (empty) backend returns to
// rotation already serving its share.
func (g *Gateway) probeBackend(b *backend) {
	b.mu.Lock()
	demotionsBefore := b.demotions
	b.mu.Unlock()
	ctx, cancel := context.WithTimeout(g.baseCtx, g.cfg.ProbeTimeout)
	_, err := b.client.Stats(ctx)
	cancel()
	now := time.Now()
	b.mu.Lock()
	wasHealthy := b.healthy
	if err != nil {
		b.healthy = false
		b.consecFails++
		b.lastErr = err.Error()
		backoff := g.cfg.ProbeInterval << min(b.consecFails, 16)
		if backoff > g.cfg.ProbeBackoffMax || backoff <= 0 {
			backoff = g.cfg.ProbeBackoffMax
		}
		// Deterministic per-backend jitter (±25%, seeded from the
		// backend key — see newBackend) de-correlates the re-probe
		// schedules of backends that failed together: a fleet-wide blip
		// would otherwise put every backend on the same
		// ProbeInterval·2^fails schedule, and their recovery probes —
		// each followed by a resync re-seeding every placed matrix —
		// would land as a thundering herd.
		backoff = time.Duration(float64(backoff) * (0.75 + 0.5*b.jfrac))
		b.nextProbe = now.Add(backoff)
		b.mu.Unlock()
		return
	}
	b.consecFails = 0
	b.nextProbe = now.Add(g.cfg.ProbeInterval)
	b.mu.Unlock()
	if !wasHealthy {
		g.resyncBackend(b)
	}
	b.mu.Lock()
	// Re-admit only if no transport failure demoted the backend while
	// the probe (and possibly a long resync) was in flight: the
	// success observed before a crash must not overwrite the fresher
	// demotion. The next tick re-probes.
	if b.demotions == demotionsBefore {
		b.healthy = true
		b.lastErr = ""
	}
	b.mu.Unlock()
	if !wasHealthy {
		// Whatever the backend missed while it was away is the apply
		// loop's to replay or reseed; do not make it wait out a tick.
		g.wakeApply()
	}
}

// resyncBackend reconciles a returning backend with the placement
// table: matrices placed on it that it does not hold (it restarted
// with an empty in-memory registry) are re-uploaded from the gateway's
// retained wire forms, and matrices it holds that are no longer placed
// on it (they were re-placed or replaced while it was away) are
// deleted. A backend that restarted with a -data-dir recovers its
// placements from its own durable state, so its resync finds nothing
// missing — Resyncs advances while Repairs and ReseedBytes do not,
// which is how the stats distinguish disk recovery from gateway
// re-seeding. Best-effort: a failure leaves the backend to the
// estimate path's per-query repair.
func (g *Gateway) resyncBackend(b *backend) {
	ctx, cancel := context.WithTimeout(g.baseCtx, 30*time.Second)
	defer cancel()
	held, err := b.client.Matrices(ctx)
	if err != nil {
		return
	}
	g.resyncs.Add(1)
	holds := make(map[string]bool, len(held))
	for _, mi := range held {
		holds[mi.Name] = true
	}
	var missing []string
	g.mu.Lock()
	placed := make(map[string]bool, len(g.matrices))
	for name, pm := range g.matrices {
		if slices.Contains(pm.replicas, b.id) {
			placed[name] = true
			if !holds[name] {
				missing = append(missing, name)
			}
		}
	}
	g.mu.Unlock()
	for _, name := range missing {
		// A drain that owns the send slot converges the copy instead.
		if n, err := g.seedReplica(ctx, name, b, false); err == nil {
			g.repairs.Add(1)
			g.reseedBytes.Add(n)
		}
	}
	for _, mi := range held {
		if !placed[mi.Name] {
			_ = b.client.DeleteMatrix(ctx, mi.Name)
		}
	}
}

// Backends lists the pool with per-backend health, load, and counters,
// sorted by address.
func (g *Gateway) Backends() []BackendStatus {
	g.mu.Lock()
	placements := make(map[string]int)
	for _, pm := range g.matrices {
		for _, id := range pm.replicas {
			placements[id]++
		}
	}
	backends := make([]*backend, 0, len(g.backends))
	for _, id := range g.backendIDsLocked(nil) {
		backends = append(backends, g.backends[id])
	}
	g.mu.Unlock()
	out := make([]BackendStatus, 0, len(backends))
	for _, b := range backends {
		out = append(out, b.status(placements[b.id]))
	}
	return out
}

// AddBackend registers a new backend and rebalances: every matrix
// whose rendezvous top-R now includes the new backend gains a copy
// there (and drops the replica that fell out of its top-R). Adding an
// address already in the pool that is draining un-drains it — the
// admin path to reverse a drain.
func (g *Gateway) AddBackend(ctx context.Context, addr string) (RebalanceReport, error) {
	if g.isClosed() {
		return RebalanceReport{}, ErrClosed
	}
	if addr == "" {
		return RebalanceReport{}, fmt.Errorf("%w: empty backend addr", service.ErrBadRequest)
	}
	g.topoMu.Lock()
	defer g.topoMu.Unlock()
	g.mu.Lock()
	b, exists := g.backends[addr]
	if !exists {
		b = newBackend(addr, g.cfg.HTTPClient)
		b.dur = g.met.backendDur.With(addr)
		g.backends[addr] = b
	}
	g.mu.Unlock()
	b.mu.Lock()
	b.draining = false
	b.mu.Unlock()
	rep := g.rebalance(ctx)
	rep.Backend = addr
	rep.Action = "add"
	return rep, nil
}

// DrainBackend marks a backend draining — routing and new placements
// skip it — and rebalances every matrix placed on it onto the
// remaining eligible backends, deleting the drained copies. When the
// report shows zero failures the backend holds no placements and can
// be removed (or its process stopped) without losing a replica.
func (g *Gateway) DrainBackend(ctx context.Context, addr string) (RebalanceReport, error) {
	if g.isClosed() {
		return RebalanceReport{}, ErrClosed
	}
	g.topoMu.Lock()
	defer g.topoMu.Unlock()
	g.mu.Lock()
	b, ok := g.backends[addr]
	g.mu.Unlock()
	if !ok {
		return RebalanceReport{}, fmt.Errorf("%w: %q", ErrUnknownBackend, addr)
	}
	b.mu.Lock()
	b.draining = true
	b.mu.Unlock()
	rep := g.rebalance(ctx)
	rep.Backend = addr
	rep.Action = "drain"
	return rep, nil
}

// RemoveBackend drops a backend from the pool, rebalancing its
// placements away first (an implicit drain). The backend's process is
// not contacted beyond the data moves — stopping it is the operator's
// call.
func (g *Gateway) RemoveBackend(ctx context.Context, addr string) (RebalanceReport, error) {
	if g.isClosed() {
		return RebalanceReport{}, ErrClosed
	}
	g.topoMu.Lock()
	defer g.topoMu.Unlock()
	g.mu.Lock()
	b, ok := g.backends[addr]
	g.mu.Unlock()
	if !ok {
		return RebalanceReport{}, fmt.Errorf("%w: %q", ErrUnknownBackend, addr)
	}
	b.mu.Lock()
	b.draining = true
	b.mu.Unlock()
	rep := g.rebalance(ctx)
	g.mu.Lock()
	delete(g.backends, addr)
	g.mu.Unlock()
	rep.Backend = addr
	rep.Action = "remove"
	return rep, nil
}

// rebalance reconciles every placement with the current pool: each
// matrix's target set is recomputed (rendezvous top-R over the
// placeable backends), copies are uploaded to gained replicas and
// deleted from lost ones, and the table is updated per matrix as its
// moves complete. Matrices whose target set is unchanged are
// untouched. A matrix whose upload to a gained replica fails keeps its
// old placement for the replicas it still has — the next admin
// operation or probe-resync retries. Callers hold g.topoMu.
func (g *Gateway) rebalance(ctx context.Context) RebalanceReport {
	var rep RebalanceReport
	g.mu.Lock()
	names := make([]string, 0, len(g.matrices))
	for name := range g.matrices {
		names = append(names, name)
	}
	placeable := g.backendIDsLocked((*backend).placeable)
	g.mu.Unlock()

	for _, name := range names {
		g.mu.Lock()
		pm, ok := g.matrices[name]
		var targets []string
		if ok {
			targets = placeOn(rankBackends(placeable, name), g.cfg.Replication)
		}
		g.mu.Unlock()
		if !ok {
			continue // deleted concurrently
		}
		if equalSets(pm.replicas, targets) {
			continue
		}
		have := make(map[string]bool, len(pm.replicas))
		for _, id := range pm.replicas {
			have[id] = true
		}
		want := make(map[string]bool, len(targets))
		for _, id := range targets {
			want[id] = true
		}
		// Upload to gained replicas first so the replica count never
		// dips below what it was mid-move.
		kept := make([]string, 0, len(targets))
		for _, id := range pm.replicas {
			if want[id] {
				kept = append(kept, id)
			}
		}
		moved := false
		failed := false
		for _, id := range targets {
			if have[id] {
				continue
			}
			g.mu.Lock()
			b := g.backends[id]
			g.mu.Unlock()
			if b == nil {
				failed = true
				continue
			}
			// The gain's applied entry is stamped before the table swap
			// publishes it to the apply loop and SLA routing.
			if _, err := g.seedReplica(ctx, name, b, false); err != nil {
				failed = true
				continue
			}
			kept = append(kept, id)
			moved = true
		}
		if failed {
			rep.Failed++
			// The gains did not all land, so the losses are NOT deleted
			// — and they must stay in the table: they still hold live
			// copies, keep serving queries, and would otherwise be
			// reaped as stragglers by the next probe resync. The next
			// rebalance retries the move from this state.
			for _, id := range pm.replicas {
				if !want[id] {
					kept = append(kept, id)
				}
			}
		} else {
			// Drop the copies on replicas that fell out of the target
			// set only once every gain landed.
			for _, id := range pm.replicas {
				if want[id] {
					continue
				}
				g.mu.Lock()
				b := g.backends[id]
				g.mu.Unlock()
				if b != nil {
					delCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
					_ = b.client.DeleteMatrix(delCtx, name)
					cancel()
				}
				moved = true
			}
		}
		if moved || failed {
			g.mu.Lock()
			// Re-check the entry: a concurrent PutMatrix replaced it iff
			// the pointer changed, and its placement then already
			// reflects the new pool.
			if cur, ok := g.matrices[name]; ok && cur == pm {
				npm := pm.clone()
				npm.replicas = kept
				g.matrices[name] = npm
			}
			g.mu.Unlock()
		}
		if moved {
			rep.Moved++
			g.rebalanced.Add(1)
		}
	}
	return rep
}

// equalSets reports whether two replica lists contain the same ids
// (order-insensitive; placement order is not load-bearing).
func equalSets(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	in := make(map[string]bool, len(a))
	for _, id := range a {
		in[id] = true
	}
	for _, id := range b {
		if !in[id] {
			return false
		}
	}
	return true
}
