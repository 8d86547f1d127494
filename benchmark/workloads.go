package main

import (
	"crypto/sha256"
	"encoding/hex"

	"repro/internal/bitmat"
	"repro/internal/intmat"
	"repro/internal/rng"
	"repro/internal/workload"
	"repro/service"
)

// matrixName is the one served matrix every workload uploads.
const matrixName = "bench"

// Protocol parameters of the generated requests. lpEps is the served
// (1±ε) guarantee rel_error_p90 must stay under; the hh pair is sized
// so the planted entry of kinds_uncached is clearly ϕ-heavy (≈ 2ϕ of
// ‖C‖₁) and every background entry clearly below ϕ−ε.
const (
	lpEps   = 0.25
	linfEps = 0.25
	kappa   = 8.0
	hhPhi   = 0.1
	hhEps   = 0.05
)

// op is one generated request: a read of some protocol kind against a
// query matrix of the pool, or a row update.
type op struct {
	kind   string // a service kind, or "update"
	query  int    // index into instance.queries (reads only)
	req    service.Request
	update service.UpdateRequest
}

func (o *op) isUpdate() bool { return o.kind == "update" }

// instance is a workload's generated input: the served matrix, the
// query pool, and the op cycle the closed loop walks. Everything is a
// pure function of the seed; the servers only ever see these requests.
type instance struct {
	b       *intmat.Dense
	queries []*intmat.Dense
	ops     []op
	// probe is a pinned-seed lp and an exact read, outside the cycle:
	// the answers that must survive a crash and agree across tiers.
	probe [2]op
}

// spec is one workload: which servers it runs and how its input is made.
type spec struct {
	name     string
	why      string
	noCache  bool // mpserver -no-cache
	jsonWire bool // JSON instead of the binary wire format
	gateway  bool // mpgateway -replication 2 over two in-memory backends
	durable  bool // mpserver -data-dir <tmp> -fsync always: a restart recovers from disk
	generate func(seed uint64) *instance
}

var specs = []spec{
	{
		name:     "lp_cached",
		why:      "Every lp request hits the sketch cache, so service HTTP + codec + engine overhead + core Serve do all the work and core precompute, store, gateway do none.",
		generate: genLpCached,
	},
	{
		name:     "kinds_uncached",
		why:      "All seven kinds with -no-cache over JSON: every request pays Bob's matrix-dependent precompute and the cache is bypassed; the only end-to-end reading of the six non-lp kinds and the JSON codec.",
		noCache:  true,
		jsonWire: true,
		generate: genKindsUncached,
	},
	{
		name:     "update_durable",
		why:      "Half PATCH /rows, half reads with -fsync always: store WAL append + fsync, Engine.UpdateRows and cache revalidation do most of the work; ends with SIGKILL, restart, verify.",
		durable:  true,
		generate: genUpdateDurable,
	},
	{
		name:     "gateway_mixed",
		why:      "lp_cached's reads plus 20% row updates through mpgateway -replication 2: the difference to lp_cached is routing + backend hop, and updates wait for the slower of two replica legs.",
		gateway:  true,
		generate: genGatewayMixed,
	},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

func derive(seed uint64, labels ...string) *rng.RNG {
	return rng.New(seed).Derive(append([]string{"benchmark"}, labels...)...)
}

func lpRequest(a service.Matrix, seed uint64) service.Request {
	return service.Request{Matrix: matrixName, Kind: "lp", A: a, P: 1, Eps: lpEps, Seed: &seed}
}

func (in *instance) addRead(kind string, q int, wires []service.Matrix, seed uint64) {
	req := service.Request{Matrix: matrixName, Kind: kind, A: wires[q], Seed: &seed}
	switch kind {
	case "lp":
		req = lpRequest(wires[q], seed)
	case "l0sample":
		req.Eps = lpEps
	case "linf":
		req.Eps = linfEps
	case "linfkappa":
		req.Kappa = kappa
	case "hh":
		req.P, req.Phi, req.Eps = 1, hhPhi, hhEps
	}
	in.ops = append(in.ops, op{kind: kind, query: q, req: req})
}

func (in *instance) setProbe(wires []service.Matrix, seed uint64) {
	in.probe[0] = op{kind: "lp", req: lpRequest(wires[0], seed)}
	in.probe[1] = op{kind: "exact", req: service.Request{Matrix: matrixName, Kind: "exact", A: wires[0], Seed: &seed}}
}

// lpPool is the served matrix and query pool lp_cached and
// gateway_mixed share: the README sweep's shape (n = 512, B at density
// 0.2, queries at 0.02) and mpload's pool of 8. Queries are never cached
// server-side, so the pool size changes no layer's work; a short cycle
// is what lets every op repeat hundreds of times in a run, which is what
// its best repeat needs on a box whose neighbours are busy (see
// bestPerOp).
func lpPool(seed uint64) (b *intmat.Dense, queries []*intmat.Dense, wires []service.Matrix) {
	const n, pool = 512, 8
	r := derive(seed, "lp-pool")
	b = workload.Binary(r.Uint64(), n, n, 0.2).ToInt()
	for i := 0; i < pool; i++ {
		q := workload.Binary(r.Uint64(), n, n, 0.02)
		queries = append(queries, q.ToInt())
		wires = append(wires, service.MatrixFromBool(q))
	}
	return b, queries, wires
}

func genLpCached(seed uint64) *instance {
	b, queries, wires := lpPool(seed)
	in := &instance{b: b, queries: queries}
	pinned := derive(seed, "lp-pin").Uint64()
	for q := range queries {
		in.addRead("lp", q, wires, pinned)
	}
	in.setProbe(wires, pinned)
	return in
}

// replaceRow builds a single-row replace whose entries keep the matrix
// inside [0, maxVal] (1 keeps a Boolean matrix Boolean).
func replaceRow(r *rng.RNG, row, cols int, density float64, maxVal int64) service.UpdateRequest {
	u := service.RowUpdate{Row: row}
	for j := 0; j < cols; j++ {
		if r.Bernoulli(density) {
			u.Entries = append(u.Entries, [2]int64{int64(j), 1 + r.Int63n(maxVal)})
		}
	}
	return service.UpdateRequest{Updates: []service.RowUpdate{u}}
}

func genGatewayMixed(seed uint64) *instance {
	b, queries, wires := lpPool(seed)
	in := &instance{b: b, queries: queries}
	pinned := derive(seed, "lp-pin").Uint64()
	r := derive(seed, "gateway-updates")
	// 80% reads, 20% writes: every fifth op replaces one row, rows
	// cycling with a stride coprime to n.
	for q, u := 0, 0; len(in.ops) < len(queries)*5/4; {
		if len(in.ops)%5 == 4 {
			in.ops = append(in.ops, op{kind: "update", update: replaceRow(r, (u*37)%b.Rows(), b.Cols(), 0.2, 1)})
			u++
			continue
		}
		in.addRead("lp", q, wires, pinned)
		q++
	}
	in.setProbe(wires, pinned)
	return in
}

func genUpdateDurable(seed uint64) *instance {
	const n, pool, cycle = 512, 8, 32
	r := derive(seed, "update-durable")
	in := &instance{b: workload.Integer(r.Uint64(), n, n, 0.1, 8, false)}
	var wires []service.Matrix
	for i := 0; i < pool; i++ {
		q := workload.Binary(r.Uint64(), n, n, 0.02)
		in.queries = append(in.queries, q.ToInt())
		wires = append(wires, service.MatrixFromBool(q))
	}
	pinned := r.Uint64()
	// Alternate write, read. Writes: single-row replaces, every 8th a
	// 4-row delta batch (positive deltas, so exact stays valid). Reads
	// are pinned-seed lp with every fourth an exact: at an even split
	// the median read would sit on the gap between the two kinds'
	// latencies and jump between them from run to run.
	for i := 0; i < cycle/2; i++ {
		if i%8 == 7 {
			var req service.UpdateRequest
			req.Delta = true
			for k := 0; k < 4; k++ {
				u := service.RowUpdate{Row: (i*37 + k*128) % n}
				for _, j := range r.Perm(n)[:8] {
					u.Entries = append(u.Entries, [2]int64{int64(j), 1 + r.Int63n(3)})
				}
				req.Updates = append(req.Updates, u)
			}
			in.ops = append(in.ops, op{kind: "update", update: req})
		} else {
			in.ops = append(in.ops, op{kind: "update", update: replaceRow(r, (i*37)%n, n, 0.1, 8)})
		}
		kind := "lp"
		if i%4 == 3 {
			kind = "exact"
		}
		in.addRead(kind, i%pool, wires, pinned)
	}
	in.setProbe(wires, pinned)
	return in
}

// kindsMix is mpload's default mix.
var kindsMix = []struct {
	kind   string
	weight int
}{
	{"lp", 4}, {"exact", 2}, {"l0sample", 1}, {"l1sample", 1}, {"linf", 1}, {"linfkappa", 1}, {"hh", 1},
}

func genKindsUncached(seed uint64) *instance {
	const n, pool, rounds = 256, 8, 4
	r := derive(seed, "kinds-uncached")
	// B is workload.PlantedHeavy's Bob side: sparse background plus one
	// heavy column. Each query plants a row against that column, so ℓ∞
	// and hh have a non-trivial answer on every query; the queries are
	// built alike so that no kind's cost depends on which one it drew.
	_, b := workload.PlantedHeavy(r.Uint64(), n, 1, n*3/4, 0.004)
	in := &instance{b: b}
	bits, hot := toBool(b), 0
	for j := 0; j < n; j++ {
		if bits.ColWeight(j) > bits.ColWeight(hot) {
			hot = j
		}
	}
	support := bits.ColSupport(hot)
	for i := 0; i < pool; i++ {
		q := workload.Binary(r.Uint64(), n, n, 0.004)
		r.Shuffle(len(support), func(x, y int) { support[x], support[y] = support[y], support[x] })
		row := r.Intn(n)
		for _, k := range support[:len(support)*3/4] {
			q.Set(row, k, true)
		}
		in.queries = append(in.queries, q.ToInt())
	}
	var wires []service.Matrix
	for _, q := range in.queries {
		wires = append(wires, service.MatrixFromDense(q))
	}
	// rounds × the mix in shuffled order, a fresh pinned seed per op.
	// Each kind walks the pool round-robin, so every kind meets every
	// query equally often whatever the seed.
	var kinds []string
	for i := 0; i < rounds; i++ {
		for _, kw := range kindsMix {
			for w := 0; w < kw.weight; w++ {
				kinds = append(kinds, kw.kind)
			}
		}
	}
	r.Shuffle(len(kinds), func(x, y int) { kinds[x], kinds[y] = kinds[y], kinds[x] })
	seen := map[string]int{}
	for _, kind := range kinds {
		in.addRead(kind, seen[kind]%pool, wires, r.Uint64())
		seen[kind]++
	}
	in.setProbe(wires, r.Uint64())
	return in
}

// probeUpdates builds single-row replaces at the served matrix's own
// density and value range: the writes a read-only workload sends after
// its measure phase for update_p50_ms, and the update a durable one
// sends after each recovery to read the matrix version back.
func probeUpdates(seed uint64, in *instance, count int) []op {
	r := derive(seed, "probe-updates")
	n, cols := in.b.Rows(), in.b.Cols()
	density := float64(in.b.L0()) / float64(n*cols)
	maxVal, _, _ := in.b.Linf()
	ops := make([]op, count)
	for u := range ops {
		ops[u] = op{kind: "update", update: replaceRow(r, (u*37)%n, cols, density, maxVal)}
	}
	return ops
}

// hash fingerprints the generated input (served matrix and every op in
// order) through the binary wire codec.
func (in *instance) hash() string {
	h := sha256.New()
	buf, _ := service.AppendBinary(nil, service.MatrixFromDense(in.b))
	h.Write(buf)
	for i := range in.ops {
		o := &in.ops[i]
		if o.isUpdate() {
			buf, _ = service.AppendBinary(buf[:0], o.update)
		} else {
			buf, _ = service.AppendBinary(buf[:0], o.req)
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func toBool(d *intmat.Dense) *bitmat.Matrix {
	m := bitmat.New(d.Rows(), d.Cols())
	for i := 0; i < d.Rows(); i++ {
		for j, v := range d.Row(i) {
			if v != 0 {
				m.Set(i, j, true)
			}
		}
	}
	return m
}
