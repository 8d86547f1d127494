package service

import (
	"fmt"

	"repro/internal/bitmat"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/intmat"
)

// kinds is the one table of the protocols the engine serves, by the
// name a request gives: an entry declares everything the engine does
// differently for its kind.
var kinds = map[string]kind{
	"lp": &spec[intmat.Matrix, lpOpts, *core.BobLpState]{
		doc:  "Algorithm 1 (Theorem 3.1): (1±ε)·‖AB‖p^p, p ∈ [0,2]",
		form: borrow,
		opts: func(r Request, seed uint64, shards int) (lpOpts, string) {
			// p = 0 is meaningful: ℓ0, the composition-size estimate.
			o := lpOpts{r.P, core.LpOpts{Eps: orDefault(r.Eps, 0.25), Seed: seed, Shards: shards}}
			return o, fmt.Sprintf("p=%g eps=%g seed=%d", o.p, o.Eps, seed)
		},
		build: func(b intmat.Matrix, o lpOpts) (*core.BobLpState, error) {
			return core.NewBobLpState(b, o.p, o.LpOpts)
		},
		update: (*core.BobLpState).UpdateRows,
		drivers: func(st *core.BobLpState, _ lpOpts, q query, res *Result) (party, party) {
			// Alice's state shares the sketch families Bob's already owns.
			alice := st.AliceState()
			return func(t comm.Transport) error { return alice.Serve(t, q.a) },
				func(t comm.Transport) (err error) { res.Estimate, err = st.Serve(t); return err }
		},
	},
	"l0sample": &spec[intmat.Matrix, core.L0SampleOpts, *core.BobL0SampleState]{
		doc:  "Theorem 3.2: uniform non-zero entry of AB with exact value",
		form: borrow,
		opts: func(r Request, seed uint64, shards int) (core.L0SampleOpts, string) {
			o := core.L0SampleOpts{Eps: orDefault(r.Eps, 0.25), Seed: seed, Shards: shards}
			return o, fmt.Sprintf("eps=%g seed=%d", o.Eps, seed)
		},
		build:  core.NewBobL0SampleState,
		update: (*core.BobL0SampleState).UpdateRows,
		drivers: func(st *core.BobL0SampleState, o core.L0SampleOpts, q query, res *Result) (party, party) {
			return func(t comm.Transport) error { return core.AliceL0Sample(t, q.a, o) },
				func(t comm.Transport) error {
					pair, v, err := st.Serve(t, q.a.Rows())
					res.I, res.J, res.Estimate = pair.I, pair.J, float64(v)
					return err
				}
		},
	},
	"l1sample": &spec[intmat.Matrix, int, *core.BobL1SampleState]{
		doc:    "Remark 3: entry (i,j) ∝ C[i][j] with join witness",
		form:   borrow,
		opts:   seedFree,
		build:  core.NewBobL1SampleState,
		update: (*core.BobL1SampleState).UpdateRows,
		drivers: func(st *core.BobL1SampleState, _ int, q query, res *Result) (party, party) {
			return func(t comm.Transport) error { return core.AliceSampleL1(t, q.a, q.seed) },
				func(t comm.Transport) (err error) { res.I, res.J, res.Witness, err = st.Serve(t, q.seed); return err }
		},
	},
	"exact": &spec[intmat.Matrix, int, *core.BobExactL1State]{
		doc:    "Remark 2: exact ‖AB‖1 for non-negative matrices",
		form:   borrow,
		opts:   seedFree,
		build:  core.NewBobExactL1State,
		update: (*core.BobExactL1State).UpdateRows,
		drivers: func(st *core.BobExactL1State, _ int, q query, res *Result) (party, party) {
			return func(t comm.Transport) error { return core.AliceExactL1(t, q.a) },
				func(t comm.Transport) error {
					v, err := st.Serve(t)
					res.Estimate = float64(v)
					return err
				}
		},
	},
	"linf": &spec[*bitmat.Matrix, core.LinfOpts, *core.BobLinfState]{
		doc:    "Algorithm 2 (Theorem 4.1): (2+ε)·‖AB‖∞ for Boolean matrices",
		binary: true,
		form:   bitmat.FromSparse,
		opts: func(r Request, seed uint64, shards int) (core.LinfOpts, string) {
			o := core.LinfOpts{Eps: orDefault(r.Eps, 0.25), Seed: seed, Shards: shards}
			return o, fmt.Sprintf("eps=%g", o.Eps)
		},
		build:  core.NewBobLinfState,
		update: (*core.BobLinfState).UpdateRows,
		drivers: func(st *core.BobLinfState, o core.LinfOpts, q query, res *Result) (party, party) {
			return func(t comm.Transport) error { return core.AliceLinf(t, bitmat.FromSparse(q.a), q.b.Cols, o) },
				serveLinf(st.Serve, q.a.Rows(), res)
		},
	},
	"linfkappa": &spec[*bitmat.Matrix, core.LinfKappaOpts, *core.BobLinfKappaState]{
		doc:    "Algorithm 3 (Theorem 4.3): κ·‖AB‖∞ for Boolean matrices",
		binary: true,
		form:   bitmat.FromSparse,
		opts: func(r Request, seed uint64, shards int) (core.LinfKappaOpts, string) {
			o := core.LinfKappaOpts{Kappa: orDefault(r.Kappa, 8), Seed: seed, Shards: shards}
			return o, fmt.Sprintf("kappa=%g", o.Kappa)
		},
		build:  core.NewBobLinfKappaState,
		update: (*core.BobLinfKappaState).UpdateRows,
		drivers: func(st *core.BobLinfKappaState, o core.LinfKappaOpts, q query, res *Result) (party, party) {
			return func(t comm.Transport) error { return core.AliceLinfKappa(t, bitmat.FromSparse(q.a), q.b.Cols, o) },
				serveLinf(st.Serve, q.a.Rows(), res)
		},
	},
	"hh": &spec[intmat.Matrix, core.HHOpts, *core.BobHHState]{
		doc:  "Algorithm 4 (Theorem 5.1): ℓp-(ϕ,ε)-heavy hitters",
		form: borrow,
		opts: func(r Request, seed uint64, shards int) (core.HHOpts, string) {
			phi := orDefault(r.Phi, 0.2)
			o := core.HHOpts{Phi: phi, Eps: orDefault(r.Eps, phi/2), P: orDefault(r.P, 1), Seed: seed, Shards: shards}
			return o, fmt.Sprintf("p=%g phi=%g eps=%g seed=%d", o.P, o.Phi, o.Eps, seed)
		},
		build:  core.NewBobHHState,
		update: (*core.BobHHState).UpdateRows,
		drivers: func(st *core.BobHHState, o core.HHOpts, q query, res *Result) (party, party) {
			return func(t comm.Transport) error { return core.AliceHH(t, q.a, q.b.Cols, q.b.NonNeg, o) },
				func(t comm.Transport) error {
					out, err := st.Serve(t, q.a.Rows(), q.aNonNeg)
					for _, wp := range out {
						res.Entries = append(res.Entries, Entry{I: wp.I, J: wp.J, Value: wp.Value})
					}
					res.Estimate = float64(len(out))
					return err
				}
		},
	},
}

// Kinds lists the supported job kinds with the protocol each runs.
var Kinds = func() map[string]string {
	docs := make(map[string]string, len(kinds))
	for name, k := range kinds {
		docs[name] = k.summary()
	}
	return docs
}()

// kind is a table entry as the engine uses it: job wires a validated
// query to the kind's drivers, fetching Bob's state through the sketch
// cache; advance moves a cached state across a row update of sm, or
// reports false when the update broke the kind's input contract
// (signedness for exact/l1sample, binarity for the ℓ∞ kinds) — the
// state is dropped, and the next query meets the contract error exactly
// as a cold cache would.
type kind interface {
	summary() string
	job(e *Engine, req Request, sm *servedMatrix, q query, epoch uint64) (*job, error)
	advance(st bobState, sm *servedMatrix, rows []int) (bobState, bool)
}

// spec declares one kind: B is the form of the served matrix its state
// reads, O its options, S the state the sketch cache keeps.
type spec[B, O any, S bobState] struct {
	doc string
	// binary kinds serve only 0/1 matrices, on both sides.
	binary bool
	// form derives B from the registry's lists — the only form of the
	// served matrix it holds — when a state is built or advanced.
	form func(*intmat.Sparse) B
	// opts resolves the request's defaults, then names the cache
	// fingerprint: exactly the inputs the state depends on, the seed only
	// where the state bakes in sketches drawn from it.
	opts    func(r Request, seed uint64, shards int) (O, string)
	build   func(B, O) (S, error)
	update  func(S, B, []int) (S, error)
	drivers func(st S, o O, q query, res *Result) (alice, bob party)
}

type party = func(comm.Transport) error

// query is what the drivers read of a validated request besides its
// options: Alice's matrix as row lists (it is never dense here) with
// its flags, B's catalog entry — metadata crosses as parameters, never
// as protocol payload — and the seed.
type query struct {
	a                *intmat.Sparse
	aBinary, aNonNeg bool
	b                MatrixInfo
	seed             uint64
}

// job is one protocol execution: the two party drivers and the result
// Bob's fills in.
type job struct {
	alice, bob party
	result     *Result
}

func (s *spec[B, O, S]) summary() string { return s.doc }

func (s *spec[B, O, S]) job(e *Engine, req Request, sm *servedMatrix, q query, epoch uint64) (*job, error) {
	if s.binary && !sm.info.Binary {
		return nil, fmt.Errorf("%w: matrix %q is not Boolean (required for ℓ∞ kinds)", ErrBadRequest, sm.info.Name)
	}
	if s.binary && !q.aBinary {
		return nil, fmt.Errorf("%w: query matrix must be Boolean for ℓ∞ kinds", ErrBadRequest)
	}
	o, fp := s.opts(req, q.seed, e.cfg.Shards)
	st, err := e.bobState(sm, req.Kind, fp, epoch, func() (bobState, error) {
		st, err := s.build(s.form(sm.list), o)
		return st, err
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %s", mapProtocolError(err), err)
	}
	res := &Result{Seed: q.seed}
	alice, bob := s.drivers(st.(S), o, q, res)
	return &job{alice: alice, bob: bob, result: res}, nil
}

func (s *spec[B, O, S]) advance(st bobState, sm *servedMatrix, rows []int) (bobState, bool) {
	if s.binary && !sm.info.Binary {
		return nil, false
	}
	next, err := s.update(st.(S), s.form(sm.list), rows)
	return next, err == nil
}

// lpOpts is lp's options: the norm index beside core's.
type lpOpts struct {
	p float64
	core.LpOpts
}

// borrow is the form every kind but the Boolean ones reads: the lists.
func borrow(b *intmat.Sparse) intmat.Matrix { return b }

// seedFree is the options of exact and l1sample, whose states read
// nothing of the request: one entry serves every seed.
func seedFree(_ Request, _ uint64, shards int) (int, string) { return shards, "" }

func orDefault(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

// serveLinf is Bob's driver of either ℓ∞ kind: the estimate and the
// pair witnessing it.
func serveLinf(serve func(comm.Transport, int) (float64, core.Pair, error), m1 int, res *Result) party {
	return func(t comm.Transport) (err error) {
		var arg core.Pair
		res.Estimate, arg, err = serve(t, m1)
		res.I, res.J = arg.I, arg.J
		return err
	}
}
