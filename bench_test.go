// Benchmark harness: one benchmark per experiment in DESIGN.md's index
// (E1–E15), plus the end-to-end service benchmark. Each experiment
// benchmark reports, alongside time/op:
//
//	bits/op     — total communication of one protocol execution,
//	relerr      — measured relative error (where a point estimate exists),
//	ratio       — measured value of the bound's shape (e.g. bits/(n^1.5/κ)),
//
// so a bench run is a direct paper-vs-measured comparison. Run with
//
//	go test -bench=E -benchmem
package matprod

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"repro/gateway"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/intmat"
	"repro/internal/lowerbound"
	"repro/internal/rng"
	"repro/internal/workload"
	"repro/service"
)

// reportCost attaches communication metrics to a benchmark.
func reportCost(b *testing.B, cost Cost) {
	b.ReportMetric(float64(cost.Bits), "bits/op")
	b.ReportMetric(float64(cost.Rounds), "rounds")
}

// BenchmarkE1_L0TwoRoundVsOneRound measures the Theorem 3.1 separation:
// the 2-round Õ(n/ε) protocol vs the 1-round Õ(n/ε²) baseline of [16],
// as ε shrinks. The paper predicts the bit ratio grows like 1/ε.
func BenchmarkE1_L0TwoRoundVsOneRound(b *testing.B) {
	n := 192
	a := workload.Binary(1, n, n, 0.08)
	bb := workload.Binary(2, n, n, 0.08)
	ai, bi := boolMat(a).ToInt(), boolMat(bb).ToInt()
	truth := float64(ai.Mul(bi).L0())
	for _, eps := range []float64{0.4, 0.2, 0.1, 0.05} {
		b.Run(fmt.Sprintf("tworound/eps=%.2f", eps), func(b *testing.B) {
			var cost Cost
			var est float64
			for i := 0; i < b.N; i++ {
				est, cost, _ = EstimateLp(ai, bi, 0, LpOptions{Eps: eps, Seed: uint64(i)})
			}
			reportCost(b, cost)
			b.ReportMetric(math.Abs(est-truth)/truth, "relerr")
		})
		b.Run(fmt.Sprintf("oneround/eps=%.2f", eps), func(b *testing.B) {
			var cost Cost
			var est float64
			for i := 0; i < b.N; i++ {
				est, cost, _ = EstimateLpOneRound(ai, bi, 0, LpOptions{Eps: eps, Seed: uint64(i)})
			}
			reportCost(b, cost)
			b.ReportMetric(math.Abs(est-truth)/truth, "relerr")
		})
	}
}

// BenchmarkE2_LpAccuracy measures Algorithm 1's (1±ε) accuracy across
// the p range it covers.
func BenchmarkE2_LpAccuracy(b *testing.B) {
	n := 128
	ai := workload.Integer(3, n, n, 0.1, 3, false)
	bi := workload.Integer(4, n, n, 0.1, 3, false)
	for _, p := range []float64{0, 0.5, 1, 1.5, 2} {
		truth := ai.Mul(bi).Lp(p)
		b.Run(fmt.Sprintf("p=%.1f", p), func(b *testing.B) {
			var cost core.Cost
			var est float64
			for i := 0; i < b.N; i++ {
				est, cost, _ = core.EstimateLp(ai, bi, p, core.LpOpts{Eps: 0.25, Seed: uint64(i)})
			}
			reportCost(b, cost)
			b.ReportMetric(math.Abs(est-truth)/math.Max(truth, 1), "relerr")
		})
	}
}

// BenchmarkE3_ExactL1 measures Remark 2: exact natural-join size in
// O(n log n) bits, one round. `bits-per-n` should stay near log n.
func BenchmarkE3_ExactL1(b *testing.B) {
	for _, n := range []int{128, 256, 512} {
		A := workload.Integer(uint64(n), n, n, 0.1, 3, true)
		B := workload.Integer(uint64(n)+1, n, n, 0.1, 3, true)
		A, B = absMatrix(A), absMatrix(B)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var cost core.Cost
			for i := 0; i < b.N; i++ {
				_, cost, _ = core.ExactL1(A, B)
			}
			reportCost(b, cost)
			b.ReportMetric(float64(cost.Bits)/float64(n), "bits-per-n")
		})
	}
}

// absMatrix returns the entrywise absolute value (non-negative
// workloads for the Remark 2/3 protocols).
func absMatrix(m *intmat.Dense) *intmat.Dense {
	out := intmat.NewDense(m.Rows(), m.Cols())
	for i := 0; i < m.Rows(); i++ {
		for j, v := range m.Row(i) {
			if v < 0 {
				v = -v
			}
			out.Set(i, j, v)
		}
	}
	return out
}

// BenchmarkE4_L0Sampling measures Theorem 3.2: one-round ℓ0-sampling at
// Õ(n/ε²) bits.
func BenchmarkE4_L0Sampling(b *testing.B) {
	n := 128
	ai := workload.Binary(20, n, n, 0.05)
	bi := workload.Binary(21, n, n, 0.05)
	A, B := boolMat(ai).ToInt(), boolMat(bi).ToInt()
	for _, eps := range []float64{0.5, 0.25} {
		b.Run(fmt.Sprintf("eps=%.2f", eps), func(b *testing.B) {
			var cost Cost
			for i := 0; i < b.N; i++ {
				_, _, cost, _ = SampleL0(A, B, L0SampleOptions{Eps: eps, Seed: uint64(i)})
			}
			reportCost(b, cost)
		})
	}
}

// BenchmarkE5_L1Sampling measures Remark 3: one-round ℓ1-sampling at
// O(n log n) bits.
func BenchmarkE5_L1Sampling(b *testing.B) {
	for _, n := range []int{128, 256, 512} {
		A := absMatrix(workload.Integer(uint64(30+n), n, n, 0.1, 3, false))
		B := absMatrix(workload.Integer(uint64(31+n), n, n, 0.1, 3, false))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var cost core.Cost
			for i := 0; i < b.N; i++ {
				_, _, _, cost, _ = core.SampleL1(A, B, uint64(i))
			}
			reportCost(b, cost)
			b.ReportMetric(float64(cost.Bits)/float64(n), "bits-per-n")
		})
	}
}

// BenchmarkE6_LinfBinary measures Algorithm 2: (2+ε)-approximation of
// ‖AB‖∞ with Õ(n^1.5/ε) bits — `shape` reports bits/(n^1.5/ε), which
// should stay roughly flat across n, and `vs-naive` the savings over
// shipping A.
func BenchmarkE6_LinfBinary(b *testing.B) {
	for _, n := range []int{96, 192, 384} {
		a, bb, _, _ := workload.PlantedPair(uint64(40+n), n, n/3, 0.05)
		truth, _, _ := a.Mul(bb).Linf()
		eps := 0.5
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var cost core.Cost
			var est float64
			for i := 0; i < b.N; i++ {
				est, _, cost, _ = core.EstimateLinfBinary(a, bb, core.LinfOpts{Eps: eps, Seed: uint64(i)})
			}
			reportCost(b, cost)
			b.ReportMetric(float64(cost.Bits)/(math.Pow(float64(n), 1.5)/eps), "shape")
			b.ReportMetric(float64(cost.Bits)/float64(n*n), "vs-naive")
			b.ReportMetric(est/float64(truth), "approx-ratio")
		})
	}
}

// BenchmarkE7_LinfKappa measures Algorithm 3: κ-approximation at
// Õ(n^1.5/κ) bits; `shape` reports bits·κ/n^1.5 (should stay flat) and
// the approximation ratio achieved.
func BenchmarkE7_LinfKappa(b *testing.B) {
	n := 256
	a, bb, _, _ := workload.PlantedPair(50, n, n/2, 0.1)
	truth, _, _ := a.Mul(bb).Linf()
	for _, kappa := range []float64{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("kappa=%.0f", kappa), func(b *testing.B) {
			var cost core.Cost
			var est float64
			for i := 0; i < b.N; i++ {
				est, _, cost, _ = core.EstimateLinfKappa(a, bb,
					core.LinfKappaOpts{Kappa: kappa, AlphaC: 1, Seed: uint64(i)})
			}
			reportCost(b, cost)
			b.ReportMetric(float64(cost.Bits)*kappa/math.Pow(float64(n), 1.5), "shape")
			b.ReportMetric(est/float64(truth), "approx-ratio")
		})
	}
}

// BenchmarkE8_LinfGeneral measures Theorem 4.8(1): κ-approximation for
// integer matrices at Õ(n²/κ²) bits; `shape` reports bits·κ²/n².
func BenchmarkE8_LinfGeneral(b *testing.B) {
	n := 128
	A := workload.Integer(60, n, n, 0.2, 4, true)
	B := workload.Integer(61, n, n, 0.2, 4, true)
	A.Set(3, 0, 500)
	B.Set(0, 5, 500)
	truth, _, _ := A.Mul(B).Linf()
	for _, kappa := range []float64{2, 4, 8} {
		b.Run(fmt.Sprintf("kappa=%.0f", kappa), func(b *testing.B) {
			var cost core.Cost
			var est float64
			for i := 0; i < b.N; i++ {
				est, cost, _ = core.EstimateLinfGeneral(A, B,
					core.LinfGeneralOpts{Kappa: kappa, Seed: uint64(i)})
			}
			reportCost(b, cost)
			b.ReportMetric(float64(cost.Bits)*kappa*kappa/float64(n*n), "shape")
			b.ReportMetric(est/float64(truth), "approx-ratio")
		})
	}
}

// BenchmarkE9_HHGeneral measures Algorithm 4: ℓ1-(ϕ,ε)-heavy-hitters for
// integer matrices at Õ(√ϕ/ε·n) bits.
func BenchmarkE9_HHGeneral(b *testing.B) {
	n := 128
	A, B := workload.PlantedHeavy(70, n, 1, 80, 0.01)
	for _, phi := range []float64{0.2, 0.1} {
		eps := phi / 2
		b.Run(fmt.Sprintf("phi=%.2f", phi), func(b *testing.B) {
			var cost core.Cost
			var found int
			for i := 0; i < b.N; i++ {
				out, c, _ := core.HeavyHitters(A, B, core.HHOpts{Phi: phi, Eps: eps, Seed: uint64(i)})
				cost = c
				found = len(out)
			}
			reportCost(b, cost)
			b.ReportMetric(float64(cost.Bits)/(math.Sqrt(phi)/eps*float64(n)), "shape")
			b.ReportMetric(float64(found), "found")
		})
	}
}

// BenchmarkE10_HHBinary measures Theorem 5.3: binary heavy hitters at
// Õ(n + ϕ/ε²) bits — `bits-per-n` should stay bounded as n grows.
func BenchmarkE10_HHBinary(b *testing.B) {
	for _, n := range []int{96, 192} {
		Ai, Bi := workload.PlantedHeavy(uint64(80+n), n, 1, n*3/4, 0.01)
		a := NewBoolMatrix(n, n)
		bb := NewBoolMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if Ai.Get(i, j) != 0 {
					a.Set(i, j, true)
				}
				if Bi.Get(i, j) != 0 {
					bb.Set(i, j, true)
				}
			}
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var cost Cost
			var found int
			for i := 0; i < b.N; i++ {
				out, c, _ := HeavyHittersBinary(a, bb, HHBinaryOptions{Phi: 0.1, Eps: 0.05, Seed: uint64(i)})
				cost = c
				found = len(out)
			}
			reportCost(b, cost)
			b.ReportMetric(float64(cost.Bits)/float64(n), "bits-per-n")
			b.ReportMetric(float64(found), "found")
		})
	}
}

// BenchmarkE11_LowerBoundGadgets generates and verifies the hard
// instances behind Theorems 4.4, 4.5 and 4.8(2): the reductions' ℓ∞ gaps
// must hold on every draw.
func BenchmarkE11_LowerBoundGadgets(b *testing.B) {
	b.Run("disj-embed", func(b *testing.B) {
		r := rng.New(90)
		n := 32
		for i := 0; i < b.N; i++ {
			intersect := i%2 == 0
			d := lowerbound.NewDISJ(r, (n/2)*(n/2), intersect)
			A, B := lowerbound.EmbedDISJ(d, n)
			max, _, _ := A.Mul(B).Linf()
			if (intersect && max != 2) || (!intersect && max > 1) {
				b.Fatalf("DISJ gap violated: intersect=%v max=%d", intersect, max)
			}
		}
	})
	b.Run("gaplinf-embed", func(b *testing.B) {
		r := rng.New(91)
		n := 32
		kappa := int64(16)
		for i := 0; i < b.N; i++ {
			far := i%2 == 0
			g := lowerbound.NewGapLinf(r, (n/2)*(n/2), kappa, far)
			A, B := lowerbound.EmbedGapLinf(g, n)
			max, _, _ := A.Mul(B).Linf()
			if (far && max < kappa) || (!far && max > 1) {
				b.Fatalf("Gap-ℓ∞ gap violated: far=%v max=%d", far, max)
			}
		}
	})
	b.Run("sum-structure", func(b *testing.B) {
		r := rng.New(92)
		for i := 0; i < b.N; i++ {
			inst := lowerbound.NewSUM(r, lowerbound.SUMParams{N: 128, Kappa: 2, BetaC: 2})
			sum := inst.Sum()
			if inst.Planted != (sum == 1) || sum > 1 {
				b.Fatalf("SUM structure violated: planted=%v sum=%d", inst.Planted, sum)
			}
		}
	})
}

// BenchmarkE12_DistributedMatMul measures Lemma 2.5: recovering AB with
// Õ(n·√‖AB‖0) bits; `shape` reports bits/(n·√s).
func BenchmarkE12_DistributedMatMul(b *testing.B) {
	n := 128
	for _, density := range []float64{0.01, 0.02, 0.04} {
		A := workload.Integer(uint64(100+int(density*1000)), n, n, density, 3, false)
		B := workload.Integer(uint64(101+int(density*1000)), n, n, density, 3, false)
		truth := A.Mul(B)
		s := truth.L0() + 1
		b.Run(fmt.Sprintf("s=%d", s), func(b *testing.B) {
			var cost core.Cost
			exact := 0
			for i := 0; i < b.N; i++ {
				ca, cb, c, _ := core.DistributedProduct(A, B, core.MatMulOpts{Sparsity: s, Seed: uint64(i)})
				cost = c
				sum := ca.Clone()
				sum.AddMatrix(cb)
				if sum.Equal(truth) {
					exact++
				}
			}
			reportCost(b, cost)
			b.ReportMetric(float64(cost.Bits)/(float64(n)*math.Sqrt(float64(s))), "shape")
			// The recovery succeeds with high (not certain) probability;
			// report the observed rate across the sampled seeds.
			b.ReportMetric(float64(exact)/float64(b.N), "exact-rate")
		})
	}
}

// BenchmarkE13_Rectangular measures the Section 6 rectangular extension:
// ℓp stays Õ(n/ε) in the inner dimension n, and ℓ∞ scales with m^1.5.
func BenchmarkE13_Rectangular(b *testing.B) {
	b.Run("lp/m1=64-n=256-m2=128", func(b *testing.B) {
		A := workload.Integer(110, 64, 256, 0.08, 2, false)
		B := workload.Integer(111, 256, 128, 0.08, 2, false)
		truth := float64(A.Mul(B).L0())
		var cost core.Cost
		var est float64
		for i := 0; i < b.N; i++ {
			est, cost, _ = core.EstimateLp(A, B, 0, core.LpOpts{Eps: 0.25, Seed: uint64(i)})
		}
		reportCost(b, cost)
		b.ReportMetric(math.Abs(est-truth)/math.Max(truth, 1), "relerr")
	})
	b.Run("linf/m=128-n=64", func(b *testing.B) {
		a := workload.Binary(112, 128, 64, 0.1)
		bb := workload.Binary(113, 64, 128, 0.1)
		var cost core.Cost
		for i := 0; i < b.N; i++ {
			_, _, cost, _ = core.EstimateLinfBinary(a, bb, core.LinfOpts{Eps: 0.5, Seed: uint64(i)})
		}
		reportCost(b, cost)
	})
}

// BenchmarkE14_RoundsVsBandwidth measures why the paper minimises rounds
// *and* bits: under comm.LatencyModel's pipe model (time = rounds·RTT +
// bits/bandwidth) the 2-round Õ(n/ε) protocol of Theorem 3.1 is set
// against the 1-round Õ(n/ε²) baseline of [16] on the reference LAN and
// WAN links. The extra round costs one RTT; the 1/ε bit saving
// dominates as ε shrinks.
func BenchmarkE14_RoundsVsBandwidth(b *testing.B) {
	n := 192
	ai := workload.Binary(31, n, n, 0.08).ToInt()
	bi := workload.Binary(32, n, n, 0.08).ToInt()
	for _, eps := range []float64{0.2, 0.05} {
		for _, proto := range []struct {
			name string
			run  func(a, b *intmat.Dense, p float64, o core.LpOpts) (float64, core.Cost, error)
		}{
			{"tworound", core.EstimateLp},
			{"oneround", core.OneRoundLp},
		} {
			b.Run(fmt.Sprintf("%s/eps=%.2f", proto.name, eps), func(b *testing.B) {
				var cost core.Cost
				for i := 0; i < b.N; i++ {
					_, cost, _ = proto.run(ai, bi, 0, core.LpOpts{Eps: eps, Seed: uint64(i)})
				}
				reportCost(b, cost)
				b.ReportMetric(float64(comm.LAN.Estimate(cost.Stats))/float64(time.Millisecond), "lan-ms")
				b.ReportMetric(float64(comm.WAN.Estimate(cost.Stats))/float64(time.Millisecond), "wan-ms")
			})
		}
	}
}

// BenchmarkE15_ProtocolVsNaive measures where the paper's protocols beat
// shipping A: Algorithm 1 (lp, p = 1, ε = 0.25) and Algorithm 4 (hh,
// ϕ = 0.1, ε = 0.05) at n = 256, 1024 and 4096, B at density 0.05,
// against the sparse shipment of A that core.NaiveInt makes (its one
// message, sized without the product NaiveInt then computes), as A fills
// up. `naive-bits` is that shipment and `ratio` is bits/op over it: the
// protocol wins where ratio < 1. lp's sketches are dense whatever A is
// and hh's factor follows B's non-zeros, not A's, so both costs are
// nearly flat in density(A) while the shipment grows with it;
// DESIGN.md's E15 row has the n at which lp first wins.
func BenchmarkE15_ProtocolVsNaive(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		B := workload.Binary(150, n, n, 0.05).ToInt()
		for _, density := range []float64{0.002, 0.01, 0.05, 0.2} {
			A := workload.Binary(uint64(151+int(density*1000)), n, n, density).ToInt()
			naive := comm.NewMessage()
			naive.PutSparse(A.List())
			for _, proto := range []struct {
				name string
				run  func(seed uint64) (core.Cost, error)
			}{
				{"lp", func(seed uint64) (core.Cost, error) {
					_, c, err := core.EstimateLp(A, B, 1, core.LpOpts{Eps: 0.25, Seed: seed})
					return c, err
				}},
				{"hh", func(seed uint64) (core.Cost, error) {
					_, c, err := core.HeavyHitters(A, B, core.HHOpts{Phi: 0.1, Eps: 0.05, Seed: seed})
					return c, err
				}},
			} {
				b.Run(fmt.Sprintf("n=%d/%s/density=%.3f", n, proto.name, density), func(b *testing.B) {
					var cost core.Cost
					for i := 0; i < b.N; i++ {
						c, err := proto.run(uint64(i))
						if err != nil {
							b.Fatal(err)
						}
						cost = c
					}
					reportCost(b, cost)
					b.ReportMetric(float64(8*naive.Len()), "naive-bits")
					b.ReportMetric(float64(cost.Bits)/float64(8*naive.Len()), "ratio")
				})
			}
		}
	}
}

// BenchmarkServiceEstimateLp exercises the estimation service end to
// end over HTTP loopback: a served 256×256 matrix answering Algorithm 1
// queries through the engine's worker pool, with the full JSON
// marshal → admission → protocol-over-transport → response path on the
// measured critical path. Run against the in-process and loopback-TCP
// protocol transports to price the socket hop.
func BenchmarkServiceEstimateLp(b *testing.B) {
	n := 256
	served := service.MatrixFromBool(workload.Binary(200, n, n, 0.05))
	query := service.MatrixFromBool(workload.Binary(201, n, n, 0.05))
	for _, mode := range []struct {
		name    string
		factory service.TransportFactory
	}{
		{"inproc", service.InProcess},
		{"tcp", service.TCPLoopback},
	} {
		b.Run(mode.name, func(b *testing.B) {
			engine := service.NewEngine(service.Config{Workers: 4, Transport: mode.factory})
			defer engine.Close()
			srv := httptest.NewServer(service.NewHandler(engine))
			defer srv.Close()
			client := service.New(srv.URL)
			ctx := context.Background()
			if _, err := client.UploadMatrix(ctx, "bench", served); err != nil {
				b.Fatal(err)
			}
			seed := uint64(202)
			req := service.Request{Matrix: "bench", Kind: "lp", P: 1, Eps: 0.3, Seed: &seed, A: query}
			b.ResetTimer()
			var bits int64
			for i := 0; i < b.N; i++ {
				res, err := client.Estimate(ctx, req)
				if err != nil {
					b.Fatal(err)
				}
				bits = res.Bits
			}
			b.ReportMetric(float64(bits), "bits/op")
		})
	}
}

// BenchmarkServiceLpCachedVsUncached prices the Bob-side sketch cache
// on the serving path: the same pinned-seed Algorithm 1 query against a
// served 256×256 matrix, answered by an engine that re-derives Bob's
// sketches per request (uncached) versus one serving them from the
// cache (cached — the first request warms it, every measured request
// hits). Transcripts are byte-identical either way — the parity tests
// pin that — so bits/op must agree; only time/op moves.
func BenchmarkServiceLpCachedVsUncached(b *testing.B) {
	// The serve-many shape: selective (sparse) queries against a denser
	// served relation — B's sketches are the bulk of the per-query work
	// the cache amortizes away.
	n := 256
	served := service.MatrixFromBool(workload.Binary(210, n, n, 0.3))
	query := service.MatrixFromBool(workload.Binary(211, n, n, 0.02))
	seed := uint64(212)
	req := service.Request{Matrix: "bench", Kind: "lp", P: 1, Eps: 0.25, Seed: &seed, A: query}
	for _, mode := range []struct {
		name string
		cfg  service.Config
	}{
		{"uncached", service.Config{Workers: 4, DisableCache: true}},
		{"cached", service.Config{Workers: 4}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			engine := service.NewEngine(mode.cfg)
			defer engine.Close()
			ctx := context.Background()
			if _, _, err := engine.PutMatrix("bench", served); err != nil {
				b.Fatal(err)
			}
			if _, err := engine.Estimate(ctx, req); err != nil { // warm the cache
				b.Fatal(err)
			}
			b.ResetTimer()
			var bits int64
			for i := 0; i < b.N; i++ {
				res, err := engine.Estimate(ctx, req)
				if err != nil {
					b.Fatal(err)
				}
				bits = res.Bits
			}
			b.ReportMetric(float64(bits), "bits/op")
		})
	}
}

// BenchmarkServiceKindsServe prices Serve for the two kinds whose
// per-query work follows the non-zeros of the inputs — hh (the Lemma
// 2.5 exchange inside Algorithm 4) and l0sample (Theorem 3.2's column
// sketches) — on the repo benchmark's kinds_uncached shapes: n = 256, a
// planted-heavy Boolean B, a sparse query with one planted row. The
// cache is on and warm, so Bob's precompute is outside the loop. Both
// big messages travel as (gap, word) pairs, so what the kinds put on the
// wire follows the inputs' non-zeros too — but for pinned inputs and
// seed it is a constant, not a function of how Serve computes it:
// bits/op must stay the count below, to the bit (9 486 488 and
// 33 038 336 in the dense layout these replaced).
func BenchmarkServiceKindsServe(b *testing.B) {
	n := 256
	query, served := workload.PlantedHeavy(230, n, 1, n*3/4, 0.004)
	seed := uint64(231)
	for _, kind := range []struct {
		name string
		req  service.Request
		bits int64
	}{
		{"hh", service.Request{Kind: "hh", P: 1, Phi: 0.1, Eps: 0.05}, 92712},
		{"l0sample", service.Request{Kind: "l0sample", Eps: 0.25}, 628880},
	} {
		b.Run(kind.name, func(b *testing.B) {
			engine := service.NewEngine(service.Config{Workers: 4, Shards: 1})
			defer engine.Close()
			ctx := context.Background()
			if _, _, err := engine.PutMatrix("bench", service.MatrixFromDense(served)); err != nil {
				b.Fatal(err)
			}
			req := kind.req
			req.Matrix, req.A, req.Seed = "bench", service.MatrixFromDense(query), &seed
			if _, err := engine.Estimate(ctx, req); err != nil { // warm the cache
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := engine.Estimate(ctx, req)
				if err != nil {
					b.Fatal(err)
				}
				if res.Bits != kind.bits {
					b.Fatalf("%s put %d bits on the wire, the protocol's count is %d", kind.name, res.Bits, kind.bits)
				}
			}
			b.ReportMetric(float64(kind.bits), "bits/op")
		})
	}
}

// BenchmarkServiceLpSharded prices the row-shard parallel serve path
// on the uncached lp pipeline: the same pinned-seed query against a
// served 512×512 matrix, answered by an engine that re-derives Bob's
// sketches every request (the cache is off, so each estimate pays the
// full precompute + serve cost) at 1 shard versus 4. Transcripts are
// byte-identical across shard counts — the core parity tests pin that —
// so bits/op must agree; only time/op moves. The 4-shard run is the
// headline number: ≥2× faster than 1 shard on a ≥4-core box.
func BenchmarkServiceLpSharded(b *testing.B) {
	n := 512
	served := service.MatrixFromBool(workload.Binary(230, n, n, 0.2))
	query := service.MatrixFromBool(workload.Binary(231, n, n, 0.02))
	seed := uint64(232)
	req := service.Request{Matrix: "bench", Kind: "lp", P: 1, Eps: 0.25, Seed: &seed, A: query}
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			engine := service.NewEngine(service.Config{Workers: 4, DisableCache: true, Shards: shards})
			defer engine.Close()
			ctx := context.Background()
			if _, _, err := engine.PutMatrix("bench", served); err != nil {
				b.Fatal(err)
			}
			if _, err := engine.Estimate(ctx, req); err != nil { // warm allocators
				b.Fatal(err)
			}
			b.ResetTimer()
			var bits int64
			for i := 0; i < b.N; i++ {
				res, err := engine.Estimate(ctx, req)
				if err != nil {
					b.Fatal(err)
				}
				bits = res.Bits
			}
			b.ReportMetric(float64(bits), "bits/op")
		})
	}
}

// BenchmarkServiceLpUpdateVsReupload prices the dynamic-update path
// against the only alternative a fixed-matrix service offers: a full
// re-upload with a cold sketch cache. Both modes alternate the served
// 512×512 matrix between the same two states (row 0 original vs row 0
// replaced) and answer one pinned-seed lp query per iteration, so the
// transcripts — and therefore bits/op — are identical by construction
// (asserted below); only the ingest cost differs. The update path
// re-sketches 1 row of 512 and revalidates the cached state in place,
// so a single-row update is ≥5× faster than PUT + rebuild at this
// size.
func BenchmarkServiceLpUpdateVsReupload(b *testing.B) {
	n := 512
	base := service.MatrixFromBool(workload.Binary(240, n, n, 0.2))
	query := service.MatrixFromBool(workload.Binary(241, 8, n, 0.01))
	seed := uint64(242)
	req := service.Request{Matrix: "bench", Kind: "lp", P: 1, Eps: 0.25, Seed: &seed, A: query}

	// The two row-0 states the matrix alternates between: its original
	// entries and a fixed sparse replacement.
	var rowOrig [][2]int64
	for _, ent := range base.Entries {
		if ent[0] == 0 {
			rowOrig = append(rowOrig, [2]int64{ent[1], ent[2]})
		}
	}
	rowAlt := [][2]int64{{1, 1}, {7, 1}, {130, 1}, {244, 1}, {399, 1}}
	variants := [2][][2]int64{rowAlt, rowOrig} // iteration i installs variants[i%2]
	wires := [2]service.Matrix{{Rows: n, Cols: n}, base}
	for _, ent := range base.Entries {
		if ent[0] != 0 {
			wires[0].Entries = append(wires[0].Entries, ent)
		}
	}
	for _, e := range rowAlt {
		wires[0].Entries = append(wires[0].Entries, [3]int64{0, e[0], e[1]})
	}

	var bitsSeen [2][2]int64 // [mode][parity] for the cross-mode identity check
	for mode, name := range []string{"update", "reupload"} {
		b.Run(name, func(b *testing.B) {
			engine := service.NewEngine(service.Config{Workers: 4, Shards: 1})
			defer engine.Close()
			ctx := context.Background()
			if _, _, err := engine.PutMatrix("bench", base); err != nil {
				b.Fatal(err)
			}
			if _, err := engine.Estimate(ctx, req); err != nil { // warm the cache
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == 0 {
					upd := service.UpdateRequest{Updates: []service.RowUpdate{{Row: 0, Entries: variants[i%2]}}}
					if _, err := engine.UpdateRows("bench", upd); err != nil {
						b.Fatal(err)
					}
				} else {
					if _, _, err := engine.PutMatrix("bench", wires[i%2]); err != nil {
						b.Fatal(err)
					}
				}
				res, err := engine.Estimate(ctx, req)
				if err != nil {
					b.Fatal(err)
				}
				bitsSeen[mode][i%2] = res.Bits
			}
			b.StopTimer()
			b.ReportMetric(float64(bitsSeen[mode][(b.N-1)%2]), "bits/op")
			if mode == 0 {
				cs := engine.Stats().Cache
				b.ReportMetric(float64(cs.Misses), "cache-misses")
			}
		})
	}
	for parity := 0; parity < 2; parity++ {
		u, r := bitsSeen[0][parity], bitsSeen[1][parity]
		if u != 0 && r != 0 && u != r {
			b.Fatalf("bit counts diverged at parity %d: update %d, reupload %d", parity, u, r)
		}
	}
}

// BenchmarkServiceBatchEstimate prices the batched query API over the
// HTTP surface: 16 pinned-seed lp queries per POST /v1/estimate/batch
// (one HTTP exchange, one admission slot, cache hits throughout)
// against 16 individual POST /v1/estimate calls. Time is per 16-query
// group either way.
func BenchmarkServiceBatchEstimate(b *testing.B) {
	n := 256
	served := service.MatrixFromBool(workload.Binary(220, n, n, 0.2))
	query := service.MatrixFromBool(workload.Binary(221, n, n, 0.02))
	seed := uint64(222)
	req := service.Request{Matrix: "bench", Kind: "lp", P: 1, Eps: 0.25, Seed: &seed, A: query}
	const batch = 16
	engine := service.NewEngine(service.Config{Workers: 4})
	defer engine.Close()
	srv := httptest.NewServer(service.NewHandler(engine))
	defer srv.Close()
	client := service.New(srv.URL)
	ctx := context.Background()
	if _, err := client.UploadMatrix(ctx, "bench", served); err != nil {
		b.Fatal(err)
	}
	if _, err := client.Estimate(ctx, req); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				if _, err := client.Estimate(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		reqs := make([]service.Request, batch)
		for i := range reqs {
			reqs[i] = req
		}
		for i := 0; i < b.N; i++ {
			items, err := client.EstimateBatch(ctx, reqs)
			if err != nil {
				b.Fatal(err)
			}
			for _, item := range items {
				if item.Error != "" {
					b.Fatal(item.Error)
				}
			}
		}
	})
}

// BenchmarkAblation_UniverseSampling isolates Algorithm 3's universe-
// sampling step: with it, communication is Õ(n^1.5/κ); without it, only
// Õ(n^1.5/√κ).
func BenchmarkAblation_UniverseSampling(b *testing.B) {
	n := 256
	a, bb, _, _ := workload.PlantedPair(120, n, n/2, 0.15)
	o := core.LinfKappaOpts{Kappa: 24, AlphaC: 1, Seed: 121}
	b.Run("with", func(b *testing.B) {
		var cost core.Cost
		for i := 0; i < b.N; i++ {
			_, _, cost, _ = core.EstimateLinfKappa(a, bb, o)
		}
		reportCost(b, cost)
	})
	b.Run("without", func(b *testing.B) {
		var cost core.Cost
		for i := 0; i < b.N; i++ {
			_, _, cost, _ = core.EstimateLinfKappaNoUniverse(a, bb, o)
		}
		reportCost(b, cost)
	})
}

// BenchmarkAblation_BetaSplit isolates Algorithm 1's β = √ε choice: the
// same pipeline with β = ε (all accuracy from the sketch, none from
// sampling) is exactly the [16] one-round protocol, and with β = √ε the
// sketch shrinks by 1/ε at the cost of one extra round.
func BenchmarkAblation_BetaSplit(b *testing.B) {
	n := 192
	A := boolMat(workload.Binary(130, n, n, 0.08)).ToInt()
	B := boolMat(workload.Binary(131, n, n, 0.08)).ToInt()
	eps := 0.1
	b.Run("beta=sqrt-eps(2-round)", func(b *testing.B) {
		var cost Cost
		for i := 0; i < b.N; i++ {
			_, cost, _ = EstimateLp(A, B, 0, LpOptions{Eps: eps, Seed: uint64(i)})
		}
		reportCost(b, cost)
	})
	b.Run("beta=eps(1-round)", func(b *testing.B) {
		var cost Cost
		for i := 0; i < b.N; i++ {
			_, cost, _ = EstimateLpOneRound(A, B, 0, LpOptions{Eps: eps, Seed: uint64(i)})
		}
		reportCost(b, cost)
	})
}

// BenchmarkWireLpEstimate prices the hot-path wire format for a cached
// single lp estimate over the real HTTP surface: the same pinned-seed
// query through a JSON client versus a binary-negotiating one. Before
// timing, it asserts the codec contract this format exists for — the
// binary encode+decode of the request/response pair allocates ≥10×
// less than the streaming encoding/json exchange the JSON tiers run,
// and puts ≥3× fewer bytes on the wire. The binary side's allocation
// count is flat in the payload (the bitset matrix form plus pooled
// buffers); JSON's grows with it, so the ratios only widen at scale.
func BenchmarkWireLpEstimate(b *testing.B) {
	n := 512
	served := service.MatrixFromBool(workload.Binary(230, n, n, 0.2))
	query := service.MatrixFromBool(workload.Binary(231, n, n, 0.10))
	seed := uint64(232)
	req := service.Request{Matrix: "bench", Kind: "lp", P: 1, Eps: 0.25, Seed: &seed, A: query}

	engine := service.NewEngine(service.Config{Workers: 4})
	defer engine.Close()
	srv := httptest.NewServer(service.NewHandler(engine))
	defer srv.Close()
	ctx := context.Background()
	jsonC := service.New(srv.URL)
	binC := service.New(srv.URL, service.WithAccept(service.MediaTypeBinary))
	if _, err := jsonC.UploadMatrix(ctx, "bench", served); err != nil {
		b.Fatal(err)
	}
	res, err := jsonC.Estimate(ctx, req) // warm the sketch cache, keep a real reply
	if err != nil {
		b.Fatal(err)
	}

	// Bytes on the wire for the exchange: request body + response body.
	binReq, err := service.AppendBinary(nil, req)
	if err != nil {
		b.Fatal(err)
	}
	binRes, err := service.AppendBinary(nil, res)
	if err != nil {
		b.Fatal(err)
	}
	jsonReq, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	jsonRes, err := json.Marshal(res)
	if err != nil {
		b.Fatal(err)
	}
	jsonBytes := len(jsonReq) + len(jsonRes)
	binBytes := len(binReq) + len(binRes)
	if binBytes*3 > jsonBytes {
		b.Fatalf("binary exchange is %d bytes vs JSON %d: want ≥3x smaller", binBytes, jsonBytes)
	}

	// Codec allocations for the same exchange, both directions, each
	// side doing what its wire tier actually does: JSON marshals the
	// request, stream-decodes it server-side (DisallowUnknownFields,
	// as DecodeJSON does), stream-encodes the reply, and decodes it
	// client-side; the binary side runs the framed codec over one
	// reused buffer, as the pooled server/client paths do.
	allocsJSON := testing.AllocsPerRun(50, func() {
		buf, _ := json.Marshal(req)
		dec := json.NewDecoder(bytes.NewReader(buf))
		dec.DisallowUnknownFields()
		var q service.Request
		_ = dec.Decode(&q)
		var sink bytes.Buffer
		_ = json.NewEncoder(&sink).Encode(res)
		dec = json.NewDecoder(bytes.NewReader(sink.Bytes()))
		var r service.Result
		_ = dec.Decode(&r)
	})
	scratch := make([]byte, 0, 1<<20)
	var reqAny, resAny any = req, res // hoisted like the clients' typed calls
	var q service.Request
	var r service.Result
	allocsBin := testing.AllocsPerRun(50, func() {
		scratch, _ = service.AppendBinary(scratch[:0], reqAny)
		q = service.Request{}
		_ = service.DecodeBinary(scratch, &q)
		scratch, _ = service.AppendBinary(scratch[:0], resAny)
		r = service.Result{}
		_ = service.DecodeBinary(scratch, &r)
	})
	if allocsBin*10 > allocsJSON {
		b.Fatalf("binary codec allocates %.0f/op vs JSON %.0f/op: want ≥10x fewer", allocsBin, allocsJSON)
	}

	for _, mode := range []struct {
		name   string
		client *service.Client
	}{
		{"json", jsonC},
		{"binary", binC},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mode.client.Estimate(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			wire := binBytes
			if mode.name == "json" {
				wire = jsonBytes
			}
			b.ReportMetric(float64(wire), "wirebytes/op")
		})
	}
	b.Logf("wire bytes: json %d, binary %d (%.1fx); codec allocs: json %.0f, binary %.0f (%.0fx)",
		jsonBytes, binBytes, float64(jsonBytes)/float64(binBytes),
		allocsJSON, allocsBin, allocsJSON/allocsBin)
}

// BenchmarkGatewayUpdateReplicated prices a replicated row update
// through the gateway front at R=3 at the two ends of the write-quorum
// knob: "sync" (W=0) commits only after every replica acks the PATCH,
// "async" (W=1) commits on a single ack and drains the remaining
// replicas through the background apply loop. The ns/op gap is the
// latency the quorum commit takes off the write path;
// ci/bench_baseline.json gates the async entry as the write-throughput
// baseline (the sub-benchmark names are its keys).
func BenchmarkGatewayUpdateReplicated(b *testing.B) {
	n := 256
	base := service.MatrixFromBool(workload.Binary(260, n, n, 0.1))
	var rowOrig [][2]int64
	for _, ent := range base.Entries {
		if ent[0] == 0 {
			rowOrig = append(rowOrig, [2]int64{ent[1], ent[2]})
		}
	}
	rowAlt := [][2]int64{{3, 1}, {59, 1}, {171, 1}, {238, 1}}
	variants := [2][][2]int64{rowAlt, rowOrig}

	var backends []string
	for i := 0; i < 3; i++ {
		engine := service.NewEngine(service.Config{Workers: 4, Shards: 1})
		defer engine.Close()
		srv := httptest.NewServer(service.NewHandler(engine))
		defer srv.Close()
		backends = append(backends, srv.URL)
	}

	for w, mode := range []string{"sync", "async"} {
		b.Run(mode, func(b *testing.B) {
			g := gateway.New(gateway.Config{
				Backends:    backends,
				Replication: 3,
				WriteQuorum: w,
			})
			defer g.Close()
			ctx := context.Background()
			if _, err := g.PutMatrix(ctx, "bench-"+mode, base); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				upd := service.UpdateRequest{Updates: []service.RowUpdate{{Row: 0, Entries: variants[i%2]}}}
				if _, err := g.UpdateRows(ctx, "bench-"+mode, upd); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
