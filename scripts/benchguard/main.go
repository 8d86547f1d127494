// Command benchguard is the CI bench-regression guard: it parses `go
// test -bench` output, emits a machine-readable JSON summary (the
// BENCH_ci.json CI artifact), and fails when a guarded benchmark's
// ns/op exceeds max-ratio × its checked-in baseline.
//
//	go test -bench='...' -benchtime=3x -run '^$' . | tee bench.txt
//	go run ./scripts/benchguard -in bench.txt -out BENCH_ci.json \
//	    -baseline ci/bench_baseline.json -max-ratio 2
//
// The baseline file maps benchmark names (GOMAXPROCS suffix stripped,
// e.g. "ServiceLpCachedVsUncached/cached") to baseline ns/op. Baselines
// are hardware-dependent; they are calibrated for the CI runner class
// with enough headroom that only a genuine regression — not runner
// noise — crosses the 2× line. A guarded benchmark missing from the
// input is also a failure, so a renamed benchmark cannot silently
// disable its guard.
//
// "allocs_per_op" and "bytes_per_op" maps in the baseline additionally
// gate allocs/op and B/op (the codec hot path's and the cached serve
// path's allocation budgets); those entries require the bench run to
// pass -benchmem, and a missing metric fails the gate rather than
// skipping it.
//
// It also gates the open-loop capacity model: with -loadcurve pointing
// at a BENCH_loadcurve.json (emitted by mpload -rps-sweep) and
// -loadcurve-baseline at the checked-in reference, the guard fails
// when the fitted USL knee — or the fitted peak model throughput —
// regresses by more than -knee-max-regress versus the baseline:
//
//	go run ./scripts/benchguard -loadcurve BENCH_loadcurve.json \
//	    -loadcurve-baseline ci/loadcurve_baseline.json
//
// A sweep whose fit finds no knee inside the observed range passes the
// knee half of the gate (capacity is at least what the sweep reached;
// a contention-saturated but non-retrograde curve fits κ≈0 and has no
// knee) — the peak-throughput half still bites there. A sweep whose
// fit failed outright fails the gate. -in may be omitted when only the
// loadcurve gate runs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/loadcurve"
)

// benchLine matches one result line of go test -bench output, e.g.
//
//	BenchmarkServiceLpCachedVsUncached/cached-4   3   3128615 ns/op   2892160 bits/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(.*)$`)

// extraMetric matches trailing "value unit" metric pairs after ns/op.
var extraMetric = regexp.MustCompile(`([\d.]+) (\S+)`)

// Result is one parsed benchmark result.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Baseline is the checked-in reference the guard compares against.
type Baseline struct {
	// NsPerOp maps benchmark names (no -N suffix) to baseline ns/op.
	NsPerOp map[string]float64 `json:"ns_per_op"`
	// AllocsPerOp maps benchmark names to baseline allocs/op. These
	// entries require the bench run to pass -benchmem; a guarded
	// benchmark whose output lacks the allocs/op metric fails, so the
	// gate cannot be disabled by dropping the flag.
	AllocsPerOp map[string]float64 `json:"allocs_per_op"`
	// BytesPerOp maps benchmark names to baseline B/op, gated the same
	// way: what a request allocates is as hardware-independent as how
	// often, and a dense per-query buffer moves it where it may leave
	// the count alone.
	BytesPerOp map[string]float64 `json:"bytes_per_op"`
}

// Report is the BENCH_ci.json artifact.
type Report struct {
	Results []Result `json:"results"`
	// Guarded records the guard verdict per baselined benchmark.
	Guarded []GuardVerdict `json:"guarded"`
	// Loadcurve records the capacity-knee gate verdict when it ran.
	Loadcurve *KneeVerdict `json:"loadcurve,omitempty"`
}

// KneeBaseline is the checked-in capacity reference
// (ci/loadcurve_baseline.json): the fitted USL knee and peak model
// throughput of a healthy build on the CI runner class, in RPS. Either
// field may be zero to skip that half of the gate — a saturating (but
// non-retrograde) serve path fits κ≈0 and reports no knee, so peak_rps
// is the check that still bites there.
type KneeBaseline struct {
	KneeRPS float64 `json:"knee_rps"`
	PeakRPS float64 `json:"peak_rps"`
}

// KneeVerdict is the capacity-gate outcome.
type KneeVerdict struct {
	// KneeRPS is the sweep's fitted knee (0 when HasKnee is false).
	KneeRPS float64 `json:"knee_rps"`
	// HasKnee mirrors the fit: false means no peak inside the swept
	// range, which passes the knee half of the gate (capacity is at
	// least what the sweep reached).
	HasKnee bool `json:"has_knee"`
	// PeakRPS is the sweep's peak model throughput.
	PeakRPS float64 `json:"peak_rps"`
	// BaselineRPS is the checked-in reference knee.
	BaselineRPS float64 `json:"baseline_knee_rps"`
	// BaselinePeakRPS is the checked-in reference peak throughput.
	BaselinePeakRPS float64 `json:"baseline_peak_rps,omitempty"`
	// Ratio is BaselineRPS / KneeRPS (how many times the knee shrank).
	Ratio float64 `json:"ratio"`
	Pass  bool    `json:"pass"`
	Note  string  `json:"note,omitempty"`
}

// GuardVerdict is one guarded benchmark's comparison outcome. Metric
// distinguishes the ns/op gate (empty, the default) from the -benchmem
// gates, allocs/op and B/op.
type GuardVerdict struct {
	Name       string  `json:"name"`
	Metric     string  `json:"metric,omitempty"`
	NsPerOp    float64 `json:"ns_per_op"`
	BaselineNs float64 `json:"baseline_ns_per_op"`
	Ratio      float64 `json:"ratio"`
	Pass       bool    `json:"pass"`
}

func main() {
	in := flag.String("in", "", "go test -bench output to parse (required unless only -loadcurve runs)")
	out := flag.String("out", "BENCH_ci.json", "JSON summary artifact to write")
	baselinePath := flag.String("baseline", "", "checked-in baseline JSON; empty skips the guard")
	maxRatio := flag.Float64("max-ratio", 2, "fail when ns/op exceeds this multiple of the baseline")
	loadcurvePath := flag.String("loadcurve", "", "BENCH_loadcurve.json from mpload -rps-sweep; empty skips the capacity gate")
	loadcurveBase := flag.String("loadcurve-baseline", "", "checked-in capacity baseline (knee_rps / peak_rps); required with -loadcurve")
	kneeMaxRegress := flag.Float64("knee-max-regress", 2, "fail when the fitted knee or peak throughput shrinks by more than this factor vs the baseline")
	flag.Parse()

	if *in == "" && *loadcurvePath == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -in or -loadcurve is required")
		os.Exit(2)
	}
	var report Report
	if *in != "" {
		results, err := parseBench(*in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
			os.Exit(2)
		}
		report.Results = results
	}

	failed := false
	if *loadcurvePath != "" {
		verdict, err := gateLoadcurve(*loadcurvePath, *loadcurveBase, *kneeMaxRegress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
			os.Exit(2)
		}
		report.Loadcurve = verdict
		status := "ok"
		if !verdict.Pass {
			status = "REGRESSION"
			failed = true
		}
		knee := "none in range"
		if verdict.HasKnee {
			knee = fmt.Sprintf("%.0f rps", verdict.KneeRPS)
		}
		fmt.Printf("benchguard: capacity knee %s (baseline %.0f rps)  peak %.0f rps (baseline %.0f)  %s  %s\n",
			knee, verdict.BaselineRPS, verdict.PeakRPS, verdict.BaselinePeakRPS, status, verdict.Note)
	}
	if *baselinePath != "" {
		base, err := loadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
			os.Exit(2)
		}
		byName := make(map[string]Result, len(report.Results))
		for _, r := range report.Results {
			byName[r.Name] = r
		}
		for _, gate := range []struct {
			metric string // "" is ns/op; the others need -benchmem
			base   map[string]float64
		}{
			{"", base.NsPerOp},
			{"allocs/op", base.AllocsPerOp},
			{"B/op", base.BytesPerOp},
		} {
			for name, baseVal := range gate.base {
				full := "Benchmark" + name
				r, ok := byName[full]
				if !ok {
					fmt.Fprintf(os.Stderr, "benchguard: guarded benchmark %s missing from %s\n", full, *in)
					failed = true
					continue
				}
				val, unit := r.NsPerOp, "ns/op"
				if gate.metric != "" {
					if val, ok = r.Metrics[gate.metric]; !ok {
						fmt.Fprintf(os.Stderr, "benchguard: %s has no %s metric (run with -benchmem)\n", full, gate.metric)
						failed = true
						continue
					}
					unit = gate.metric
				}
				v := GuardVerdict{
					Name:       name,
					Metric:     gate.metric,
					NsPerOp:    val,
					BaselineNs: baseVal,
					Ratio:      val / baseVal,
					Pass:       val <= *maxRatio*baseVal,
				}
				report.Guarded = append(report.Guarded, v)
				status := "ok"
				if !v.Pass {
					status = "REGRESSION"
					failed = true
				}
				fmt.Printf("benchguard: %-45s %12.0f %-9s  baseline %12.0f  ratio %.2f  %s\n",
					name, val, unit, baseVal, v.Ratio, status)
			}
		}
	}

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchguard: bench regression guard failed (see %s)\n", *out)
		os.Exit(1)
	}
	fmt.Printf("benchguard: %d results parsed, %d guarded, wrote %s\n",
		len(report.Results), len(report.Guarded), *out)
}

// gateLoadcurve compares a sweep's fitted knee against the checked-in
// capacity baseline.
func gateLoadcurve(curvePath, basePath string, maxRegress float64) (*KneeVerdict, error) {
	if basePath == "" {
		return nil, fmt.Errorf("-loadcurve-baseline is required with -loadcurve")
	}
	rawCurve, err := os.ReadFile(curvePath)
	if err != nil {
		return nil, err
	}
	var rep loadcurve.Report
	if err := json.Unmarshal(rawCurve, &rep); err != nil {
		return nil, fmt.Errorf("parse %s: %w", curvePath, err)
	}
	if rep.Schema != loadcurve.SchemaVersion {
		return nil, fmt.Errorf("%s: schema %d, want %d", curvePath, rep.Schema, loadcurve.SchemaVersion)
	}
	rawBase, err := os.ReadFile(basePath)
	if err != nil {
		return nil, err
	}
	var base KneeBaseline
	if err := json.Unmarshal(rawBase, &base); err != nil {
		return nil, fmt.Errorf("parse %s: %w", basePath, err)
	}
	if base.KneeRPS <= 0 && base.PeakRPS <= 0 {
		return nil, fmt.Errorf("%s: knee_rps or peak_rps must be positive", basePath)
	}
	if rep.Fit == nil {
		// The sweep ran but could not be modeled — a broken sweep must
		// not pass silently.
		return &KneeVerdict{BaselineRPS: base.KneeRPS, BaselinePeakRPS: base.PeakRPS,
			Pass: false, Note: fmt.Sprintf("sweep has no fit: %s", rep.FitError)}, nil
	}
	v := &KneeVerdict{
		KneeRPS:         rep.Fit.KneeRPS,
		HasKnee:         rep.Fit.HasKnee,
		PeakRPS:         rep.Fit.PeakThroughputRPS,
		BaselineRPS:     base.KneeRPS,
		BaselinePeakRPS: base.PeakRPS,
		Pass:            true,
	}
	var notes []string
	if base.KneeRPS > 0 {
		if !rep.Fit.HasKnee {
			// No peak inside (10× of) the swept range: capacity is at
			// least what the sweep reached, which cannot be a
			// >maxRegress collapse of the knee.
			notes = append(notes, "no knee within swept range")
		} else {
			v.Ratio = base.KneeRPS / rep.Fit.KneeRPS
			if rep.Fit.KneeRPS*maxRegress < base.KneeRPS {
				v.Pass = false
				notes = append(notes, fmt.Sprintf("knee shrank %.1f× (limit %.1f×)", v.Ratio, maxRegress))
			}
		}
	}
	if base.PeakRPS > 0 && v.PeakRPS*maxRegress < base.PeakRPS {
		v.Pass = false
		notes = append(notes, fmt.Sprintf("peak throughput shrank %.1f× (limit %.1f×)",
			base.PeakRPS/v.PeakRPS, maxRegress))
	}
	v.Note = strings.Join(notes, "; ")
	return v, nil
}

func parseBench(path string) ([]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		r := Result{Name: m[1], Iterations: iters, NsPerOp: ns}
		for _, em := range extraMetric.FindAllStringSubmatch(m[4], -1) {
			v, err := strconv.ParseFloat(em[1], 64)
			if err != nil {
				continue
			}
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[em[2]] = v
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark results found in %s", path)
	}
	return out, nil
}

func loadBaseline(path string) (Baseline, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return Baseline{}, err
	}
	var b Baseline
	if err := json.Unmarshal(buf, &b); err != nil {
		return Baseline{}, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(b.NsPerOp) == 0 && len(b.AllocsPerOp) == 0 && len(b.BytesPerOp) == 0 {
		return Baseline{}, fmt.Errorf("%s guards no benchmarks", path)
	}
	return b, nil
}
