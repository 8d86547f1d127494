// Command benchmark is the repository's benchmark: it builds mpserver
// and mpgateway from source, runs them as child processes on loopback
// ports, drives one of four serving workloads generated from -seed,
// checks every answer against dense arithmetic, and prints every metric
// by name with its unit. The last line of standard output is the
// machine-readable result. See README.md for the metric tables.
//
//	bash benchmark/run.sh --workload lp_cached --seed 1 --seconds 20 --trace 0
//	go run -C benchmark . -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

func main() {
	workloads := flag.String("workload", "", "workloads to run, comma-separated (default: all four)")
	seed := flag.Uint64("seed", 1, "workload generation seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "length of the measure phase (BENCHMARK.json's run_seconds)")
	trace := flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; default: both")
	selfcheck := flag.Bool("selfcheck", false, "run the untraced set twice and fail if any end-to-end metric differs by more than its bound in BENCHMARK.json")
	out := flag.String("out", "", "directory for trace and result files (default: benchmark/results in the checkout)")
	flag.Parse()

	var picked []*spec
	for _, name := range strings.Split(*workloads, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		w := specByName(name)
		if w == nil {
			fatalf("unknown workload %q", name)
		}
		picked = append(picked, w)
	}
	if len(picked) == 0 {
		for i := range specs {
			picked = append(picked, &specs[i])
		}
	}
	if *seconds < 1 || flag.NArg() > 0 {
		fatalf("usage: benchmark [-workload a,b] [-seed n] [-seconds n] [-trace 0|1] [-selfcheck] [-out dir]")
	}

	e, err := newEnv()
	if err != nil {
		fatalf("%v", err)
	}
	// Children are reaped on every way out: the deferred close on a
	// normal return, the handler on a signal.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		e.close()
		os.Exit(130)
	}()
	code := run(e, picked, *seed, *seconds, *trace, *selfcheck, *out)
	e.close()
	os.Exit(code)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func run(e *env, picked []*spec, seed uint64, seconds, trace int, selfcheck bool, out string) int {
	if out == "" {
		out = filepath.Join(e.root, "benchmark", "results")
	}
	c, err := loadContract(e.root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	if selfcheck {
		return runSelfcheck(e, c, picked, seed, seconds)
	}
	code := 0
	record := newRecord(e, seed, seconds)
	for _, w := range picked {
		if trace != 1 {
			res, err := newRunner(e, w, seed).runUntraced(seconds)
			code = max(code, report(w, "end-to-end", c.EndToEnd, res, err))
			record.add(w, "end_to_end", res)
		}
		if trace != 0 {
			res, spans, err := newRunner(e, w, seed).runTraced(seconds)
			code = max(code, report(w, "per-layer", c.PerLayer, res, err))
			record.add(w, "per_layer", res)
			if err == nil {
				if err := writeJSON(filepath.Join(out, "trace-"+w.name+".json"), spans); err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
					code = 1
				}
			}
		}
	}
	if err := writeJSON(filepath.Join(out, "latest.json"), record); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		code = 1
	}
	return code
}

// report prints one run: every metric by name with its unit and sample
// count, then the result line. A failed run, or one whose metrics are
// not the contract's, prints no result line and yields a non-zero exit
// code; a run with a wrong output prints its line and exits non-zero.
func report(w *spec, what string, want []contractMetric, res *result, err error) int {
	if err == nil {
		err = verify(want, res.Metrics)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("# %s, %s metrics (%d ops attempted, %d failed)\n", w.name, what, res.Attempted, res.Failed)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-16s %-36s %14.4f %-6s n=%d\n", w.name, name, m.Value, m.Unit, m.samples)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "benchmark: %s: wrong output: %s\n", w.name, res.failure)
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
