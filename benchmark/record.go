package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// record is results/latest.json: the latest numbers together with what
// they were measured on. BENCHMARK.json itself holds only the contract
// (command, paths, workloads, metrics, bounds), so the environment and
// the results live beside the traces.
type record struct {
	Seed       uint64                     `json:"seed"`
	Seconds    int                        `json:"seconds"`
	Nproc      int                        `json:"nproc"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	Clients    int                        `json:"clients"`
	GoVersion  string                     `json:"go_version"`
	CPUModel   string                     `json:"cpu_model"`
	Filesystem string                     `json:"scratch_filesystem"`
	Commit     string                     `json:"commit"`
	Workloads  map[string]*workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Why      string            `json:"why"`
	EndToEnd map[string]metric `json:"end_to_end,omitempty"`
	PerLayer map[string]metric `json:"per_layer,omitempty"`
}

func newRecord(e *env, seed uint64, seconds int) *record {
	return &record{
		Seed:       seed,
		Seconds:    seconds,
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients:    1,
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Filesystem: filesystemOf(e.scratch),
		Commit:     commitOf(e.root),
		Workloads:  map[string]*workloadRecord{},
	}
}

func (r *record) add(w *spec, what string, res *result) {
	if res == nil {
		return
	}
	wr := r.Workloads[w.name]
	if wr == nil {
		wr = &workloadRecord{Why: w.why}
		r.Workloads[w.name] = wr
	}
	if what == "end_to_end" {
		wr.EndToEnd = res.Metrics
	} else {
		wr.PerLayer = res.Metrics
	}
}

func cpuModel() string {
	b, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// filesystemOf names the filesystem type under dir (fsync cost, and so
// update_durable, depends on it) from statfs's magic number.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x794C7630:
		return "overlayfs"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// commitOf is the checkout's commit when it is a git repository (the
// driver's checkouts are not).
func commitOf(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// contract is the part of BENCHMARK.json the harness reads back: the
// metric names and units every result line must carry, and the bounds
// -selfcheck compares against.
type contract struct {
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func loadContract(root string) (*contract, error) {
	var c contract
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(b, &c)
	}
	if err != nil {
		return nil, fmt.Errorf("read BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// verify reports how a run's metrics depart from the contract's list:
// the result line must carry exactly those names, with those units.
func verify(want []contractMetric, got map[string]metric) error {
	var problems []string
	known := map[string]bool{}
	for _, m := range want {
		known[m.Name] = true
		if g, ok := got[m.Name]; !ok {
			problems = append(problems, "missing "+m.Name)
		} else if g.Unit != m.Unit {
			problems = append(problems, fmt.Sprintf("%s in %q, contract says %q", m.Name, g.Unit, m.Unit))
		}
	}
	for name := range got {
		if !known[name] {
			problems = append(problems, "not in the contract: "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("result does not match BENCHMARK.json: %s", strings.Join(problems, "; "))
	}
	return nil
}

// runSelfcheck runs the untraced set twice on the same build, prints
// both values and their spread for every end-to-end metric, and fails
// if any pair differs by more than that metric's bound.
func runSelfcheck(e *env, c *contract, picked []*spec, seed uint64, seconds int) int {
	code := 0
	for _, w := range picked {
		var sets [2]*result
		for i := range sets {
			res, err := newRunner(e, w, seed).runUntraced(seconds)
			if err != nil || !res.Correct {
				return max(1, report(w, "end-to-end", c.EndToEnd, res, err))
			}
			sets[i] = res
		}
		for _, m := range c.EndToEnd {
			first, second := sets[0].Metrics[m.Name], sets[1].Metrics[m.Name]
			spread := math.Abs(second.Value-first.Value) / first.Value
			verdict := "ok"
			if spread > m.Bound {
				verdict, code = "FAIL", 1
			}
			fmt.Printf("%-16s %-20s %14.4f %14.4f %-6s spread %6.2f%% bound %5.1f%% %s\n",
				w.name, m.Name, first.Value, second.Value, first.Unit, 100*spread, 100*m.Bound, verdict)
		}
	}
	return code
}
