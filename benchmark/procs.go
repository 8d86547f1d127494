package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/service"
)

// env is what one harness invocation owns on disk: the repo root it
// builds from and a scratch directory inside the checkout (binaries,
// data dirs, child logs) that is removed on exit.
type env struct {
	root    string // repo root (holds go.mod, cmd/, BENCHMARK.json)
	scratch string // <root>/.bench_build/run-<pid>
	server  string // built mpserver
	gateway string // built mpgateway

	mu       sync.Mutex
	children map[*child]struct{}
}

// newEnv locates the repo root, creates the scratch directory and
// builds the two servers from source. The binaries are kept under .bench_build/bin
// across runs: go build leaves an up-to-date output alone, so only the
// first run in a checkout pays the link.
func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{
		root:     root,
		scratch:  filepath.Join(root, ".bench_build", "run-"+strconv.Itoa(os.Getpid())),
		children: make(map[*child]struct{}),
	}
	if err := os.MkdirAll(e.scratch, 0o755); err != nil {
		return nil, err
	}
	bin := filepath.Join(root, ".bench_build", "bin")
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/mpserver", "./cmd/mpgateway")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		e.close()
		return nil, fmt.Errorf("build servers: %v\n%s", err, out)
	}
	e.server, e.gateway = filepath.Join(bin, "mpserver"), filepath.Join(bin, "mpgateway")
	return e, nil
}

// findRoot walks up from the working directory to the directory whose
// go.mod declares module repro: `go run -C benchmark .` starts in
// benchmark/, run.sh and the driver start in the root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod of module repro above the working directory: run from the repository checkout")
		}
		dir = parent
	}
}

// close reaps every live child and removes the scratch directory. It is
// what both the deferred exit path and the signal handler run.
func (e *env) close() {
	e.mu.Lock()
	live := make([]*child, 0, len(e.children))
	for c := range e.children {
		live = append(live, c)
	}
	e.mu.Unlock()
	for _, c := range live {
		c.kill()
	}
	os.RemoveAll(e.scratch)
}

// child is one spawned server process.
type child struct {
	env  *env
	cmd  *exec.Cmd
	url  string
	boot time.Duration // spawn → first 2xx on /healthz
	dead atomic.Bool
}

// freeAddr picks a loopback port by listening on :0 and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// spawn starts bin on a fresh loopback port and waits until it answers
// /healthz.
func (e *env) spawn(name, bin string, args ...string) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(e.scratch, fmt.Sprintf("%s-%s.log", name, strings.TrimPrefix(addr, "127.0.0.1:")))
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{env: e, cmd: cmd, url: "http://" + addr}
	e.mu.Lock()
	e.children[c] = struct{}{}
	e.mu.Unlock()

	probe := service.New(c.url, service.WithTimeout(time.Second))
	for time.Since(start) < 20*time.Second {
		if probe.Health(context.Background()) == nil {
			c.boot = time.Since(start)
			return c, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.kill()
	tail, _ := os.ReadFile(logPath)
	return nil, fmt.Errorf("%s did not answer /healthz within 20s:\n%s", name, tail)
}

// kill sends SIGKILL — the crash the durability check needs, and the
// only stop that cannot hang — and waits for the process to be reaped.
func (c *child) kill() {
	if c.dead.Swap(true) {
		return
	}
	c.cmd.Process.Signal(syscall.SIGKILL)
	c.cmd.Wait()
	c.env.mu.Lock()
	delete(c.env.children, c)
	c.env.mu.Unlock()
}

// peakRSSMiB reads the process's VmHWM from /proc.
func (c *child) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", c.cmd.Process.Pid)
}

// stack is one workload's running servers: the URL clients talk to
// (the gateway, or the single server) and the mpserver processes behind
// it.
type stack struct {
	front    *child
	backends []*child
	dataDir  string
}

func (s *stack) procs() []*child {
	if len(s.backends) > 0 && s.front != s.backends[0] {
		return append([]*child{s.front}, s.backends...)
	}
	return s.backends
}

func (s *stack) kill() {
	for _, c := range s.procs() {
		c.kill()
	}
}

// bootMs is the slowest child's spawn → /healthz time: the stack serves
// once its last process does.
func (s *stack) bootMs() float64 {
	var worst time.Duration
	for _, c := range s.procs() {
		if c.boot > worst {
			worst = c.boot
		}
	}
	return ms(worst)
}

func (s *stack) peakRSSMiB() (float64, error) {
	var sum float64
	for _, c := range s.procs() {
		v, err := c.peakRSSMiB()
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// start boots the workload's servers. dataDir is reused when non-empty
// (a restart after a crash); otherwise a durable workload gets a fresh
// one.
func (e *env) start(w *spec, dataDir string) (*stack, error) {
	s := &stack{dataDir: dataDir}
	var flags []string
	if w.noCache {
		flags = append(flags, "-no-cache")
	}
	if w.durable {
		if s.dataDir == "" {
			dir, err := os.MkdirTemp(e.scratch, "data-")
			if err != nil {
				return nil, err
			}
			s.dataDir = dir
		}
		flags = append(flags, "-data-dir", s.dataDir, "-fsync", "always")
	}
	backends := 1
	if w.gateway {
		backends = 2
	}
	for i := 0; i < backends; i++ {
		c, err := e.spawn("mpserver", e.server, flags...)
		if err != nil {
			s.kill()
			return nil, err
		}
		s.backends = append(s.backends, c)
	}
	s.front = s.backends[0]
	if w.gateway {
		urls := []string{s.backends[0].url, s.backends[1].url}
		gw, err := e.spawn("mpgateway", e.gateway, "-backends", strings.Join(urls, ","), "-replication", "2")
		if err != nil {
			s.kill()
			return nil, err
		}
		s.front = gw
	}
	return s, nil
}

// countingTransport counts HTTP body bytes in both directions — what
// wire_bytes_per_op reports.
type countingTransport struct {
	base  http.RoundTripper
	bytes atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.ContentLength > 0 {
		t.bytes.Add(req.ContentLength)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
