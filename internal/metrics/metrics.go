// Package metrics is a dependency-free metrics layer rendering metric
// families in the Prometheus text exposition format (text/plain;
// version=0.0.4). It exists because the module has zero external
// dependencies and keeps that property while giving the service and
// gateway tiers a scrapeable /metrics endpoint.
//
// A family is one of two instrument kinds:
//
//   - A histogram vector (NewHistogramVec), the only instrument a
//     serving path observes into. Resolution (With) takes the family
//     lock once and returns a handle bound to one label set; call sites
//     resolve at construction time. Observation (Observe) on a resolved
//     handle is lock-free: no map lookup, no mutex — only atomic adds on
//     cache-line-padded shards, handed out per P through a sync.Pool so
//     concurrent writers on different Ps land on different cache lines.
//   - A func-backed family (CounterFunc, GaugeFunc) whose samples are
//     read at export time from counters the tier already keeps. It costs
//     the serving path nothing, and the exposition cannot disagree with
//     the tier's own stats. A collector runs on the scrape's goroutine,
//     so it must take no lock a write holds across I/O.
package metrics

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metric and label names must match the Prometheus data model.
var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// familyKind is the TYPE line of a family.
type familyKind string

const (
	kindCounter   familyKind = "counter"
	kindGauge     familyKind = "gauge"
	kindHistogram familyKind = "histogram"
)

// Sample is one exported time series of a func-backed family: its
// label values (matching the family's label names) and current value.
type Sample struct {
	// Labels are the label values, positionally matching the family's
	// declared label names.
	Labels []string
	// Value is the sample's current value.
	Value float64
}

// Registry holds metric families and renders them in the Prometheus
// text format. The zero value is not usable; use NewRegistry.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family is one named metric family: a fixed label-name schema plus
// either histograms resolved per label set or a collect callback.
type family struct {
	name   string
	help   string
	kind   familyKind
	labels []string
	// buckets are the histogram upper bounds (histogram families only).
	buckets []float64

	mu    sync.Mutex
	hists map[string]*Histogram // key: label values joined with 0xff
	// collect, when non-nil, makes this a func-backed family sampled at
	// export time instead of holding histograms.
	collect func() []Sample
}

// register validates and installs a family, panicking on programmer
// errors (invalid or duplicate names): metric registration happens at
// construction time, where failing loudly beats serving a broken
// exposition.
func (r *Registry) register(f *family) *family {
	if !nameRe.MatchString(f.name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !labelRe.MatchString(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q in %q", l, f.name))
		}
		if f.kind == kindHistogram && l == "le" {
			panic(fmt.Sprintf("metrics: histogram %q reserves the %q label", f.name, l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[f.name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric name %q", f.name))
	}
	f.hists = make(map[string]*Histogram)
	r.byName[f.name] = f
	r.fams = append(r.fams, f)
	return f
}

// labelKey joins label values into a sort and lookup key.
func labelKey(values []string) string { return strings.Join(values, "\xff") }

// sortedHists snapshots the histograms ordered by label values, for a
// deterministic exposition.
func (f *family) sortedHists() []*Histogram {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := make([]string, 0, len(f.hists))
	for k := range f.hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Histogram, 0, len(keys))
	for _, k := range keys {
		out = append(out, f.hists[k])
	}
	return out
}

// ---------------------------------------------------------------------
// Striped atomic cells — the hot-path storage.

// stripeCells bounds the cells a striped value fans out across. Small:
// the point is to split a contended cache line across Ps, not to scale
// with goroutine count.
const stripeCells = 8

// addFloat atomically adds v to a float64-bits cell.
//
//mp:hotpath
func addFloat(c *atomic.Uint64, v float64) {
	for {
		old := c.Load()
		if c.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// striper hands out cell indices through a sync.Pool. Get is satisfied
// from the calling P's private slot nearly always, so goroutines on
// different Ps observe into different cells without sharing any state
// on the hot path; the index is put straight back so the P keeps it.
// Pool evictions only lose the index (new ones are dealt round-robin),
// never any counted value — the cells themselves are persistent.
type striper struct {
	pool sync.Pool
	next atomic.Uint32
}

//mp:hotpath
func (s *striper) idx() int {
	if v := s.pool.Get(); v != nil {
		i := v.(int)
		s.pool.Put(v)
		return i
	}
	i := int(s.next.Add(1)-1) % stripeCells
	s.pool.Put(i) //mp:alloc-ok first use per P only; small-int boxing hits the runtime's static cache, pinned by the zero-alloc test
	return i
}

// ---------------------------------------------------------------------
// Histogram

// histShard is one stripe of a histogram: per-bucket counts plus the
// running sum. Padding keeps shards on distinct cache lines.
type histShard struct {
	counts []atomic.Uint64 // len(buckets)+1; last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits
	_      [48]byte
}

// Histogram observes float64 values into fixed buckets, resolved to
// one label set. Observe is lock-free: one atomic add on the bucket
// count and a CAS-add on the shard sum, striped across shards.
type Histogram struct {
	buckets []float64 // upper bounds, sorted ascending (+Inf implicit)
	shards  []histShard
	st      striper
	lv      []string
}

// Observe records one value.
//
//mp:hotpath
func (h *Histogram) Observe(v float64) {
	sh := &h.shards[h.st.idx()]
	// First bucket whose upper bound is ≥ v — the Prometheus "le"
	// contract. Beyond every bound lands in +Inf.
	i := sort.SearchFloat64s(h.buckets, v)
	sh.counts[i].Add(1)
	addFloat(&sh.sum, v)
}

// snapshot merges the shards into cumulative bucket counts, the total
// count, and the sum.
func (h *Histogram) snapshot() (cum []uint64, count uint64, sum float64) {
	cum = make([]uint64, len(h.buckets)+1)
	for s := range h.shards {
		for i := range h.shards[s].counts {
			cum[i] += h.shards[s].counts[i].Load()
		}
		sum += math.Float64frombits(h.shards[s].sum.Load())
	}
	var running uint64
	for i := range cum {
		running += cum[i]
		cum[i] = running
	}
	return cum, running, sum
}

// HistogramVec is a histogram family partitioned by labels.
type HistogramVec struct{ f *family }

// NewHistogramVec registers a histogram family. buckets are the upper
// bounds in ascending order; the +Inf bucket is implicit. An empty
// slice uses DefBuckets.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if len(buckets) == 0 {
		buckets = DefBuckets()
	}
	bs := make([]float64, len(buckets))
	copy(bs, buckets)
	for i := 1; i < len(bs); i++ {
		if bs[i] <= bs[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q buckets not strictly ascending", name))
		}
	}
	return &HistogramVec{f: r.register(&family{
		name: name, help: help, kind: kindHistogram, labels: labelNames, buckets: bs,
	})}
}

// NewHistogram registers a label-less histogram.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	return r.NewHistogramVec(name, help, buckets).With()
}

// With resolves the histogram for one label-value set: the same values
// return the same handle. Resolution takes the family lock; call sites
// resolve once and keep the handle.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	f := v.f
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %q wants %d label values, got %d", f.name, len(f.labels), len(labelValues)))
	}
	key := labelKey(labelValues)
	f.mu.Lock()
	defer f.mu.Unlock()
	if h, ok := f.hists[key]; ok {
		return h
	}
	h := &Histogram{buckets: f.buckets, shards: make([]histShard, stripeCells), lv: labelValues}
	for i := range h.shards {
		h.shards[i].counts = make([]atomic.Uint64, len(f.buckets)+1)
	}
	f.hists[key] = h
	return h
}

// DefBuckets is the default latency bucket layout (seconds): 100µs to
// ~13s in powers of 2 — wide enough to cover both sub-millisecond
// cached serves and multi-second saturation queueing.
func DefBuckets() []float64 { return ExpBuckets(100e-6, 2, 18) }

// ExpBuckets returns count exponentially spaced upper bounds starting
// at start and growing by factor.
func ExpBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic("metrics: ExpBuckets wants start > 0, factor > 1, count ≥ 1")
	}
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// ---------------------------------------------------------------------
// Func-backed families

// CounterFunc registers a counter family whose samples are produced by
// collect at export time. Use it to mirror counters that already exist
// (an engine's stats) into the exposition with zero hot-path cost; the
// values collect reports must be monotone.
func (r *Registry) CounterFunc(name, help string, labelNames []string, collect func() []Sample) {
	r.register(&family{name: name, help: help, kind: kindCounter, labels: labelNames, collect: collect})
}

// GaugeFunc registers a gauge family whose samples are produced by
// collect at export time (occupancy, sizes, configuration values).
func (r *Registry) GaugeFunc(name, help string, labelNames []string, collect func() []Sample) {
	r.register(&family{name: name, help: help, kind: kindGauge, labels: labelNames, collect: collect})
}
