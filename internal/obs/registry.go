// Package obs is the process-wide telemetry spine: a pre-registered
// metrics registry of atomic counters, gauges and fixed-bucket
// histograms, allocation-free region timers, a per-run JSONL event journal,
// and an optional debug HTTP endpoint serving metric snapshots and
// pprof.
//
// The registry contract:
//
//   - Metrics are registered once, at package init, as package-level
//     vars (see metrics.go). Lookup never happens on a hot path —
//     instrumented code holds a direct *Counter/*Histogram pointer.
//   - Bumping a metric never allocates and never takes a lock. Counters
//     and gauges are single padded atomics; histograms are fixed arrays
//     of atomics indexed by bit length.
//   - Instrumentation is pure observation: it must not perturb RNG
//     streams, float summation order, or any other simulated state. The
//     golden-trace bit-determinism tests run with telemetry enabled and
//     hold the subsystem to that contract.
//
// Hot loops that cannot afford even an uncontended atomic per event
// (the cache/env step path) accumulate into plain owner-goroutine
// fields and flush whole episodes into the registry — see
// internal/cache and internal/env.
package obs

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// pad fills the rest of a cache line after one 8-byte atomic so that
// independently-bumped metrics never share a line (false sharing would
// make "allocation-free" true but "cheap" false on parallel campaigns).
type pad [56]byte

// A Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v atomic.Uint64
	_ pad
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// A Gauge is an instantaneous int64 metric.
type Gauge struct {
	v atomic.Int64
	_ pad
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histBuckets is the fixed bucket count: bucket 0 holds zero-valued
// observations, bucket i≥1 holds values in [2^(i-1), 2^i). 48 buckets
// cover every nanosecond duration up to ~4 years.
const histBuckets = 48

// A Histogram is a fixed power-of-two-bucket histogram of non-negative
// observations (by convention nanoseconds). Observe is lock-free and
// allocation-free.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(uint64(v))
	i := bits.Len64(uint64(v))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// snapshotHist reads the buckets once and derives summary quantiles.
// Concurrent Observe calls may tear count vs. buckets by a few events;
// snapshots are monitoring data, not accounting.
func (h *Histogram) snapshot() HistogramSnapshot {
	var b [histBuckets]uint64
	var total uint64
	for i := range b {
		b[i] = h.buckets[i].Load()
		total += b[i]
	}
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	if total == 0 {
		return s
	}
	s.P50 = histQuantile(&b, total, 0.50)
	s.P90 = histQuantile(&b, total, 0.90)
	s.P99 = histQuantile(&b, total, 0.99)
	for i := histBuckets - 1; i >= 0; i-- {
		if b[i] != 0 {
			s.Max = bucketUpper(i)
			break
		}
	}
	return s
}

// histQuantile returns the upper bound of the bucket containing the
// q-quantile observation — an estimate within a factor of two, which is
// all a power-of-two histogram promises.
func histQuantile(b *[histBuckets]uint64, total uint64, q float64) float64 {
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += b[i]
		if cum >= rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// bucketUpper returns the exclusive upper bound of bucket i.
func bucketUpper(i int) float64 {
	if i == 0 {
		return 0
	}
	return math.Ldexp(1, i) // 2^i
}

// HistogramSnapshot summarises one histogram at a point in time. Units
// follow the metric (nanoseconds for all built-in histograms).
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Snapshot is a point-in-time copy of every registered metric, shaped
// for JSON (the -debug-addr /metrics payload).
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// registry holds name → metric. Registration is rare (package init, or
// a NewHistogram call outside the hot path) and mutex-guarded; reads on
// the bump path never touch it.
// Initialized as a var (not in init) so the pre-registered metric vars
// in metrics.go, which run first in package-variable dependency order,
// find live maps.
var registry = struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}{
	counters:   make(map[string]*Counter),
	gauges:     make(map[string]*Gauge),
	histograms: make(map[string]*Histogram),
}

// NewCounter registers (or returns the already-registered) counter.
func NewCounter(name string) *Counter {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if c, ok := registry.counters[name]; ok {
		return c
	}
	c := new(Counter)
	registry.counters[name] = c
	return c
}

// NewGauge registers (or returns the already-registered) gauge.
func NewGauge(name string) *Gauge {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if g, ok := registry.gauges[name]; ok {
		return g
	}
	g := new(Gauge)
	registry.gauges[name] = g
	return g
}

// NewHistogram registers (or returns the already-registered) histogram.
func NewHistogram(name string) *Histogram {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if h, ok := registry.histograms[name]; ok {
		return h
	}
	h := new(Histogram)
	registry.histograms[name] = h
	return h
}

// TakeSnapshot copies every registered metric. Safe to call while
// metrics are being bumped.
func TakeSnapshot() Snapshot {
	registry.mu.Lock()
	counters := make([]struct {
		name string
		c    *Counter
	}, 0, len(registry.counters))
	for name, c := range registry.counters {
		counters = append(counters, struct {
			name string
			c    *Counter
		}{name, c})
	}
	gauges := make([]struct {
		name string
		g    *Gauge
	}, 0, len(registry.gauges))
	for name, g := range registry.gauges {
		gauges = append(gauges, struct {
			name string
			g    *Gauge
		}{name, g})
	}
	hists := make([]struct {
		name string
		h    *Histogram
	}, 0, len(registry.histograms))
	for name, h := range registry.histograms {
		hists = append(hists, struct {
			name string
			h    *Histogram
		}{name, h})
	}
	registry.mu.Unlock()

	s := Snapshot{
		Counters:   make(map[string]uint64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(hists)),
	}
	for _, e := range counters {
		s.Counters[e.name] = e.c.Load()
	}
	for _, e := range gauges {
		s.Gauges[e.name] = e.g.Load()
	}
	for _, e := range hists {
		s.Histograms[e.name] = e.h.snapshot()
	}
	return s
}

// disabled gates the episode-flush paths (zero value ⇒ telemetry on).
// The plain per-step accumulation in cache/env is too cheap to gate;
// disabling only stops flushes from reaching the registry, which lets
// benchmarks measure the truly uninstrumented hot path.
var disabled atomic.Bool

// SetEnabled turns registry flushes on or off (default on).
func SetEnabled(on bool) { disabled.Store(!on) }

// Enabled reports whether registry flushes are on.
func Enabled() bool { return !disabled.Load() }
