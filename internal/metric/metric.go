// Package metric is the process-wide instrument registry: named counters,
// gauges and histograms behind the pipeline's run reports. It sits below
// every other internal package (no compsynth imports) so that even the
// circuit core can register instruments without an import cycle;
// internal/obs re-exports the whole API under its own name, and most
// packages keep registering through obs. The sftlint metricname rule audits
// registrations from either path.
package metric

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Metrics is a registry of named counters, gauges and histograms. All
// methods are safe for concurrent use; lookup methods on a nil registry
// return nil instruments, whose methods in turn no-op.
type Metrics struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

var std = NewMetrics()

// Default returns the process-wide registry. Pipeline packages register
// their instruments here at init; commands snapshot it into the run report.
func Default() *Metrics { return std }

// C returns (creating if needed) the counter with this name in the Default
// registry. Shorthand for package-level instrument declarations.
func C(name string) *Counter { return std.Counter(name) }

// G returns the named gauge in the Default registry.
func G(name string) *Gauge { return std.Gauge(name) }

// H returns the named histogram in the Default registry.
func H(name string) *Histogram { return std.Histogram(name) }

// Counter returns the counter registered under name, creating it if absent.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.counters[name]
	if c == nil {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if absent.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	g := m.gauges[name]
	if g == nil {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it if
// absent.
func (m *Metrics) Histogram(name string) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.histograms[name]
	if h == nil {
		h = &Histogram{maxSamples: defaultMaxSamples}
		m.histograms[name] = h
	}
	return h
}

// Counter is a monotonically increasing count (one atomic word).
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set records the current value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the last recorded value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

const defaultMaxSamples = 1 << 16

// Histogram accumulates a distribution of float64 observations. Summary
// statistics (count, sum, min, max) are exact; percentiles are computed from
// a sample buffer capped at 65536 entries (observations past the cap update
// the summaries only).
type Histogram struct {
	mu         sync.Mutex
	count      int64
	sum        float64
	min, max   float64
	samples    []float64
	maxSamples int
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if h.maxSamples == 0 {
		h.maxSamples = defaultMaxSamples
	}
	if len(h.samples) < h.maxSamples {
		h.samples = append(h.samples, v)
	}
}

// DefaultBucketBounds are the cumulative-bucket upper bounds attached to
// every histogram snapshot: a 1-2.5-5 ladder over six decades, wide enough
// for both the size-style distributions (candidate inputs, backtracks) and
// millisecond timings the pipeline observes. The +Inf bucket is implicit
// (it always equals Count).
var DefaultBucketBounds = []float64{
	1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 100000, 1e6,
}

// Bucket is one cumulative histogram bucket: Count observations were <= LE.
type Bucket struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// HistogramStats is the JSON-friendly summary of a histogram. Buckets are
// cumulative counts of the sampled observations over DefaultBucketBounds
// (the sample buffer is capped, so past the cap they undercount; Count and
// Sum stay exact).
type HistogramStats struct {
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
	Mean    float64  `json:"mean"`
	P50     float64  `json:"p50"`
	P90     float64  `json:"p90"`
	P99     float64  `json:"p99"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

func (h *Histogram) stats() HistogramStats {
	h.mu.Lock()
	s := HistogramStats{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	sorted := append([]float64(nil), h.samples...)
	h.mu.Unlock()
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
	}
	sort.Float64s(sorted)
	s.P50 = percentileSorted(sorted, 50)
	s.P90 = percentileSorted(sorted, 90)
	s.P99 = percentileSorted(sorted, 99)
	if len(sorted) > 0 {
		s.Buckets = make([]Bucket, len(DefaultBucketBounds))
		i := 0
		for bi, le := range DefaultBucketBounds {
			for i < len(sorted) && sorted[i] <= le {
				i++
			}
			s.Buckets[bi] = Bucket{LE: le, Count: int64(i)}
		}
	}
	return s
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.9999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Snapshot is a point-in-time copy of every registered instrument.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters,omitempty"`
	Gauges     map[string]int64          `json:"gauges,omitempty"`
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
}

// Snapshot copies the current value of every instrument in the registry.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	if m == nil {
		return s
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.counters) > 0 {
		s.Counters = make(map[string]int64, len(m.counters))
		for name, c := range m.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(m.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(m.gauges))
		for name, g := range m.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(m.histograms) > 0 {
		s.Histograms = make(map[string]HistogramStats, len(m.histograms))
		for name, h := range m.histograms {
			s.Histograms[name] = h.stats()
		}
	}
	return s
}

// Diff returns the counter-wise difference now-minus-base, dropping zero
// deltas and never-observed histograms. Gauges and the surviving histograms
// are taken from the later snapshot as-is.
func (s Snapshot) Diff(base Snapshot) Snapshot {
	d := Snapshot{Gauges: s.Gauges}
	if len(s.Counters) > 0 {
		d.Counters = map[string]int64{}
		for name, v := range s.Counters {
			if delta := v - base.Counters[name]; delta != 0 {
				d.Counters[name] = delta
			}
		}
	}
	if len(s.Histograms) > 0 {
		d.Histograms = map[string]HistogramStats{}
		for name, h := range s.Histograms {
			if h.Count > 0 {
				d.Histograms[name] = h
			}
		}
	}
	return d
}

// Format renders the snapshot as sorted "name value" lines (for -v output).
func (s Snapshot) Format() string {
	var lines []string
	for name, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("%-40s %d", name, v))
	}
	for name, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("%-40s %d", name, v))
	}
	for name, h := range s.Histograms {
		lines = append(lines, fmt.Sprintf("%-40s n=%d mean=%.1f p50=%.0f p90=%.0f p99=%.0f max=%.0f",
			name, h.Count, h.Mean, h.P50, h.P90, h.P99, h.Max))
	}
	sort.Strings(lines)
	out := ""
	for _, l := range lines {
		out += l + "\n"
	}
	return out
}
