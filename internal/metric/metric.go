// Package metric is the process-wide instrument registry: named counters
// and histograms behind the pipeline's run reports. It sits below every
// other internal package (no compsynth imports), so every package, the
// circuit core included, registers its instruments here with C and H.
//
// C and H enforce the naming contract on every instrument they create:
// the name is package.snake_case, its first segment is the registering
// package's name, and it is created while that package initializes, in a
// package-level declaration or a func init. A violation panics at start-up
// of every binary and test that links the package. Lookups of an existing
// name, and the Metrics methods, are not checked.
package metric

import (
	"fmt"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metrics is a registry of named counters and histograms. All methods are
// safe for concurrent use; lookup methods on a nil registry return nil
// instruments, whose methods in turn no-op.
type Metrics struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	histograms map[string]*Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters:   map[string]*Counter{},
		histograms: map[string]*Histogram{},
	}
}

var std = NewMetrics()

// Default returns the process-wide registry. Pipeline packages register
// their instruments here at init; commands snapshot it into the run report.
func Default() *Metrics { return std }

// C returns the counter named name in the Default registry, creating it if
// absent under the naming contract.
func C(name string) *Counter { return lookup(std, std.counters, name, true) }

// H returns the histogram named name in the Default registry, creating it
// if absent under the naming contract.
func H(name string) *Histogram { return lookup(std, std.histograms, name, true) }

// Counter returns the counter registered under name, creating it if absent.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	return lookup(m, m.counters, name, false)
}

// Histogram returns the histogram registered under name, creating it if
// absent.
func (m *Metrics) Histogram(name string) *Histogram {
	if m == nil {
		return nil
	}
	return lookup(m, m.histograms, name, false)
}

// lookup returns the instrument named name in set, one of m's maps,
// creating it if absent. With vet set (C and H), creation first checks the
// name against its caller.
func lookup[T any](m *Metrics, set map[string]*T, name string, vet bool) *T {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := set[name]
	if v == nil {
		if vet {
			vetName(name)
		}
		v = new(T)
		set[name] = v
	}
	return v
}

// nameRe is the naming convention, package.snake_case: report keys stay
// stable and greppable, and the first segment names the owning package.
var nameRe = regexp.MustCompile(`^[a-z][a-z0-9]*(\.[a-z0-9_]+)+$`)

// initRe matches the functions that run package initialization: "init"
// holds the package-level variable initializers and "init.N" a func init
// body. A closure declared there ("init.func1") may run later, so it does
// not match.
var initRe = regexp.MustCompile(`^init(\.[0-9]+)?$`)

// vetName panics unless name matches nameRe, its first segment is the name
// of the package that called C or H (an external _test package counts as
// the package it tests), and that call runs in the package's
// initialization. runtime.CallersFrames expands inlined calls, so the
// caller is found however the compiler inlined C, H and lookup.
func vetName(name string) {
	var pc [1]uintptr
	runtime.Callers(4, pc[:]) // skip Callers, vetName, lookup and C/H
	fn, _ := runtime.CallersFrames(pc[:]).Next()
	pkg, fun := splitFuncName(fn.Function)
	pkg = strings.TrimSuffix(pkg, "_test")
	switch {
	case !nameRe.MatchString(name):
		panic(fmt.Sprintf("metric: instrument name %q does not match %s", name, nameRe))
	case name[:strings.IndexByte(name, '.')] != pkg:
		panic(fmt.Sprintf("metric: instrument %q is created by package %s: its first segment must be %q",
			name, pkg, pkg))
	case !initRe.MatchString(fun):
		panic(fmt.Sprintf("metric: instrument %q is created in %s, outside package initialization: declare it in a package-level var",
			name, fn.Function))
	}
}

// splitFuncName splits a runtime function name such as
// "compsynth/internal/resynth.init.0" into the last element of its package
// path ("resynth") and the function within the package ("init.0").
func splitFuncName(full string) (pkg, fun string) {
	tail := full[strings.LastIndexByte(full, '/')+1:]
	pkg, fun, _ = strings.Cut(tail, ".")
	return pkg, fun
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
	if len(m.histograms) > 0 {
		s.Histograms = make(map[string]HistogramStats, len(m.histograms))
		for name, h := range m.histograms {
			s.Histograms[name] = h.stats()
		}
	}
	return s
}

// Diff returns the counter-wise difference now-minus-base, dropping zero
// deltas and never-observed histograms. The surviving histograms are taken
// from the later snapshot as-is.
func (s Snapshot) Diff(base Snapshot) Snapshot {
	var d Snapshot
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
