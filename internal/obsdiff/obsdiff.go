// Package obsdiff compares two observability artifacts — JSON run reports
// written by -metrics-out, or BENCH_*.json baselines written by
// scripts/bench.sh — and classifies every numeric delta as within tolerance
// or a regression. It is the engine behind cmd/obsdiff, which CI runs
// against the committed baselines so a PR cannot silently regress coverage,
// circuit quality, determinism, or runtime.
//
// Regression direction is inferred from the delta name: quantities where
// more is worse (durations, gate/path counts, undetected faults) regress
// upward, quantities where less is worse (coverage, detections, speedups)
// regress downward, and everything else — the deterministic pipeline
// counters — regresses on any change beyond tolerance, which is what makes
// the diff a determinism gate.
package obsdiff

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"compsynth/internal/metric"
	"compsynth/internal/obs"
)

// Options sets the relative tolerances (0.1 = 10%). PerMetric overrides the
// default for individual delta names (exact match).
type Options struct {
	Tol       float64 // deterministic quantities: counters, circuit stats (default 0)
	TolTime   float64 // wall-clock quantities: durations, span timings (default 0.5)
	TolBench  float64 // benchmark ns/op, B/op and speedups (default 0.25)
	TolAlloc  float64 // benchmark allocs/op (default 0: a deterministic workload may only allocate less)
	PerMetric map[string]float64
}

// DefaultOptions returns the tolerances described above.
func DefaultOptions() Options {
	return Options{Tol: 0, TolTime: 0.5, TolBench: 0.25, TolAlloc: 0}
}

func (o Options) tolFor(name string, def float64) float64 {
	if t, ok := o.PerMetric[name]; ok {
		return t
	}
	return def
}

// direction classifies how a delta can regress.
type direction int

const (
	symmetric   direction = iota // any change beyond tolerance regresses
	higherWorse                  // only an increase regresses
	lowerWorse                   // only a decrease regresses
)

// directionOf infers the regression direction from the delta name
// (case-insensitively: Results payloads carry Go field names like
// "Detected").
func directionOf(name string) direction {
	name = strings.ToLower(name)
	for _, s := range []string{"coverage", "detected", "speedup", "testable"} {
		if strings.Contains(name, s) {
			return lowerWorse
		}
	}
	for _, s := range []string{
		"duration", "ns_per_op", "allocs", "bytes_per_op", "_ms", "remaining",
		"undetected", "gates", "paths", "equiv2", "depth", "aborted", "aborts",
		"dropped",
	} {
		if strings.Contains(name, s) {
			return higherWorse
		}
	}
	return symmetric
}

// Delta is one compared quantity.
type Delta struct {
	Name       string  `json:"name"`
	Before     float64 `json:"before"`
	After      float64 `json:"after"`
	Rel        float64 `json:"rel"` // (after-before)/|before|; ±Inf when before == 0
	Tol        float64 `json:"tol"`
	Regression bool    `json:"regression"`
	Note       string  `json:"note,omitempty"` // "missing after" / "new"
}

// Result collects every delta of one comparison.
type Result struct {
	Kind   string  `json:"kind"` // "report" or "bench"
	Deltas []Delta `json:"deltas"`
}

// Regressions returns the deltas that exceeded tolerance in the bad
// direction.
func (r *Result) Regressions() []Delta {
	var out []Delta
	for _, d := range r.Deltas {
		if d.Regression {
			out = append(out, d)
		}
	}
	return out
}

// add computes the relative change of one quantity, classifies it, and
// appends it (identical values are recorded with Rel 0).
func (r *Result) add(opt Options, name string, before, after, tol float64) {
	d := Delta{Name: name, Before: before, After: after, Tol: opt.tolFor(name, tol)}
	switch {
	case before == after:
		// exact match, Rel 0
	case before == 0:
		d.Rel = math.Inf(1)
		if after < 0 {
			d.Rel = math.Inf(-1)
		}
	default:
		d.Rel = (after - before) / math.Abs(before)
	}
	if math.Abs(d.Rel) > d.Tol {
		switch directionOf(name) {
		case symmetric:
			d.Regression = true
		case higherWorse:
			d.Regression = d.Rel > 0
		case lowerWorse:
			d.Regression = d.Rel < 0
		}
	}
	r.Deltas = append(r.Deltas, d)
}

func (r *Result) sortDeltas() {
	sort.Slice(r.Deltas, func(i, j int) bool { return r.Deltas[i].Name < r.Deltas[j].Name })
}

// Format writes one line per delta ("REGRESSION" or "ok") plus a summary;
// with all=false only regressions and the summary are printed.
func (r *Result) Format(w io.Writer, all bool) {
	for _, d := range r.Deltas {
		if !all && !d.Regression {
			continue
		}
		status := "ok        "
		if d.Regression {
			status = "REGRESSION"
		}
		line := fmt.Sprintf("%s %-46s %14g -> %-14g", status, d.Name, d.Before, d.After)
		if math.IsInf(d.Rel, 0) {
			line += fmt.Sprintf(" (from zero, tol %.0f%%)", 100*d.Tol)
		} else {
			line += fmt.Sprintf(" (%+.1f%%, tol %.0f%%)", 100*d.Rel, 100*d.Tol)
		}
		if d.Note != "" {
			line += " [" + d.Note + "]"
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%s diff: %d quantities compared, %d regressions\n",
		r.Kind, len(r.Deltas), len(r.Regressions()))
}

// --- run reports ----------------------------------------------------------

// DiffReports compares two -metrics-out run reports.
func DiffReports(before, after *obs.Report, opt Options) *Result {
	r := &Result{Kind: "report"}
	r.add(opt, "duration_ms", before.DurationMS, after.DurationMS, opt.TolTime)
	diffIntMap(r, opt, "counter.", before.Metrics.Counters, after.Metrics.Counters, opt.Tol)
	diffHistograms(r, opt, before.Metrics.Histograms, after.Metrics.Histograms)
	diffSpans(r, opt, before.Spans, after.Spans)
	diffCircuit(r, opt, "circuit_before.", before.CircuitBefore, after.CircuitBefore)
	diffCircuit(r, opt, "circuit_after.", before.CircuitAfter, after.CircuitAfter)
	diffResults(r, opt, before.Results, after.Results)
	r.sortDeltas()
	return r
}

func diffIntMap(r *Result, opt Options, prefix string, before, after map[string]int64, tol float64) {
	for _, name := range unionKeys(before, after) {
		b, inB := before[name]
		a, inA := after[name]
		d := prefix + name
		r.add(opt, d, float64(b), float64(a), tol)
		markMissing(r, inB, inA)
	}
}

func diffHistograms(r *Result, opt Options, before, after map[string]metric.HistogramStats) {
	for _, name := range unionKeys(before, after) {
		b, inB := before[name]
		a, inA := after[name]
		r.add(opt, "hist."+name+".count", float64(b.Count), float64(a.Count), opt.Tol)
		markMissing(r, inB, inA)
		// Sample counts are deterministic, but a mean over wall-clock
		// samples (latency/duration histograms) is not — grant those
		// TolTime, matching how diffResults treats _ms leaves.
		tol := opt.Tol
		if strings.Contains(name, "_ms") || strings.Contains(name, "duration") {
			tol = opt.TolTime
		}
		r.add(opt, "hist."+name+".mean", b.Mean, a.Mean, tol)
	}
}

// diffSpans aggregates each span forest by name (total duration and
// occurrence count) and compares the aggregates: timings against TolTime,
// the deterministic occurrence counts against Tol.
func diffSpans(r *Result, opt Options, before, after []obs.SpanJSON) {
	bAgg, aAgg := map[string]spanAgg{}, map[string]spanAgg{}
	aggSpans(bAgg, before)
	aggSpans(aAgg, after)
	for _, name := range unionKeys(bAgg, aAgg) {
		b, inB := bAgg[name]
		a, inA := aAgg[name]
		r.add(opt, "span."+name+".count", float64(b.count), float64(a.count), opt.Tol)
		markMissing(r, inB, inA)
		r.add(opt, "span."+name+".total_ms", b.durMS, a.durMS, opt.TolTime)
	}
}

type spanAgg struct {
	count int64
	durMS float64
}

func aggSpans(into map[string]spanAgg, spans []obs.SpanJSON) {
	for _, s := range spans {
		agg := into[s.Name]
		agg.count++
		agg.durMS += s.DurMS
		into[s.Name] = agg
		aggSpans(into, s.Children)
	}
}

func diffCircuit(r *Result, opt Options, prefix string, before, after *obs.CircuitInfo) {
	if before == nil && after == nil {
		return
	}
	var b, a obs.CircuitInfo
	if before != nil {
		b = *before
	}
	if after != nil {
		a = *after
	}
	r.add(opt, prefix+"gates", float64(b.Gates), float64(a.Gates), opt.Tol)
	r.add(opt, prefix+"equiv2", float64(b.Equiv2), float64(a.Equiv2), opt.Tol)
	r.add(opt, prefix+"depth", float64(b.Depth), float64(a.Depth), opt.Tol)
	r.add(opt, prefix+"paths", float64(b.Paths), float64(a.Paths), opt.Tol)
}

// diffResults flattens the nested Results payloads to dotted numeric leaves
// and compares every quantity present on either side. Timings (keys ending
// in _ms or containing duration) use TolTime; everything else — coverage,
// gate counts, fault tallies — uses Tol.
func diffResults(r *Result, opt Options, before, after map[string]any) {
	bLeaves, aLeaves := map[string]float64{}, map[string]float64{}
	flattenResults(bLeaves, "results", before)
	flattenResults(aLeaves, "results", after)
	for _, name := range unionKeys(bLeaves, aLeaves) {
		b, inB := bLeaves[name]
		a, inA := aLeaves[name]
		tol := opt.Tol
		if strings.HasSuffix(name, "_ms") || strings.Contains(name, "duration") {
			tol = opt.TolTime
		}
		r.add(opt, name, b, a, tol)
		markMissing(r, inB, inA)
	}
}

func flattenResults(into map[string]float64, prefix string, v any) {
	switch x := v.(type) {
	case map[string]any:
		for k, sub := range x {
			flattenResults(into, prefix+"."+k, sub)
		}
	case float64:
		into[prefix] = x
	case bool:
		if x {
			into[prefix] = 1
		} else {
			into[prefix] = 0
		}
	}
}

// markMissing annotates the delta just added when the quantity exists on
// only one side (a removed quantity is itself suspicious in a determinism
// gate, so the note makes the asymmetry visible).
func markMissing(r *Result, inBefore, inAfter bool) {
	d := &r.Deltas[len(r.Deltas)-1]
	switch {
	case inBefore && !inAfter:
		d.Note = "missing after"
	case !inBefore && inAfter:
		d.Note = "new"
	}
}

// --- bench baselines ------------------------------------------------------

// BenchFile mirrors the schema written by scripts/benchjson.
type BenchFile struct {
	Date       string       `json:"date"`
	GoVersion  string       `json:"go_version"`
	Benchmarks []BenchEntry `json:"benchmarks"`
	Speedups   []SpeedEntry `json:"speedups,omitempty"`
}

// BenchEntry is one benchmark measurement. The allocation fields are
// pointers because older baselines predate -benchmem: absent must stay
// distinguishable from a measured zero.
type BenchEntry struct {
	Name        string   `json:"name"`
	CPU         int      `json:"cpu"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// SpeedEntry is one derived serial-over-parallel speedup.
type SpeedEntry struct {
	Name    string  `json:"name"`
	CPU     int     `json:"cpu"`
	Speedup float64 `json:"speedup"`
}

// benchQuantity is one measured value plus the default tolerance that
// applies to its kind.
type benchQuantity struct {
	val float64
	tol float64
}

func collectBench(into map[string]benchQuantity, f *BenchFile, opt Options) {
	for _, b := range f.Benchmarks {
		base := fmt.Sprintf("bench.%s/cpu=%d", b.Name, b.CPU)
		into[base+".ns_per_op"] = benchQuantity{b.NsPerOp, opt.TolBench}
		if b.AllocsPerOp != nil {
			into[base+".allocs_per_op"] = benchQuantity{*b.AllocsPerOp, opt.TolAlloc}
		}
		if b.BytesPerOp != nil {
			into[base+".bytes_per_op"] = benchQuantity{*b.BytesPerOp, opt.TolBench}
		}
	}
	for _, s := range f.Speedups {
		into[fmt.Sprintf("bench.%s/cpu=%d.speedup", s.Name, s.CPU)] = benchQuantity{s.Speedup, opt.TolBench}
	}
}

// DiffBench compares two benchmark baselines: ns/op and B/op per
// (name, cpu) against TolBench (slower/bigger regresses), allocs/op
// against TolAlloc (more regresses), derived speedups against TolBench
// (lower regresses). Quantities missing from the new baseline are
// regressions outright — the gate lost coverage — while quantities new in
// the after file (a benchmark just added, or allocation columns appearing
// because the baseline predates -benchmem) are recorded as informational
// "new" deltas, never regressions: there is nothing to compare against,
// and diffing against an implicit zero would flag every addition.
func DiffBench(before, after *BenchFile, opt Options) *Result {
	r := &Result{Kind: "bench"}
	bn, an := map[string]benchQuantity{}, map[string]benchQuantity{}
	collectBench(bn, before, opt)
	collectBench(an, after, opt)
	for _, name := range unionKeys(bn, an) {
		b, inB := bn[name]
		a, inA := an[name]
		switch {
		case inB && !inA:
			r.Deltas = append(r.Deltas, Delta{
				Name: name, Before: b.val, Rel: -1, Tol: opt.tolFor(name, b.tol),
				Regression: true, Note: "missing after",
			})
		case !inB && inA:
			r.Deltas = append(r.Deltas, Delta{
				Name: name, After: a.val, Tol: opt.tolFor(name, a.tol), Note: "new",
			})
		default:
			r.add(opt, name, b.val, a.val, b.tol)
		}
	}
	r.sortDeltas()
	return r
}

// --- file loading ---------------------------------------------------------

// DiffFiles loads two artifacts and dispatches on their detected kind. Both
// files must be the same kind: a run report (has "tool") or a bench
// baseline (has "benchmarks").
func DiffFiles(beforePath, afterPath string, opt Options) (*Result, error) {
	bKind, bRaw, err := loadArtifact(beforePath)
	if err != nil {
		return nil, err
	}
	aKind, aRaw, err := loadArtifact(afterPath)
	if err != nil {
		return nil, err
	}
	if bKind != aKind {
		return nil, fmt.Errorf("cannot diff a %s against a %s", bKind, aKind)
	}
	switch bKind {
	case "report":
		var b, a obs.Report
		if err := json.Unmarshal(bRaw, &b); err != nil {
			return nil, fmt.Errorf("%s: %v", beforePath, err)
		}
		if err := json.Unmarshal(aRaw, &a); err != nil {
			return nil, fmt.Errorf("%s: %v", afterPath, err)
		}
		return DiffReports(&b, &a, opt), nil
	default:
		var b, a BenchFile
		if err := json.Unmarshal(bRaw, &b); err != nil {
			return nil, fmt.Errorf("%s: %v", beforePath, err)
		}
		if err := json.Unmarshal(aRaw, &a); err != nil {
			return nil, fmt.Errorf("%s: %v", afterPath, err)
		}
		return DiffBench(&b, &a, opt), nil
	}
}

func loadArtifact(path string) (kind string, raw []byte, err error) {
	raw, err = os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	var probe struct {
		Tool       string          `json:"tool"`
		Benchmarks json.RawMessage `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return "", nil, fmt.Errorf("%s: %v", path, err)
	}
	switch {
	case probe.Benchmarks != nil:
		return "bench", raw, nil
	case probe.Tool != "":
		return "report", raw, nil
	default:
		return "", nil, fmt.Errorf("%s: neither a run report (no \"tool\") nor a bench baseline (no \"benchmarks\")", path)
	}
}

// unionKeys returns the sorted union of both maps' keys.
func unionKeys[V any](a, b map[string]V) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var out []string
	for k := range a {
		seen[k] = true
		out = append(out, k)
	}
	for k := range b {
		if !seen[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
