package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"compsynth/internal/metric"
)

// counterNames lists every counter of layerCounters; the traced run reads
// each, as a delta, at every span boundary.
var counterNames = func() []string {
	var names []string
	for _, ns := range layerCounters {
		names = append(names, ns...)
	}
	sort.Strings(names)
	return names
}()

// schedulingDependent reports, for each counter of counterNames, whether
// its delta differs between the passes: every traced pass makes the same
// calls on the same inputs, so only goroutine scheduling can move a
// counter between them.
func schedulingDependent(passes [][]int64) []bool {
	sched := make([]bool, len(counterNames))
	for _, p := range passes {
		for i, v := range p {
			sched[i] = sched[i] || v != passes[0][i]
		}
	}
	return sched
}

// programSpanLayer maps the spans the program records when handed a tracer
// to the layer whose time they split out of the calling layer. Other
// program spans stay part of their caller.
var programSpanLayer = map[string]string{
	"resynth.verify":    "simulate",
	"redundancy.atpg":   "atpg",
	"faultsim.campaign": "faultsim",
}

// span is one call into a layer, timed from outside the layer.
type span struct {
	ID       int              `json:"id"`
	Parent   int              `json:"parent"` // -1 at the root of an operation
	Op       int              `json:"op"`     // shared by every span of one operation
	Name     string           `json:"name"`
	Layer    string           `json:"layer"`
	Start    float64          `json:"start_s"` // since the tracer started
	End      float64          `json:"end_s"`
	CPU      float64          `json:"cpu_s"`
	Alloc    uint64           `json:"alloc_bytes"`
	Counters map[string]int64 `json:"counters,omitempty"`

	cpu0   time.Duration
	alloc0 uint64
	ctr0   []int64
}

// tracer keeps every span in memory; write stores them at the end.
type tracer struct {
	t0       time.Time
	spans    []*span
	stack    []*span
	op       int
	counters []*metric.Counter
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	for _, name := range counterNames {
		t.counters = append(t.counters, metric.Default().Counter(name))
	}
	return t
}

func (t *tracer) readCounters() []int64 {
	v := make([]int64, len(t.counters))
	for i, c := range t.counters {
		v[i] = c.Value()
	}
	return v
}

// begin opens a span as a child of the innermost open span; a span opened
// with none open starts a new operation.
func (t *tracer) begin(name, layer string) *span {
	s := &span{ID: len(t.spans), Parent: -1, Name: name, Layer: layer}
	if n := len(t.stack); n > 0 {
		s.Parent = t.stack[n-1].ID
		s.Op = t.stack[n-1].Op
	} else {
		t.op++
		s.Op = t.op
	}
	t.spans = append(t.spans, s)
	t.stack = append(t.stack, s)
	s.ctr0 = t.readCounters()
	s.alloc0 = allocBytes()
	s.cpu0 = cpuNow()
	s.Start = time.Since(t.t0).Seconds()
	return s
}

func (t *tracer) end(s *span) {
	s.End = time.Since(t.t0).Seconds()
	s.CPU = (cpuNow() - s.cpu0).Seconds()
	s.Alloc = allocBytes() - s.alloc0
	for i, v := range t.readCounters() {
		if d := v - s.ctr0[i]; d != 0 {
			if s.Counters == nil {
				s.Counters = map[string]int64{}
			}
			s.Counters[counterNames[i]] = d
		}
	}
	for n := len(t.stack); n > 0; n-- {
		if t.stack[n-1] == s {
			t.stack = t.stack[:n-1]
			break
		}
	}
}

// SpanBegin and SpanEnd make the tracer an obs.SpanObserver, so the spans
// the program records split its calls into layers.
func (t *tracer) SpanBegin(name string, depth int) {
	if layer, ok := programSpanLayer[name]; ok {
		t.begin(name, layer)
	}
}

func (t *tracer) SpanEnd(name string, depth int, dur time.Duration, allocBytes int64) {
	if _, ok := programSpanLayer[name]; !ok {
		return
	}
	if n := len(t.stack); n > 0 && t.stack[n-1].Name == name {
		t.end(t.stack[n-1])
	}
}

// layerStats is one row of the per-layer table.
type layerStats struct {
	self, cpu float64
	alloc     float64 // bytes
	calls     int
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its children cover, and its CPU time and allocation minus
// its children's.
func selfTimes(spans []*span) (self, cpu, alloc []float64) {
	children := make([][]*span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self = make([]float64, len(spans))
	cpu = make([]float64, len(spans))
	alloc = make([]float64, len(spans))
	for i, s := range spans {
		cpu[i], alloc[i] = s.CPU, float64(s.Alloc)
		ivs := make([][2]float64, 0, len(children[i]))
		for _, c := range children[i] {
			cpu[i] -= c.CPU
			alloc[i] -= float64(c.Alloc)
			ivs = append(ivs, [2]float64{max(c.Start, s.Start), min(c.End, s.End)})
		}
		self[i] = s.End - s.Start - covered(ivs)
	}
	return self, cpu, alloc
}

// covered returns the total length of the union of the intervals.
func covered(ivs [][2]float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, end := 0.0, 0.0
	for i, iv := range ivs {
		if iv[1] <= iv[0] {
			continue
		}
		if i == 0 || iv[0] > end {
			total += iv[1] - iv[0]
			end = iv[1]
		} else if iv[1] > end {
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}

// layers aggregates the spans by layer, and sums the counter deltas of the
// operation roots (a root's deltas include its children's).
func (t *tracer) layers() (map[string]*layerStats, map[string]int64) {
	self, cpu, alloc := selfTimes(t.spans)
	rows := map[string]*layerStats{}
	ctr := map[string]int64{}
	for i, s := range t.spans {
		r := rows[s.Layer]
		if r == nil {
			r = &layerStats{}
			rows[s.Layer] = r
		}
		r.self += self[i]
		r.cpu += cpu[i]
		r.alloc += alloc[i]
		r.calls++
		if s.Parent < 0 {
			for k, v := range s.Counters {
				ctr[k] += v
			}
		}
	}
	return rows, ctr
}

// write stores the spans, the run's host record and the counter marks as
// JSON.
func (t *tracer) write(path string, host map[string]any, marks map[string]string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"host": host, "counters": marks, "spans": t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerOrder fixes the table's row order: setup first, then the layers in
// the order the paper's flow reaches them.
var layerOrder = []string{"bench", "resynth", "simulate", "redundancy", "atpg", "faults", "faultsim", "delay"}

// layerCounters are the program counters reported on each layer's row.
var layerCounters = map[string][]string{
	"resynth": {"resynth.passes", "resynth.candidates_examined", "resynth.replacements_accepted",
		"resynth.dirty_nodes", "resynth.extract_cache_hits", "resynth.identify_cache_hits",
		"compare.identify_calls", "compare.identify_hits"},
	"redundancy": {"redundancy.rounds", "redundancy.faults_proven_redundant", "redundancy.faults_aborted"},
	"atpg":       {"atpg.calls", "atpg.backtracks", "atpg.aborts", "atpg.redundant_proofs"},
	"faultsim":   {"faultsim.patterns_simulated", "faultsim.fault_evals", "faultsim.faults_detected"},
	"delay":      {"delay.pairs_simulated", "delay.path_faults_detected"},
	"circuit":    {"circuit.csr_rebuilds", "circuit.csr_patched_nodes", "circuit.csr_full_rebuilds"},
	"par":        {"par.tasks", "par.parallel_runs"},
}

// layerMetrics turns the traced passes into the per-layer metrics, each
// divided by passes so they read per pass over the workload's netlists.
// The atpg layer's calls are the program's PODEM call count; its spans are
// one per redundancy-removal round.
func (t *tracer) layerMetrics(passes int, parseS float64) map[string]metricValue {
	rows, ctr := t.layers()
	per := float64(passes)
	m := map[string]metricValue{}
	put := func(name, unit string, v float64) { m[name] = metricValue{v, unit} }
	for _, l := range layerOrder {
		r := rows[l]
		if r == nil {
			r = &layerStats{}
		}
		put(l+".self_s", "s", r.self/per)
		put(l+".cpu_s", "s", r.cpu/per)
		put(l+".alloc_mb", "MB", r.alloc/per/(1<<20))
		if l != "atpg" {
			put(l+".calls", "count", float64(r.calls)/per)
		}
	}
	for _, name := range counterNames {
		put(name, "count", float64(ctr[name])/per)
	}
	put("bench.parse_s", "s", parseS)
	put("resynth.accept_ratio", "ratio", share(float64(ctr["resynth.replacements_accepted"]), float64(ctr["resynth.candidates_examined"])))
	put("resynth.parallelism", "ratio", share(m["resynth.cpu_s"].Value, m["resynth.self_s"].Value))
	put("atpg.backtracks_per_call", "ratio", share(float64(ctr["atpg.backtracks"]), float64(ctr["atpg.calls"])))
	put("atpg.decided_share", "share", share(float64(ctr["atpg.calls"]-ctr["atpg.aborts"]), float64(ctr["atpg.calls"])))
	put("faultsim.parallelism", "ratio", share(m["faultsim.cpu_s"].Value, m["faultsim.self_s"].Value))
	return m
}

// printLayers writes the per-layer table: self time, CPU, allocation and
// calls per pass, then each counter with its mark (exact or sched, over
// passes traced passes), then each ratio with its base.
func printLayers(w io.Writer, workload string, m map[string]metricValue, marks map[string]string, passes int) {
	fmt.Fprintf(w, "layer table (%s, per pass over the workload's netlists):\n", workload)
	fmt.Fprintf(w, "  %-11s %10s %10s %10s %8s\n", "layer", "self_s", "cpu_s", "alloc_mb", "calls")
	for _, l := range layerOrder {
		calls := m[l+".calls"].Value
		if l == "atpg" {
			calls = m["atpg.calls"].Value
		}
		fmt.Fprintf(w, "  %-11s %10.4f %10.4f %10.2f %8.1f\n", l,
			m[l+".self_s"].Value, m[l+".cpu_s"].Value, m[l+".alloc_mb"].Value, calls)
	}
	fmt.Fprintf(w, "  counters (exact = same delta in all %d traced passes; sched = the delta moved, so it depends on goroutine scheduling):\n", passes)
	for _, name := range counterNames {
		fmt.Fprintf(w, "    %-36s %14.1f  %s\n", name, m[name].Value, marks[name])
	}
	fmt.Fprintln(w, "  ratios:")
	for _, r := range []struct{ name, base string }{
		{"resynth.accept_ratio", "resynth.candidates_examined"},
		{"resynth.parallelism", "resynth.self_s"},
		{"atpg.backtracks_per_call", "atpg.calls"},
		{"atpg.decided_share", "atpg.calls"},
		{"faultsim.parallelism", "faultsim.self_s"},
	} {
		fmt.Fprintf(w, "    %-26s %10.4f  base %s = %.4f\n", r.name, m[r.name].Value, r.base, m[r.base].Value)
	}
	fmt.Fprintf(w, "  tracing overhead: traced %.4f s - untraced %.4f s = %.4f s per pass\n",
		m["trace.traced_wall_s"].Value, m["trace.untraced_wall_s"].Value, m["trace.overhead_s"].Value)
}
