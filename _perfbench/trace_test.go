package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// Self time is the span minus the union of its children's intervals, so
// overlapping children are not subtracted twice; CPU and allocation
// subtract the children's.
func TestSelfTimes(t *testing.T) {
	spans := []*span{
		{ID: 0, Parent: -1, Start: 0, End: 10, CPU: 12, Alloc: 1000},
		{ID: 1, Parent: 0, Start: 1, End: 4, CPU: 3, Alloc: 100},
		{ID: 2, Parent: 0, Start: 3, End: 6, CPU: 5, Alloc: 200},
		{ID: 3, Parent: 2, Start: 4, End: 5, CPU: 1, Alloc: 50},
		{ID: 4, Parent: 0, Start: 8, End: 9, CPU: 1, Alloc: 0},
	}
	self, cpu, alloc := selfTimes(spans)
	for i, want := range []float64{10 - 5 - 1, 3, 3 - 1, 1, 1} {
		if !near(self[i], want) {
			t.Errorf("self[%d] = %v, want %v", i, self[i], want)
		}
	}
	if !near(cpu[0], 12-3-5-1) || !near(cpu[2], 4) || !near(alloc[0], 700) || !near(alloc[2], 150) {
		t.Errorf("cpu %v alloc %v", cpu, alloc)
	}
}

func TestCovered(t *testing.T) {
	for _, c := range []struct {
		ivs  [][2]float64
		want float64
	}{
		{nil, 0},
		{[][2]float64{{0, 1}, {2, 3}}, 2},
		{[][2]float64{{2, 5}, {0, 3}}, 5},
		{[][2]float64{{0, 10}, {2, 3}}, 10},
		{[][2]float64{{1, 1}, {4, 2}}, 0},
	} {
		if got := covered(c.ivs); !near(got, c.want) {
			t.Errorf("covered(%v) = %v, want %v", c.ivs, got, c.want)
		}
	}
}

// A failed call counts as ratio 1, so it can neither help nor vanish.
func TestGeomeanWithFailedCall(t *testing.T) {
	ok := rewrite{gatesBefore: 100, gatesAfter: 25, pathsBefore: 400, pathsAfter: 100}
	failed := errors.New("pass 1 broke equivalence")
	ratios := []float64{ok.gateRatio(nil), ok.gateRatio(failed)}
	if !near(ratios[1], 1) || !near(ok.pathRatio(failed), 1) {
		t.Fatalf("failed call ratio %v, want 1", ratios[1])
	}
	if got := geomean(ratios); !near(got, 0.5) {
		t.Errorf("geomean(0.25, 1) = %v, want 0.5", got)
	}
	if !near(geomean(nil), 1) || !near(geomean([]float64{0.9}), 0.9) {
		t.Error("geomean of none or one")
	}
}

// A failed removal leaves every fault of its input unproven, so it can
// only raise unproven_share.
func TestUnprovenWithFailedCall(t *testing.T) {
	var q quality
	q.addUnproven(100, 2, nil)
	if !near(share(q.unproven, q.faults), 0.02) {
		t.Fatalf("unproven %v of %v, want 2 of 100", q.unproven, q.faults)
	}
	q.addUnproven(50, 0, errors.New("removal failed its check"))
	if q.unproven != 52 || q.faults != 150 {
		t.Errorf("unproven %v of %v after a failed call, want 52 of 150", q.unproven, q.faults)
	}
}

// wall_s sums the fastest timing of each call.
func TestWallSumsFastest(t *testing.T) {
	r := &runner{}
	got := r.wall(map[callKey][]float64{
		{"a", "x"}: {3, 1, 2},
		{"b", "x"}: {0.5, 0.7},
	})
	if !near(got, 1.5) {
		t.Errorf("wall = %v, want 1.5", got)
	}
}

// A counter is scheduling-dependent when its delta moves between passes.
func TestSchedulingDependent(t *testing.T) {
	pass := func(moved int, v int64) []int64 {
		p := make([]int64, len(counterNames))
		for i := range p {
			p[i] = int64(i)
		}
		p[moved] = v
		return p
	}
	sched := schedulingDependent([][]int64{pass(3, 3), pass(3, 3), pass(5, 9)})
	for i, s := range sched {
		if want := i == 5; s != want {
			t.Errorf("%s sched = %v, want %v", counterNames[i], s, want)
		}
	}
	for i, s := range schedulingDependent([][]int64{pass(0, 1)}) {
		if s {
			t.Errorf("one pass marks %s sched", counterNames[i])
		}
	}
}

// knownSched lists the counters the program's concurrent candidate
// prefetch can move, by computing one cache entry twice (measured at two
// workers: 21 516 versus 21 543 identify calls on one input).
var knownSched = map[string]bool{
	"compare.identify_calls":      true,
	"compare.identify_hits":       true,
	"resynth.identify_cache_hits": true,
}

// Traced passes of the synth calls on rs1423 mark no counter outside
// knownSched as scheduling-dependent, and none of the calls fails.
func TestCountersRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs resynthesis")
	}
	w := *find("synth")
	w.nets = w.nets[:1]
	r, err := newRunner(&w, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	r.spans = newTracer()
	for i := 0; i < 3; i++ {
		r.pass(true)
	}
	if r.failed != 0 {
		t.Fatalf("%d calls failed: %v", r.failed, r.failures)
	}
	for name, mark := range r.counterMarks() {
		if mark == "sched" && !knownSched[name] {
			t.Errorf("%s moved between traced passes of the same input", name)
		}
	}
}

func TestShareAndMedian(t *testing.T) {
	if share(3, 0) != 0 || !near(share(1, 4), 0.25) {
		t.Error("share")
	}
	if median(nil) != 0 || median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Error("median")
	}
}

// Ratios are computed from the counter totals with the stated bases, and
// every layer reads per pass.
func TestLayerMetricsRatios(t *testing.T) {
	tr := &tracer{}
	tr.spans = []*span{
		{ID: 0, Parent: -1, Layer: "redundancy", Start: 0, End: 4, CPU: 4,
			Counters: map[string]int64{"atpg.calls": 40, "atpg.backtracks": 1000, "atpg.aborts": 4}},
		{ID: 1, Parent: 0, Layer: "atpg", Start: 1, End: 3, CPU: 2},
		{ID: 2, Parent: -1, Layer: "resynth", Start: 4, End: 6, CPU: 3,
			Counters: map[string]int64{"resynth.candidates_examined": 200, "resynth.replacements_accepted": 50}},
	}
	m := tr.layerMetrics(2, 0.01)
	for name, want := range map[string]float64{
		"atpg.calls":               20,
		"atpg.backtracks_per_call": 25,
		"atpg.decided_share":       0.9,
		"atpg.self_s":              1,
		"redundancy.self_s":        1,
		"redundancy.calls":         0.5,
		"resynth.accept_ratio":     0.25,
		"resynth.parallelism":      1.5,
		"faultsim.parallelism":     0,
		"bench.parse_s":            0.01,
	} {
		if got := m[name].Value; !near(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	for _, name := range perLayerNames() {
		if _, ok := m[name]; !ok && name[:6] != "trace." {
			t.Errorf("per-layer metric %s missing", name)
		}
	}
}

// perLayerNames lists every metric a traced run reports.
func perLayerNames() []string {
	m := (&tracer{}).layerMetrics(1, 0)
	for _, n := range []string{"trace.traced_wall_s", "trace.untraced_wall_s", "trace.overhead_s"} {
		m[n] = metricValue{}
	}
	var names []string
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// BENCHMARK.json must list exactly the metrics the runs print, with the
// same units, and name exactly the workloads defined here.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to _perfbench")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var ws []string
	for _, w := range spec.Workloads {
		ws = append(ws, w.Name)
		if find(w.Name) == nil {
			t.Errorf("workload %s not defined", w.Name)
		}
	}
	if len(ws) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v", ws)
	}
	r := &runner{w: workloads[0], setup: []float64{0.001}}
	want := map[string]string{}
	for _, m := range r.endToEnd() {
		want[m.name] = m.unit
	}
	for _, m := range spec.EndToEnd {
		if want[m.Name] != m.Unit {
			t.Errorf("end_to_end %s [%s]: run reports unit %q", m.Name, m.Unit, want[m.Name])
		}
		delete(want, m.Name)
	}
	for n := range want {
		t.Errorf("end-to-end metric %s missing from BENCHMARK.json", n)
	}
	layer := (&tracer{}).layerMetrics(1, 0)
	var got []string
	for _, m := range spec.PerLayer {
		got = append(got, m.Name)
		if u, ok := layer[m.Name]; ok && u.Unit != m.Unit {
			t.Errorf("per_layer %s [%s]: run reports unit %q", m.Name, m.Unit, u.Unit)
		}
	}
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(perLayerNames(), " ") {
		t.Errorf("per_layer lists\n%v\nruns report\n%v", got, perLayerNames())
	}
}
