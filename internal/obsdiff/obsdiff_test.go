package obsdiff

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compsynth/internal/metric"
	"compsynth/internal/obs"
)

func report(dur float64, counters map[string]int64) *obs.Report {
	return &obs.Report{Tool: "t", DurationMS: dur, Metrics: metric.Snapshot{Counters: counters}}
}

func names(ds []Delta) []string {
	var out []string
	for _, d := range ds {
		out = append(out, d.Name)
	}
	return out
}

func TestDiffReportsIdentical(t *testing.T) {
	r := report(100, map[string]int64{"resynth.passes": 3, "faultsim.fault_evals": 500})
	res := DiffReports(r, r, DefaultOptions())
	if regs := res.Regressions(); len(regs) != 0 {
		t.Fatalf("self-diff regressed: %v", names(regs))
	}
	if len(res.Deltas) == 0 {
		t.Fatal("self-diff compared nothing")
	}
}

// TestDiffReportsCounterRegression pins the determinism gate: the default
// tolerance for counters is zero, so any drift regresses.
func TestDiffReportsCounterRegression(t *testing.T) {
	before := report(100, map[string]int64{"resynth.candidates_examined": 1000})
	after := report(100, map[string]int64{"resynth.candidates_examined": 1001})
	regs := DiffReports(before, after, DefaultOptions()).Regressions()
	if len(regs) != 1 || regs[0].Name != "counter.resynth.candidates_examined" {
		t.Fatalf("regressions = %v, want the drifted counter", names(regs))
	}
}

// TestHistogramTimingTolerance pins the histogram hygiene rule: sample
// counts are deterministic and diff at Tol (zero), but the mean of a
// wall-clock histogram (a name with _ms or duration in it) varies run to
// run and diffs at TolTime instead.
func TestHistogramTimingTolerance(t *testing.T) {
	hist := func(name string, count int64, mean float64) *obs.Report {
		return &obs.Report{Tool: "t", Metrics: metric.Snapshot{
			Histograms: map[string]metric.HistogramStats{name: {Count: count, Mean: mean}},
		}}
	}
	opt := DefaultOptions()
	// A 30% slower mean on a timing histogram is within TolTime (50%).
	regs := DiffReports(hist("par.task_wait_ms", 64, 1.0), hist("par.task_wait_ms", 64, 1.3), opt).Regressions()
	if len(regs) != 0 {
		t.Errorf("timing-histogram mean jitter regressed: %v", names(regs))
	}
	// The same drift on a non-timing histogram stays a zero-tol regression.
	regs = DiffReports(hist("resynth.candidate_inputs", 64, 1.0), hist("resynth.candidate_inputs", 64, 1.3), opt).Regressions()
	if len(regs) != 1 || regs[0].Name != "hist.resynth.candidate_inputs.mean" {
		t.Errorf("deterministic histogram mean drift did not regress: %v", names(regs))
	}
	// Sample-count drift regresses even on timing histograms.
	regs = DiffReports(hist("par.task_wait_ms", 64, 1.0), hist("par.task_wait_ms", 65, 1.0), opt).Regressions()
	if len(regs) != 1 || regs[0].Name != "hist.par.task_wait_ms.count" {
		t.Errorf("timing-histogram count drift did not regress: %v", names(regs))
	}
}

// TestResultJSONShape pins the machine-readable schema behind obsdiff -json:
// consumers rely on the kind/deltas envelope and the per-delta field names.
func TestResultJSONShape(t *testing.T) {
	before := report(100, map[string]int64{"resynth.passes": 3})
	after := report(100, map[string]int64{"resynth.passes": 4})
	raw, err := json.Marshal(DiffReports(before, after, DefaultOptions()))
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Kind   string `json:"kind"`
		Deltas []struct {
			Name       string  `json:"name"`
			Before     float64 `json:"before"`
			After      float64 `json:"after"`
			Rel        float64 `json:"rel"`
			Tol        float64 `json:"tol"`
			Regression bool    `json:"regression"`
		} `json:"deltas"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Kind != "report" || len(decoded.Deltas) == 0 {
		t.Fatalf("JSON envelope = kind %q with %d deltas", decoded.Kind, len(decoded.Deltas))
	}
	found := false
	for _, d := range decoded.Deltas {
		if d.Name == "counter.resynth.passes" {
			found = true
			if d.Before != 3 || d.After != 4 || !d.Regression {
				t.Errorf("delta fields did not survive the JSON round trip: %+v", d)
			}
		}
	}
	if !found {
		t.Error("counter delta missing from JSON output")
	}
}

// TestDirection pins that regression direction follows the quantity name:
// wall-clock may improve freely, coverage may only fall, detections may
// only fall, and "more is worse" quantities may only rise.
func TestDirection(t *testing.T) {
	opt := DefaultOptions()

	// duration_ms: faster is fine even at -70%, slower beyond TolTime regresses.
	if regs := DiffReports(report(100, nil), report(30, nil), opt).Regressions(); len(regs) != 0 {
		t.Errorf("a faster run regressed: %v", names(regs))
	}
	if regs := DiffReports(report(100, nil), report(200, nil), opt).Regressions(); len(regs) != 1 {
		t.Errorf("a 2x slower run did not regress: %v", names(regs))
	}

	// detected: lower is worse, higher is an improvement.
	down := DiffReports(report(0, map[string]int64{"faultsim.faults_detected": 100}),
		report(0, map[string]int64{"faultsim.faults_detected": 90}), opt)
	if len(down.Regressions()) != 1 {
		t.Errorf("lost detections did not regress: %v", names(down.Deltas))
	}
	up := DiffReports(report(0, map[string]int64{"faultsim.faults_detected": 90}),
		report(0, map[string]int64{"faultsim.faults_detected": 100}), opt)
	if len(up.Regressions()) != 0 {
		t.Errorf("gained detections regressed: %v", names(up.Regressions()))
	}

	// circuit_after.gates: higher is worse.
	bigger := DiffReports(
		&obs.Report{Tool: "t", CircuitAfter: &obs.CircuitInfo{Gates: 10}},
		&obs.Report{Tool: "t", CircuitAfter: &obs.CircuitInfo{Gates: 12}}, opt)
	found := false
	for _, d := range bigger.Regressions() {
		if d.Name == "circuit_after.gates" {
			found = true
		}
	}
	if !found {
		t.Errorf("grown circuit did not regress: %v", names(bigger.Deltas))
	}
	smaller := DiffReports(
		&obs.Report{Tool: "t", CircuitAfter: &obs.CircuitInfo{Gates: 12}},
		&obs.Report{Tool: "t", CircuitAfter: &obs.CircuitInfo{Gates: 10}}, opt)
	for _, d := range smaller.Regressions() {
		if d.Name == "circuit_after.gates" {
			t.Errorf("shrunk circuit regressed")
		}
	}
}

func TestPerMetricOverride(t *testing.T) {
	opt := DefaultOptions()
	opt.PerMetric = map[string]float64{"counter.x": 1.0}
	before := report(0, map[string]int64{"x": 100})
	after := report(0, map[string]int64{"x": 150})
	if regs := DiffReports(before, after, opt).Regressions(); len(regs) != 0 {
		t.Fatalf("override did not widen tolerance: %v", names(regs))
	}
	opt.PerMetric["counter.x"] = 0.1
	if regs := DiffReports(before, after, opt).Regressions(); len(regs) != 1 {
		t.Fatalf("tightened override did not catch drift")
	}
}

// TestDiffResultsLeaves pins the flattening of nested Results payloads and
// the missing/new annotations.
func TestDiffResultsLeaves(t *testing.T) {
	before := &obs.Report{Tool: "t", Results: map[string]any{
		"stuck_at": map[string]any{"Coverage": 0.95, "Detected": 40.0},
	}}
	after := &obs.Report{Tool: "t", Results: map[string]any{
		"stuck_at": map[string]any{"Coverage": 0.90},
	}}
	res := DiffReports(before, after, DefaultOptions())
	byName := map[string]Delta{}
	for _, d := range res.Deltas {
		byName[d.Name] = d
	}
	cov := byName["results.stuck_at.Coverage"]
	if !cov.Regression {
		t.Errorf("coverage drop did not regress: %+v", cov)
	}
	det := byName["results.stuck_at.Detected"]
	if det.Note != "missing after" || !det.Regression {
		t.Errorf("vanished Detected = %+v, want regression noted 'missing after'", det)
	}
}

func TestDiffBench(t *testing.T) {
	before := &BenchFile{Benchmarks: []BenchEntry{
		{Name: "BenchmarkSim", CPU: 1, NsPerOp: 100},
		{Name: "BenchmarkGone", CPU: 1, NsPerOp: 50},
	}, Speedups: []SpeedEntry{{Name: "BenchmarkSim", CPU: 2, Speedup: 1.8}}}
	after := &BenchFile{Benchmarks: []BenchEntry{
		{Name: "BenchmarkSim", CPU: 1, NsPerOp: 200},
	}, Speedups: []SpeedEntry{{Name: "BenchmarkSim", CPU: 2, Speedup: 1.0}}}
	res := DiffBench(before, after, DefaultOptions())
	regs := map[string]Delta{}
	for _, d := range res.Regressions() {
		regs[d.Name] = d
	}
	if d, ok := regs["bench.BenchmarkSim/cpu=1.ns_per_op"]; !ok || d.Rel <= 0 {
		t.Errorf("2x slower benchmark missing from regressions: %v", regs)
	}
	if d, ok := regs["bench.BenchmarkGone/cpu=1.ns_per_op"]; !ok || d.Note != "missing after" {
		t.Errorf("vanished benchmark not flagged: %v", regs)
	}
	if _, ok := regs["bench.BenchmarkSim/cpu=2.speedup"]; !ok {
		t.Errorf("lost speedup not flagged: %v", regs)
	}

	// Within tolerance: 10% slower passes at the default 25%.
	ok := DiffBench(before, &BenchFile{Benchmarks: []BenchEntry{
		{Name: "BenchmarkSim", CPU: 1, NsPerOp: 110},
		{Name: "BenchmarkGone", CPU: 1, NsPerOp: 50},
	}, Speedups: []SpeedEntry{{Name: "BenchmarkSim", CPU: 2, Speedup: 1.8}}}, DefaultOptions())
	if regs := ok.Regressions(); len(regs) != 0 {
		t.Errorf("within-tolerance bench regressed: %v", names(regs))
	}
}

func TestDiffFiles(t *testing.T) {
	dir := t.TempDir()
	reportPath := filepath.Join(dir, "report.json")
	benchPath := filepath.Join(dir, "bench.json")
	writeFile(t, reportPath, `{"tool":"sft","duration_ms":10,"metrics":{"counters":{"a.b":1}}}`)
	writeFile(t, benchPath, `{"date":"2026-08-06","benchmarks":[{"name":"B","cpu":1,"ns_per_op":5}]}`)

	res, err := DiffFiles(reportPath, reportPath, DefaultOptions())
	if err != nil || res.Kind != "report" {
		t.Fatalf("report/report diff: %v kind=%v", err, res)
	}
	res, err = DiffFiles(benchPath, benchPath, DefaultOptions())
	if err != nil || res.Kind != "bench" {
		t.Fatalf("bench/bench diff: %v kind=%v", err, res)
	}
	if _, err := DiffFiles(reportPath, benchPath, DefaultOptions()); err == nil ||
		!strings.Contains(err.Error(), "cannot diff") {
		t.Fatalf("mixed-kind diff: err = %v, want kind mismatch", err)
	}
	junk := filepath.Join(dir, "junk.json")
	writeFile(t, junk, `{"neither":true}`)
	if _, err := DiffFiles(junk, junk, DefaultOptions()); err == nil {
		t.Fatal("undetectable artifact accepted")
	}
}

// TestGoldenSelfDiff runs the committed CI golden against itself (must be
// clean) and against a mutated copy with one counter bumped (must regress)
// — the same check scripts/ci.sh performs against a fresh run.
func TestGoldenSelfDiff(t *testing.T) {
	golden := filepath.Join("testdata", "golden_report.json")
	res, err := DiffFiles(golden, golden, DefaultOptions())
	if err != nil {
		t.Fatalf("golden does not load: %v", err)
	}
	if regs := res.Regressions(); len(regs) != 0 {
		t.Fatalf("golden self-diff regressed: %v", names(regs))
	}

	var rep obs.Report
	if err := json.Unmarshal([]byte(readFile(t, golden)), &rep); err != nil {
		t.Fatal(err)
	}
	const key = "faultsim.patterns_simulated"
	if rep.Metrics.Counters[key] == 0 {
		t.Fatalf("golden lacks counter %s; regenerate it (see scripts/ci.sh)", key)
	}
	rep.Metrics.Counters[key] *= 2 // well out of the zero counter tolerance
	mutated, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	mutPath := filepath.Join(t.TempDir(), "mutated.json")
	writeFile(t, mutPath, string(mutated))
	res, err = DiffFiles(golden, mutPath, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range res.Regressions() {
		if d.Name == "counter.faultsim.patterns_simulated" {
			found = true
		}
	}
	if !found {
		t.Fatalf("injected counter drift not caught: %v", names(res.Regressions()))
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func fp(v float64) *float64 { return &v }

// TestDiffBenchAllocs pins the allocation gate: allocs/op may only fall
// (TolAlloc defaults to 0), B/op rides the bench tolerance, and allocation
// columns appearing in the after file only (the baseline predates
// -benchmem) are informational, not regressions.
func TestDiffBenchAllocs(t *testing.T) {
	before := &BenchFile{Benchmarks: []BenchEntry{
		{Name: "BenchmarkResynth", CPU: 1, NsPerOp: 100, BytesPerOp: fp(4096), AllocsPerOp: fp(50)},
	}}

	// One extra alloc/op regresses even though it is <25%.
	worse := &BenchFile{Benchmarks: []BenchEntry{
		{Name: "BenchmarkResynth", CPU: 1, NsPerOp: 100, BytesPerOp: fp(4096), AllocsPerOp: fp(51)},
	}}
	regs := DiffBench(before, worse, DefaultOptions()).Regressions()
	if len(regs) != 1 || regs[0].Name != "bench.BenchmarkResynth/cpu=1.allocs_per_op" {
		t.Fatalf("alloc growth not caught: %v", names(regs))
	}

	// Fewer allocations and bytes are an improvement, never a regression.
	betterFile := &BenchFile{Benchmarks: []BenchEntry{
		{Name: "BenchmarkResynth", CPU: 1, NsPerOp: 100, BytesPerOp: fp(1024), AllocsPerOp: fp(10)},
	}}
	if regs := DiffBench(before, betterFile, DefaultOptions()).Regressions(); len(regs) != 0 {
		t.Fatalf("reduced allocations regressed: %v", names(regs))
	}

	// Allocation columns vanishing from the new baseline lose gate coverage.
	stripped := &BenchFile{Benchmarks: []BenchEntry{
		{Name: "BenchmarkResynth", CPU: 1, NsPerOp: 100},
	}}
	regs = DiffBench(before, stripped, DefaultOptions()).Regressions()
	if len(regs) != 2 {
		t.Fatalf("vanished alloc columns not flagged: %v", names(regs))
	}
}

// TestDiffBenchNewEntries pins that quantities present only in the after
// file — a newly added benchmark, or allocation columns measured for the
// first time — are recorded as "new" without tripping the gate (the old
// behavior diffed them against an implicit zero, making every addition an
// infinite regression).
func TestDiffBenchNewEntries(t *testing.T) {
	before := &BenchFile{Benchmarks: []BenchEntry{
		{Name: "BenchmarkSim", CPU: 1, NsPerOp: 100},
	}}
	after := &BenchFile{Benchmarks: []BenchEntry{
		{Name: "BenchmarkSim", CPU: 1, NsPerOp: 100, BytesPerOp: fp(2048), AllocsPerOp: fp(7)},
		{Name: "BenchmarkFresh", CPU: 1, NsPerOp: 999, BytesPerOp: fp(10), AllocsPerOp: fp(1)},
	}}
	res := DiffBench(before, after, DefaultOptions())
	if regs := res.Regressions(); len(regs) != 0 {
		t.Fatalf("new benchmark/measurements regressed: %v", names(regs))
	}
	newNotes := 0
	for _, d := range res.Deltas {
		if d.Note == "new" {
			newNotes++
		}
	}
	if newNotes != 5 {
		t.Fatalf("want 5 deltas noted 'new', got %d: %+v", newNotes, res.Deltas)
	}
}
