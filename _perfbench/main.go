// Command perfbench is the repository's end-to-end benchmark. It generates
// each workload's netlists with internal/gen, hands the program only .bench
// text, calls the program's packages in this one process at their default
// worker count, checks every output with its own evaluator, and prints
// every metric as workload/metric with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root; _perfbench/run.sh builds and runs it):
//
//	perfbench --workload synth|irredundant|testability|all --seed N --seconds S --trace 0|1
//
// Inputs. Seed 0 is the default: every netlist is the gen.Suite output at
// its calibrated generator seed, pinned by SHA-256. Any other seed declares
// the same netlists with their gates in a seeded random topological order:
// the function, every name and every fanin order stay, while every node ID
// the program assigns changes. Seeds draw neither new generator seeds nor
// new fanin orders, because both change the work itself: redundancy removal
// on netlists from other generator seeds took from 0.2 s to 112 s, and
// shuffling fanin order alone moved its PODEM backtracks from 281 000 to
// 508 000, while declaration order left them within 374 669 to 376 781.
//
// Timing. Each pass loads every netlist with bench.Parse several times
// back to back, then makes the workload's top-level calls on the last
// load, each call timed alone after a forced GC. Passes repeat until the
// next one would overrun --seconds; the first always runs. wall_s sums,
// over the workload's calls, the fastest timing of each call: the time one
// pass takes. setup_s is the fastest load of the run: the time one load of
// the workload's netlists takes. CPU steal and other tenants can only slow
// a call or a load down, so the fastest of a run's timings is its least
// disturbed one; a host that stays slow for a whole run still shows. The
// loads are spread over the run with the passes, so one disturbed moment
// does not set setup_s. A load is the only program work done before the
// timed calls, so work moved into it shows in setup_s.
//
// Checks. Every netlist resynth.Optimize or redundancy.Remove returns is
// compared with the text it came from on all input combinations up to 14
// inputs and on 65 536 seeded random patterns above that, with the
// benchmark's own parser and evaluator; the gate and path counts the
// program reports are recounted. The campaigns' fault totals are checked
// against the fault list and against the benchmark's own path count. An
// error or a failed check fails the call: it is listed by name and counted
// in failed and in ok_share, never dropped. correct is false only when a
// returned netlist differs from its input.
//
// Metrics (--trace 0). wall_s, setup_s and peak_rss_mb, the process's
// VmHWM at the end of the run (peak resident memory over all passes);
// ok_share, the share of calls that neither failed nor failed a check
// (1 - failed_share; the JSON carries the share that is never 0). The
// quality metrics come from the first pass, so they do not depend on how
// many passes fit: gate_ratio and path_ratio, geometric means of
// after/before over the calls that rewrite netlists (synth: gates from
// Procedure 2 calls, paths from Procedure 3 calls; a failed call counts 1);
// unproven_share, faults left aborted after removal (every fault of a
// failed call) over the collapsed faults of the inputs;
// stuck_at_coverage and robust_pdf_coverage, detected over all faults of
// the workload's netlists, the path-delay base being 2 x the benchmark's
// own path count. A workload that does not produce a quality metric reports
// it as 1 and prints it as n/a: every run must carry every metric, and no
// metric may be 0.
//
// Trace (--trace 1). Every pass runs twice, traced and untraced, in
// alternating order, and at least two traced passes run. The traced pass
// records a span around every call the benchmark makes into a layer, plus
// the spans the program records when handed a tracer (resynth.verify,
// redundancy.atpg, faultsim.campaign), with counter, allocation and
// CPU-time deltas at each boundary. The spans are written to a JSON file;
// the run prints the per-layer table and reports the per-layer metrics and
// the tracing overhead, traced minus untraced wall time per pass. Every
// traced pass makes the same calls on the same inputs, so a program
// counter whose delta differs between traced passes is marked
// scheduling-dependent and every other counter exact.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"compsynth/internal/bench"
	"compsynth/internal/circuit"
	"compsynth/internal/gen"
	"compsynth/internal/obs"
	"compsynth/internal/par"
)

// setupLoads is the number of back-to-back loads that begin every pass.
const setupLoads = 15

func main() {
	var (
		name     = flag.String("workload", "all", "synth, irredundant, testability, or all")
		seed     = flag.Int64("seed", 0, "input seed; 0 is the calibrated default")
		seconds  = flag.Float64("seconds", 30, "measuring time per workload")
		traceArg = flag.Int("trace", 0, "1 = traced run: per-layer table and metrics")
		traceOut = flag.String("trace-out", "", "span file (default .bench_build/trace-<workload>-<seed>.json)")
	)
	flag.Parse()
	if *traceArg != 0 && *traceArg != 1 {
		fail("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fail("--seconds must be positive")
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *traceArg))
	}
	w := find(*name)
	if w == nil {
		fail("unknown workload %q", *name)
	}
	r, err := newRunner(w, *seed, *traceArg == 1)
	if err != nil {
		fail("%s: %v", w.name, err)
	}
	r.measure(time.Duration(*seconds * float64(time.Second)))
	res := r.report(os.Stdout)
	if r.traced {
		path := *traceOut
		if path == "" {
			path = fmt.Sprintf(".bench_build/trace-%s-%d.json", w.name, *seed)
		}
		if err := r.spans.write(path, r.host, r.counterMarks()); err != nil {
			fail("writing spans: %v", err)
		}
		fmt.Printf("spans: %s\n", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail("%v", err)
	}
	fmt.Println(string(line))
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func find(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// input is one netlist as the seed declares it: the text handed to the
// program, the benchmark's own model of it, and the circuit the current
// pass loaded.
type input struct {
	net       string
	text      string
	ref       *netlist
	paths     uint64
	checkSeed int64
	c         *circuit.Circuit
}

// callKey identifies one timed call: the same call on the same netlist.
type callKey struct{ net, op string }

// quality accumulates the quality metrics over the first pass.
type quality struct {
	gateRatios, pathRatios []float64
	unproven, faults       float64
	saDetected, saFaults   float64
	pdfDetected, pdfFaults float64
}

type runner struct {
	w      *workload
	inputs []*input
	traced bool    // traced run: every pass runs traced and untraced
	spans  *tracer // every traced pass records here
	tr     *tracer // spans while a traced pass runs, else nil

	firstPass   bool // the first untraced pass feeds quality
	q           quality
	times       map[callKey][]float64 // seconds per call, untraced passes
	tracedTimes map[callKey][]float64 // seconds per call, traced passes
	setup       []float64             // fastest load of each pass, seconds
	passCtr     [][]int64             // counter deltas of each traced pass
	passes      int
	tracedPass  int
	attempted   int
	failed      int
	mismatches  int
	failures    map[string]int
	host        map[string]any
	peakRSS     float64 // MB, at the end of the last pass
}

func newRunner(w *workload, seed int64, traced bool) (*runner, error) {
	r := &runner{
		w: w, traced: traced,
		times:       map[callKey][]float64{},
		tracedTimes: map[callKey][]float64{},
		failures:    map[string]int{},
	}
	byName := map[string]gen.Bench{}
	for _, b := range gen.Suite(quickScale) {
		byName[b.Name] = b
	}
	for _, spec := range w.nets {
		b, ok := byName[spec.name]
		if !ok {
			return nil, fmt.Errorf("gen.Suite has no %s", spec.name)
		}
		text := bench.String(b.Build())
		sum := sha256.Sum256([]byte(text))
		if got := hex.EncodeToString(sum[:]); got != pins[spec.name] {
			return nil, fmt.Errorf("%s: generator output drifted: sha256 %s, pinned %s", spec.name, got, pins[spec.name])
		}
		ref, err := parseBench(text)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", spec.name, err)
		}
		if seed != 0 {
			text = ref.writeBench(rand.New(rand.NewSource(par.SeedFor(seed, "order/"+spec.name))))
			if ref, err = parseBench(text); err != nil {
				return nil, fmt.Errorf("%s at seed %d: %v", spec.name, seed, err)
			}
		}
		p, err := ref.paths()
		if err != nil {
			return nil, fmt.Errorf("%s: %v", spec.name, err)
		}
		r.inputs = append(r.inputs, &input{net: spec.name, text: text, ref: ref, paths: p,
			checkSeed: par.SeedFor(seed, "check/"+spec.name)})
	}
	return r, nil
}

// load parses every netlist and returns the seconds the whole load took;
// in a traced pass it also records each bench.Parse call as a span. Each
// load starts from a forced GC with the previous circuits dropped, so the
// live heap is the same at every load. The runtime returns free pages to
// the operating system in the background, so a load takes from 0 to 600
// page faults; the fastest load is one that takes few.
func (r *runner) load() float64 {
	for _, in := range r.inputs {
		in.c = nil
	}
	runtime.GC()
	total := 0.0
	for _, in := range r.inputs {
		var sp *span
		if r.tr != nil {
			sp = r.tr.begin("bench.Parse", "bench")
		}
		start := time.Now()
		c, err := bench.ParseString(in.text, in.net)
		total += time.Since(start).Seconds()
		if sp != nil {
			r.tr.end(sp)
		}
		if err != nil {
			fail("%s: bench.Parse: %v", in.net, err)
		}
		in.c = c
	}
	return total
}

// call times one top-level call into a layer. In a traced pass it opens
// the operation's root span and hands fn a program tracer whose spans
// split the call further.
func (r *runner) call(in *input, op, layer, fnName string, fn func(*obs.Tracer)) {
	var ptr *obs.Tracer
	var sp *span
	if r.tr != nil {
		ptr = obs.NewTracer()
		ptr.TrackAllocs = false
		ptr.SetObserver(r.tr)
	}
	runtime.GC()
	if r.tr != nil {
		sp = r.tr.begin(fnName, layer)
	}
	start := time.Now()
	fn(ptr)
	d := time.Since(start).Seconds()
	if sp != nil {
		r.tr.end(sp)
	}
	times := r.times
	if r.tr != nil {
		times = r.tracedTimes
	}
	k := callKey{in.net, op}
	times[k] = append(times[k], d)
}

// done records the outcome of a call and, in the first pass, its
// contribution to the quality metrics.
func (r *runner) done(in *input, op string, err error, feed func(*quality)) {
	r.attempted++
	if err != nil {
		r.failed++
		var me *mismatchError
		if errors.As(err, &me) {
			r.mismatches++
		}
		r.failures[fmt.Sprintf("%s %s: %v", in.net, op, err)]++
	}
	if r.firstPass && feed != nil {
		feed(&r.q)
	}
}

func (r *runner) pass(traced bool) {
	fastest := r.load()
	for i := 1; i < setupLoads; i++ {
		fastest = min(fastest, r.load())
	}
	r.setup = append(r.setup, fastest)
	var ctr0 []int64
	if traced {
		r.tr = r.spans
		r.tracedPass++
		ctr0 = r.spans.readCounters()
		// One more load, traced, so the bench layer reads one load
		// per pass.
		r.load()
	} else {
		r.firstPass = r.passes == 0
		r.passes++
	}
	for _, in := range r.inputs {
		r.w.run(r, in)
		in.c = nil
	}
	if traced {
		d := r.spans.readCounters()
		for i := range d {
			d[i] -= ctr0[i]
		}
		r.passCtr = append(r.passCtr, d)
	}
	r.tr = nil
	r.firstPass = false
}

// measure runs passes until the next one would overrun the budget. The
// first pass always runs; a traced run always makes two traced passes, so
// its counters can be compared.
func (r *runner) measure(budget time.Duration) {
	minPasses := 1
	if r.traced {
		r.spans = newTracer()
		minPasses = 2
	}
	st := startSteal()
	start := time.Now()
	var longest time.Duration
	for i := 0; i < minPasses || time.Since(start)+longest <= budget; i++ {
		t := time.Now()
		// A traced run alternates which of the pair goes first, so
		// warm-up favours neither side of the overhead.
		r.pass(r.traced && i%2 == 0)
		if r.traced {
			r.pass(i%2 == 1)
		}
		longest = max(longest, time.Since(t))
	}
	r.host = hostRecord(st.share())
	var err error
	if r.peakRSS, err = peakRSSMB(); err != nil {
		fail("peak RSS: %v", err)
	}
}

func hostRecord(steal float64) map[string]any {
	return map[string]any{
		"workers":     par.Workers(0),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"num_cpu":     runtime.NumCPU(),
		"go":          runtime.Version(),
		"steal_share": steal,
	}
}

// wall sums the fastest time of every call: the time one pass takes.
func (r *runner) wall(times map[callKey][]float64) float64 {
	total := 0.0
	for _, s := range times {
		total += slices.Min(s)
	}
	return total
}

// counterMarks marks each program counter exact or scheduling-dependent by
// comparing its deltas over the traced passes.
func (r *runner) counterMarks() map[string]string {
	marks := map[string]string{}
	for i, sched := range schedulingDependent(r.passCtr) {
		marks[counterNames[i]] = "exact"
		if sched {
			marks[counterNames[i]] = "sched"
		}
	}
	return marks
}

// report prints the human-readable summary and returns the JSON result.
func (r *runner) report(out *os.File) result {
	w := r.w.name
	fmt.Fprintf(out, "workload %s: %s\n", w, r.w.why)
	for i, spec := range r.w.nets {
		ref := r.inputs[i].ref
		fmt.Fprintf(out, "  netlist %-8s %4d inputs %4d outputs %5d gates: %s\n",
			spec.name, len(ref.inputs), len(ref.outputs), ref.equiv2(), spec.why)
	}
	h := r.host
	fmt.Fprintf(out, "host: workers=%v gomaxprocs=%v num_cpu=%v go=%v steal_share=%.4f\n",
		h["workers"], h["gomaxprocs"], h["num_cpu"], h["go"], h["steal_share"])
	fmt.Fprintf(out, "passes: %d untraced, %d traced; %d setup loads\n", r.passes, r.tracedPass, len(r.setup)*setupLoads)
	var fails []string
	for f, n := range r.failures {
		fails = append(fails, fmt.Sprintf("  FAILED (x%d) %s %s", n, w, f))
	}
	sort.Strings(fails)
	for _, f := range fails {
		fmt.Fprintln(out, f)
	}
	var keys []callKey
	for k := range r.times {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i].net < keys[j].net || keys[i].net == keys[j].net && keys[i].op < keys[j].op
	})
	fmt.Fprintf(out, "  %-8s %-10s %10s %10s %10s  (seconds over untraced passes)\n", "netlist", "call", "min", "median", "max")
	for _, k := range keys {
		s := r.times[k]
		fmt.Fprintf(out, "  %-8s %-10s %10.4f %10.4f %10.4f\n", k.net, k.op, slices.Min(s), median(s), slices.Max(s))
	}
	res := result{Correct: r.mismatches == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(out, "check: %d of %d calls failed, %d returned netlists differ from their input\n",
		r.failed, r.attempted, r.mismatches)
	if r.traced {
		m := r.layerResult()
		printLayers(out, w, m, r.counterMarks(), len(r.passCtr))
		res.Metrics = m
		return res
	}
	fmt.Fprintf(out, "%s/failed_share %.6f share\n", w, share(float64(r.failed), float64(r.attempted)))
	for _, m := range r.endToEnd() {
		if !m.applies {
			fmt.Fprintf(out, "%s/%s n/a\n", w, m.name)
			m.v = 1
		} else {
			fmt.Fprintf(out, "%s/%s %.6g %s\n", w, m.name, m.v, m.unit)
		}
		res.Metrics[m.name] = metricValue{m.v, m.unit}
	}
	return res
}

// e2eMetric is one end-to-end metric; applies is false where the workload
// does not produce it.
type e2eMetric struct {
	name, unit string
	v          float64
	applies    bool
}

// endToEnd returns the end-to-end metrics of an untraced run.
func (r *runner) endToEnd() []e2eMetric {
	q := r.q
	return []e2eMetric{
		{"wall_s", "s", r.wall(r.times), true},
		{"setup_s", "s", slices.Min(r.setup), true},
		{"peak_rss_mb", "MB", r.peakRSS, true},
		{"ok_share", "share", 1 - share(float64(r.failed), float64(r.attempted)), true},
		{"gate_ratio", "ratio", geomean(q.gateRatios), len(q.gateRatios) > 0},
		{"path_ratio", "ratio", geomean(q.pathRatios), len(q.pathRatios) > 0},
		{"unproven_share", "share", share(q.unproven, q.faults), q.faults > 0},
		{"stuck_at_coverage", "share", share(q.saDetected, q.saFaults), q.saFaults > 0},
		{"robust_pdf_coverage", "share", share(q.pdfDetected, q.pdfFaults), q.pdfFaults > 0},
	}
}

// layerResult gives the traced run's per-layer metrics.
func (r *runner) layerResult() map[string]metricValue {
	m := r.spans.layerMetrics(max(r.tracedPass, 1), slices.Min(r.setup))
	traced, untraced := r.wall(r.tracedTimes), r.wall(r.times)
	m["trace.traced_wall_s"] = metricValue{traced, "s"}
	m["trace.untraced_wall_s"] = metricValue{untraced, "s"}
	m["trace.overhead_s"] = metricValue{traced - untraced, "s"}
	return m
}

// runAll runs every workload in its own child process, so each has its own
// peak RSS, and prints their metrics together. It returns the exit code.
func runAll(seed int64, seconds float64, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	code := 0
	for _, w := range workloads {
		var buf bytes.Buffer
		cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		cmd.Stdout = &buf
		cmd.Stderr = os.Stderr
		err := cmd.Run()
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Println(l)
		}
		var res result
		if err != nil || json.Unmarshal([]byte(lines[len(lines)-1]), &res) != nil {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s failed: %v\n", w.name, err)
			code = 1
			continue
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[w.name+"."+k] = v
		}
	}
	if code != 0 {
		return code
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
