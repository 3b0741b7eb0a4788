// Package exper regenerates the paper's experimental tables (Tables 2-7) on
// the synthetic benchmark suite. It is shared by cmd/tables and the
// top-level benchmarks.
package exper

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"compsynth/internal/circuit"
	"compsynth/internal/delay"
	"compsynth/internal/faults"
	"compsynth/internal/faultsim"
	"compsynth/internal/gen"
	"compsynth/internal/metric"
	"compsynth/internal/obs"
	"compsynth/internal/par"
	"compsynth/internal/paths"
	"compsynth/internal/rambo"
	"compsynth/internal/redundancy"
	"compsynth/internal/resynth"
	"compsynth/internal/techmap"
)

// Experiment-driver metrics (process-wide; atomic adds in the row loops).
var (
	mRows     = metric.C("exper.rows_completed")
	mPrepared = metric.C("exper.circuits_prepared")
)

// Config scales the experiments.
type Config struct {
	Scale           float64  // suite size multiplier (1.0 = calibrated)
	Ks              []int    // K values tried per circuit (best kept)
	StuckPatterns   int      // random patterns for Table 6
	PDFPairs        int      // two-pattern budget for Table 7
	PDFQuiet        int      // quiet-pair stopping for Table 7
	Seed            int64    // campaign seed
	Circuits        []string // filter by name; empty = whole suite
	MakeIrredundant bool     // apply redundancy removal to the raw circuits
	Verify          bool     // per-pass equivalence checking
	Check           bool     // per-pass circuit IR invariant validation

	// Workers bounds the concurrency of suite preparation and table
	// regeneration (0 = runtime.GOMAXPROCS(0), 1 = serial). Benchmark
	// circuits and table rows are independent, so they run through one
	// bounded pool; the engines inside each row (fault simulation, the
	// redundancy-removal filter) then run serial so the machine is not
	// oversubscribed, and inherit the full worker budget only when the row
	// fan-out cannot use it (a single-circuit suite). Every level is
	// bit-identical for every worker count, so the split is purely a
	// scheduling choice. Resynthesis always runs serial.
	Workers int

	// Tracer, when non-nil, is threaded into every optimizer and removal
	// run so table regeneration produces a per-circuit span tree. With
	// Workers > 1 spans from concurrent rows interleave: timings stay
	// valid, but parent/child nesting across rows is not meaningful.
	Tracer *obs.Tracer
}

// DefaultConfig mirrors the paper's setup at laptop scale.
func DefaultConfig() Config {
	return Config{
		Scale:           1.0,
		Ks:              []int{5, 6},
		StuckPatterns:   1 << 20,
		PDFPairs:        20000,
		PDFQuiet:        2000,
		Seed:            1995,
		MakeIrredundant: true,
		Verify:          true,
	}
}

// QuickConfig is a fast smoke-test configuration.
func QuickConfig() Config {
	c := DefaultConfig()
	c.Scale = 0.15
	c.StuckPatterns = 1 << 14
	c.PDFPairs = 3000
	c.PDFQuiet = 500
	return c
}

// Named pairs a benchmark name with its prepared circuit.
type Named struct {
	Name    string
	Circuit *circuit.Circuit
}

// Suite holds prepared circuits plus memoized optimizer results so the
// tables can share the expensive runs (Procedure 2 appears in Tables 2, 4,
// 6 and 7). The memos are mutex-guarded so table rows may run concurrently;
// every memoized computation is deterministic, so a racing double-compute
// of the same circuit (which the per-row fan-out never produces anyway)
// would store equal values.
type Suite struct {
	cfg   Config
	items []Named
	pool  int // suite-level fan-out width
	inner int // worker budget for engines inside one row

	mu     sync.Mutex
	proc2  map[string]*procResult
	proc3  map[string]*procResult
	ramboR map[string]*rambo.Result
	rrMod  map[string]*redundancy.Result
}

type procResult struct {
	res *resynth.Result
	k   int
}

// Items returns the prepared circuits.
func (s *Suite) Items() []Named { return s.items }

// NewSuite wraps prepared circuits for the table functions.
func NewSuite(cfg Config, items []Named) *Suite {
	pool := par.Workers(cfg.Workers)
	return &Suite{
		cfg: cfg, items: items, pool: pool, inner: innerWorkers(pool, len(items)),
		proc2:  map[string]*procResult{},
		proc3:  map[string]*procResult{},
		ramboR: map[string]*rambo.Result{},
		rrMod:  map[string]*redundancy.Result{},
	}
}

// innerWorkers is the worker budget of the engines inside one of n rows
// that share a pool of width pool: serial, unless the row fan-out cannot
// use the budget and the engines can.
func innerWorkers(pool, n int) int {
	if pool > 1 && n <= 1 {
		return pool
	}
	return 1
}

// Proc2 returns the (memoized) best Procedure 2 result for a circuit.
func (s *Suite) Proc2(nc Named) (*resynth.Result, int, error) {
	s.mu.Lock()
	r, ok := s.proc2[nc.Name]
	s.mu.Unlock()
	if ok {
		return r.res, r.k, nil
	}
	res, k, err := runProc(nc.Circuit, resynth.MinGates, s.cfg)
	if err != nil {
		return nil, 0, err
	}
	s.mu.Lock()
	s.proc2[nc.Name] = &procResult{res, k}
	s.mu.Unlock()
	return res, k, nil
}

// Proc3 returns the (memoized) best Procedure 3 result.
func (s *Suite) Proc3(nc Named) (*resynth.Result, int, error) {
	s.mu.Lock()
	r, ok := s.proc3[nc.Name]
	s.mu.Unlock()
	if ok {
		return r.res, r.k, nil
	}
	res, k, err := runProc(nc.Circuit, resynth.MinPaths, s.cfg)
	if err != nil {
		return nil, 0, err
	}
	s.mu.Lock()
	s.proc3[nc.Name] = &procResult{res, k}
	s.mu.Unlock()
	return res, k, nil
}

// Rambo returns the (memoized) baseline result.
func (s *Suite) Rambo(nc Named) (*rambo.Result, error) {
	s.mu.Lock()
	r, ok := s.ramboR[nc.Name]
	s.mu.Unlock()
	if ok {
		return r, nil
	}
	opt := rambo.DefaultOptions()
	opt.Verify = s.cfg.Verify
	res, err := rambo.Optimize(nc.Circuit, opt)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.ramboR[nc.Name] = res
	s.mu.Unlock()
	return res, nil
}

// ModifiedRR returns the (memoized) Procedure 2 + redundancy-removal
// circuit, the paper's "modified" version.
func (s *Suite) ModifiedRR(nc Named) (*redundancy.Result, error) {
	s.mu.Lock()
	r, ok := s.rrMod[nc.Name]
	s.mu.Unlock()
	if ok {
		return r, nil
	}
	res, _, err := s.Proc2(nc)
	if err != nil {
		return nil, err
	}
	ropt := redundancy.DefaultOptions()
	ropt.Verify = s.cfg.Verify
	ropt.Workers = s.inner
	ropt.Tracer = s.cfg.Tracer
	rr, err := redundancy.Remove(res.Circuit, ropt)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.rrMod[nc.Name] = rr
	s.mu.Unlock()
	return rr, nil
}

// CheckCircuits rejects a name in cfg.Circuits that is not in the suite,
// naming it and the suite's circuits. It builds no circuit.
func CheckCircuits(cfg Config) error {
	suite := gen.Suite(cfg.Scale)
	names := make([]string, len(suite))
	for i, b := range suite {
		names[i] = b.Name
	}
	var unknown []string
	for _, name := range cfg.Circuits {
		if !contains(names, name) {
			unknown = append(unknown, fmt.Sprintf("%q", name))
		}
	}
	if len(unknown) > 0 {
		return fmt.Errorf("circuits not in the suite: %s (it has %s)",
			strings.Join(unknown, ", "), strings.Join(names, ", "))
	}
	return nil
}

// PrepareSuite generates the benchmark circuits (optionally made
// irredundant, as the paper requires). Circuits are independent — each is
// generated from its own seed — so preparation fans out over cfg.Workers.
// A name in cfg.Circuits that is not in the suite fails it before any
// circuit is built (CheckCircuits).
func PrepareSuite(cfg Config) ([]Named, error) {
	if err := CheckCircuits(cfg); err != nil {
		return nil, err
	}
	suite := gen.Suite(cfg.Scale)
	var benches []gen.Bench
	for _, b := range suite {
		if len(cfg.Circuits) > 0 && !contains(cfg.Circuits, b.Name) {
			continue
		}
		benches = append(benches, b)
	}
	pool := par.Workers(cfg.Workers)
	inner := innerWorkers(pool, len(benches))
	return par.MapErr(pool, len(benches), func(i int) (Named, error) {
		defer mPrepared.Inc()
		b := benches[i]
		c := b.Build()
		if cfg.MakeIrredundant {
			opt := redundancy.DefaultOptions()
			opt.Verify = cfg.Verify
			opt.Workers = inner
			opt.Tracer = cfg.Tracer
			// Suite preparation favours speed: deep random circuits have
			// pathological redundancy proofs; aborted faults simply stay,
			// and a generous random filter keeps PODEM off easy faults.
			opt.BacktrackLimit = 1000
			opt.FilterPatterns = 8192
			res, err := redundancy.Remove(c, opt)
			if err != nil {
				return Named{}, fmt.Errorf("%s: %v", b.Name, err)
			}
			c = res.Circuit
			c.Name = b.Name
		}
		return Named{Name: b.Name, Circuit: c}, nil
	})
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// runProc runs a resynthesis procedure for each K and returns the best
// result under the objective.
func runProc(c *circuit.Circuit, obj resynth.Objective, cfg Config) (*resynth.Result, int, error) {
	var best *resynth.Result
	bestK := 0
	for _, k := range cfg.Ks {
		opt := resynth.DefaultOptions()
		opt.K = k
		opt.Objective = obj
		opt.Verify = cfg.Verify
		opt.Check = cfg.Check
		opt.Tracer = cfg.Tracer
		res, err := resynth.Optimize(c, opt)
		if err != nil {
			return nil, 0, err
		}
		if best == nil || betterResult(obj, res, best) {
			best, bestK = res, k
		}
	}
	return best, bestK, nil
}

func betterResult(obj resynth.Objective, a, b *resynth.Result) bool {
	if obj == resynth.MinPaths {
		if a.PathsAfter != b.PathsAfter {
			return a.PathsAfter < b.PathsAfter
		}
		return a.GatesAfter < b.GatesAfter
	}
	if a.GatesAfter != b.GatesAfter {
		return a.GatesAfter < b.GatesAfter
	}
	return a.PathsAfter < b.PathsAfter
}

// Table2Row is one line of Table 2 (Procedure 2 + redundancy removal).
type Table2Row struct {
	Name                string
	K                   int
	GatesOrig           int
	GatesMod            int
	GatesRR             int // -1 when no redundant faults were found
	PathsOrig, PathsMod uint64
	PathsRR             uint64
	Removed             int
}

// Table2 runs Procedure 2 (best of cfg.Ks) followed by redundancy removal.
// Rows are independent and run through the suite pool; the returned slice
// is in suite order regardless of worker count.
func Table2(s *Suite) ([]Table2Row, error) {
	items := s.Items()
	return par.MapErr(s.pool, len(items), func(i int) (Table2Row, error) {
		defer mRows.Inc()
		nc := items[i]
		res, k, err := s.Proc2(nc)
		if err != nil {
			return Table2Row{}, fmt.Errorf("%s: %v", nc.Name, err)
		}
		row := Table2Row{
			Name: nc.Name, K: k,
			GatesOrig: res.GatesBefore, GatesMod: res.GatesAfter,
			PathsOrig: res.PathsBefore, PathsMod: res.PathsAfter,
			GatesRR: -1,
		}
		rr, err := s.ModifiedRR(nc)
		if err != nil {
			return Table2Row{}, fmt.Errorf("%s: redundancy: %v", nc.Name, err)
		}
		if rr.Removed > 0 {
			row.GatesRR = rr.GatesAfter
			row.PathsRR = paths.MustCount(rr.Circuit)
			row.Removed = rr.Removed
		}
		return row, nil
	})
}

// Table3Row is one line of Table 3 (baseline comparison).
type Table3Row struct {
	Name                   string
	GatesOrig              int
	PathsOrig              uint64
	GatesRambo             int
	PathsRambo             uint64
	K                      int
	GatesCombo, PathsCombo uint64
}

// Table3Circuits lists the paper's Table 3 subset.
var Table3Circuits = []string{"rs1423", "rs5378", "rs9234", "rs13207"}

// Table3 compares the RAMBO_C-style baseline with baseline+Procedure 2.
func Table3(s *Suite) ([]Table3Row, error) {
	var subset []Named
	for _, nc := range s.Items() {
		if contains(Table3Circuits, nc.Name) {
			subset = append(subset, nc)
		}
	}
	return par.MapErr(s.pool, len(subset), func(i int) (Table3Row, error) {
		defer mRows.Inc()
		nc := subset[i]
		rres, err := s.Rambo(nc)
		if err != nil {
			return Table3Row{}, fmt.Errorf("%s: rambo: %v", nc.Name, err)
		}
		ccfg := s.cfg
		ccfg.Ks = []int{6}
		combo, k, err := runProc(rres.Circuit, resynth.MinGates, ccfg)
		if err != nil {
			return Table3Row{}, fmt.Errorf("%s: combo: %v", nc.Name, err)
		}
		return Table3Row{
			Name:       nc.Name,
			GatesOrig:  nc.Circuit.Equiv2Count(),
			PathsOrig:  paths.MustCount(nc.Circuit),
			GatesRambo: rres.GatesAfter,
			PathsRambo: rres.PathsAfter,
			K:          k,
			GatesCombo: uint64(combo.GatesAfter),
			PathsCombo: combo.PathsAfter,
		}, nil
	})
}

// Table4Row is one line of Table 4 (technology mapping).
type Table4Row struct {
	Name         string
	LitsA, LongA int // first column pair (orig / RAMBO_C)
	LitsB, LongB int // second pair (Proc.2 / RAMBO_C+Proc.2)
}

// Table4 maps original vs Procedure 2 circuits (part a) and baseline vs
// baseline+Procedure 2 (part b).
func Table4(s *Suite) (partA, partB []Table4Row, err error) {
	var subset []Named
	for _, nc := range s.Items() {
		if contains(Table3Circuits, nc.Name) {
			subset = append(subset, nc)
		}
	}
	type pair struct{ a, b Table4Row }
	rows, err := par.MapErr(s.pool, len(subset), func(i int) (pair, error) {
		defer mRows.Inc()
		nc := subset[i]
		p2, _, err := s.Proc2(nc)
		if err != nil {
			return pair{}, err
		}
		ra := techmap.Map(nc.Circuit)
		rb := techmap.Map(p2.Circuit)
		a := Table4Row{Name: nc.Name,
			LitsA: ra.Literals, LongA: ra.Longest, LitsB: rb.Literals, LongB: rb.Longest}

		rres, err := s.Rambo(nc)
		if err != nil {
			return pair{}, err
		}
		ccfg := s.cfg
		ccfg.Ks = []int{6}
		combo, _, err := runProc(rres.Circuit, resynth.MinGates, ccfg)
		if err != nil {
			return pair{}, err
		}
		rc := techmap.Map(rres.Circuit)
		rd := techmap.Map(combo.Circuit)
		b := Table4Row{Name: nc.Name,
			LitsA: rc.Literals, LongA: rc.Longest, LitsB: rd.Literals, LongB: rd.Longest}
		return pair{a, b}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, p := range rows {
		partA = append(partA, p.a)
		partB = append(partB, p.b)
	}
	return partA, partB, nil
}

// Table5Row is one line of Table 5 (Procedure 3).
type Table5Row struct {
	Name                string
	K                   int
	In, Out             int
	GatesOrig, GatesMod int
	PathsOrig, PathsMod uint64
}

// Table5 runs Procedure 3 (best of cfg.Ks by path count).
func Table5(s *Suite) ([]Table5Row, error) {
	items := s.Items()
	return par.MapErr(s.pool, len(items), func(i int) (Table5Row, error) {
		defer mRows.Inc()
		nc := items[i]
		res, k, err := s.Proc3(nc)
		if err != nil {
			return Table5Row{}, fmt.Errorf("%s: %v", nc.Name, err)
		}
		return Table5Row{
			Name: nc.Name, K: k,
			In: len(nc.Circuit.Inputs), Out: len(nc.Circuit.Outputs),
			GatesOrig: res.GatesBefore, GatesMod: res.GatesAfter,
			PathsOrig: res.PathsBefore, PathsMod: res.PathsAfter,
		}, nil
	})
}

// Table6Row is one line of Table 6 (random-pattern stuck-at testability).
type Table6Row struct {
	Name                            string
	FaultsOrig, RemainOrig, EffOrig int
	FaultsMod, RemainMod, EffMod    int
}

// Table6 compares random-pattern stuck-at testability of the original
// circuits and the Procedure 2 + redundancy-removal circuits, using the
// same pattern sequence (same seed).
func Table6(s *Suite) ([]Table6Row, error) {
	cfg := s.cfg
	items := s.Items()
	return par.MapErr(s.pool, len(items), func(i int) (Table6Row, error) {
		defer mRows.Inc()
		nc := items[i]
		rr, err := s.ModifiedRR(nc)
		if err != nil {
			return Table6Row{}, err
		}
		copt := faultsim.CampaignOptions{
			Patterns: cfg.StuckPatterns, Seed: cfg.Seed,
			Workers: s.inner, Tracer: cfg.Tracer,
		}
		orig := faultsim.Campaign(nc.Circuit, faults.Collapse(nc.Circuit), copt)
		mod := faultsim.Campaign(rr.Circuit, faults.Collapse(rr.Circuit), copt)
		return Table6Row{
			Name:       nc.Name,
			FaultsOrig: orig.TotalFaults, RemainOrig: len(orig.Remaining), EffOrig: orig.LastEffective,
			FaultsMod: mod.TotalFaults, RemainMod: len(mod.Remaining), EffMod: mod.LastEffective,
		}, nil
	})
}

// Table7Row is one line of Table 7 (robust PDF detection).
type Table7Row struct {
	Version    string
	EffOrig    int
	DetOrig    int
	FaultsOrig uint64
	EffMod     int
	DetMod     int
	FaultsMod  uint64
}

// Table7Circuit is the paper's Table 7 subject.
const Table7Circuit = "rs13207"

// Table7 runs robust PDF campaigns on four versions of one circuit:
// {original, RAMBO_C} x {before, after Procedure 2 + redundancy removal}.
func Table7(s *Suite) ([]Table7Row, error) {
	cfg := s.cfg
	var base *Named
	for i := range s.Items() {
		if s.Items()[i].Name == Table7Circuit {
			base = &s.Items()[i]
		}
	}
	if base == nil {
		return nil, fmt.Errorf("table7: circuit %s not in suite", Table7Circuit)
	}
	versions := []struct {
		name string
		c    *circuit.Circuit
	}{{"original", base.Circuit}}
	rres, err := s.Rambo(*base)
	if err != nil {
		return nil, err
	}
	versions = append(versions, struct {
		name string
		c    *circuit.Circuit
	}{"RAMBO_C", rres.Circuit})

	// The two versions derive from distinct circuit objects (the original
	// and the RAMBO result), so they run through the pool like table rows.
	return par.MapErr(s.pool, len(versions), func(i int) (Table7Row, error) {
		defer mRows.Inc()
		v := versions[i]
		mod, _, err := runProc(v.c, resynth.MinGates, cfg)
		if err != nil {
			return Table7Row{}, err
		}
		rd := redundancy.DefaultOptions()
		rd.Verify = cfg.Verify
		rd.Workers = s.inner
		rd.Tracer = cfg.Tracer
		rr, err := redundancy.Remove(mod.Circuit, rd)
		if err != nil {
			return Table7Row{}, err
		}
		copt := delay.CampaignOptions{
			MaxPairs: cfg.PDFPairs, QuietPairs: cfg.PDFQuiet, Seed: cfg.Seed,
			Workers: s.inner,
		}
		before := delay.RunRandom(v.c, copt)
		after := delay.RunRandom(rr.Circuit, copt)
		if before.Err != nil || after.Err != nil {
			return Table7Row{}, fmt.Errorf("table 7, %s: %w", v.name, errors.Join(before.Err, after.Err))
		}
		return Table7Row{
			Version: v.name,
			EffOrig: before.LastEffective, DetOrig: before.Detected, FaultsOrig: before.TotalFaults,
			EffMod: after.LastEffective, DetMod: after.Detected, FaultsMod: after.TotalFaults,
		}, nil
	})
}

// --- formatting -----------------------------------------------------------

// Comma renders n with thousands separators, as the paper prints counts.
func Comma(n uint64) string {
	s := fmt.Sprintf("%d", n)
	var b strings.Builder
	for i, r := range s {
		if i > 0 && (len(s)-i)%3 == 0 {
			b.WriteByte(',')
		}
		b.WriteRune(r)
	}
	return b.String()
}

// FormatTable2 renders Table 2 in the paper's layout.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Results of Procedure 2\n")
	fmt.Fprintf(&b, "%-12s %6s %6s %7s   %12s %12s %12s\n",
		"circuit(K)", "orig", "modif", "red.rem", "paths-orig", "paths-modif", "paths-rr")
	for _, r := range rows {
		rr, prr := "-", "-"
		if r.GatesRR >= 0 {
			rr = fmt.Sprintf("%d", r.GatesRR)
			prr = Comma(r.PathsRR)
		}
		fmt.Fprintf(&b, "%-9s(%d) %6d %6d %7s   %12s %12s %12s\n",
			r.Name, r.K, r.GatesOrig, r.GatesMod, rr,
			Comma(r.PathsOrig), Comma(r.PathsMod), prr)
	}
	return b.String()
}

// FormatTable3 renders Table 3.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: Comparison with RAMBO_C-style baseline\n")
	fmt.Fprintf(&b, "%-10s %6s %12s   %6s %12s   %2s %6s %12s\n",
		"circuit", "2-inp", "paths", "2-inp", "paths", "K", "2-inp", "paths")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %6d %12s   %6d %12s   %2d %6d %12s\n",
			r.Name, r.GatesOrig, Comma(r.PathsOrig),
			r.GatesRambo, Comma(r.PathsRambo),
			r.K, r.GatesCombo, Comma(r.PathsCombo))
	}
	return b.String()
}

// FormatTable4 renders both halves of Table 4.
func FormatTable4(partA, partB []Table4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4(a): Technology mapping, original circuits\n")
	fmt.Fprintf(&b, "%-10s %9s %8s   %9s %8s\n", "circuit", "literals", "longest", "literals", "longest")
	fmt.Fprintf(&b, "%-10s %9s %8s   %9s %8s\n", "", "(orig)", "", "(Proc.2)", "")
	for _, r := range partA {
		fmt.Fprintf(&b, "%-10s %9d %8d   %9d %8d\n", r.Name, r.LitsA, r.LongA, r.LitsB, r.LongB)
	}
	fmt.Fprintf(&b, "Table 4(b): Technology mapping, after the baseline\n")
	fmt.Fprintf(&b, "%-10s %9s %8s   %9s %8s\n", "", "(RAMBO)", "", "(+Proc.2)", "")
	for _, r := range partB {
		fmt.Fprintf(&b, "%-10s %9d %8d   %9d %8d\n", r.Name, r.LitsA, r.LongA, r.LitsB, r.LongB)
	}
	return b.String()
}

// FormatTable5 renders Table 5.
func FormatTable5(rows []Table5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: Results of Procedure 3\n")
	fmt.Fprintf(&b, "%-12s %5s %5s %6s %6s %14s %14s\n",
		"circuit(K)", "inp", "out", "orig", "modif", "paths-orig", "paths-modif")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s(%d) %5d %5d %6d %6d %14s %14s\n",
			r.Name, r.K, r.In, r.Out, r.GatesOrig, r.GatesMod,
			Comma(r.PathsOrig), Comma(r.PathsMod))
	}
	return b.String()
}

// FormatTable6 renders Table 6.
func FormatTable6(rows []Table6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 6: Results for stuck-at faults\n")
	fmt.Fprintf(&b, "%-10s %8s %7s %10s   %8s %7s %10s\n",
		"circuit", "faults", "remain", "eff.patt", "faults", "remain", "eff.patt")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %8d %7d %10d   %8d %7d %10d\n",
			r.Name, r.FaultsOrig, r.RemainOrig, r.EffOrig,
			r.FaultsMod, r.RemainMod, r.EffMod)
	}
	return b.String()
}

// FormatTable7 renders Table 7.
func FormatTable7(rows []Table7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 7: Robust detection by random patterns in %s\n", Table7Circuit)
	fmt.Fprintf(&b, "%-10s %8s %22s %22s\n", "circuit", "eff", "det/faults (before)", "det/faults (modified)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %8d %10s/%-11s %10s/%-11s\n",
			r.Version, r.EffOrig,
			Comma(uint64(r.DetOrig)), Comma(r.FaultsOrig),
			Comma(uint64(r.DetMod)), Comma(r.FaultsMod))
	}
	return b.String()
}
