// Package resynth implements the paper's circuit optimization procedures:
// Procedure 2 (reduce the equivalent-2-input gate count, ties broken by the
// path count), Procedure 3 (reduce the path count), and the combined measure
// of Section 4.3. Each procedure repeatedly sweeps the circuit from the
// primary outputs toward the inputs, replacing subcircuits that implement
// comparison functions by comparison units, until a fixpoint.
//
// Each pass is one serial sweep in topological order, as in the paper.
// Sampling-mode identification seeds its RNG per truth table (derived from
// Options.Seed), never from a shared stream, so its draws are independent of
// visit order.
//
// Incremental pass state: each pass needs K-feasible cuts, path labels and
// (in SDC mode) exhaustive-simulation values for every node. Each is a pure
// function of a node's fanin cone, so a replacement only invalidates the
// transitive fanout cone of the rewired nodes. Between passes the optimizer
// therefore recomputes exactly the nodes the circuit's edit recorder reports
// touched since the last pass (circuit.TouchedSince), closed over fanouts,
// instead of rebuilding from scratch. The sweep order is the frozen view's
// dense order (level, id), a pure function of the circuit, so incremental
// and full rebuilds produce bit-identical circuits
// (TestIncrementalMatchesFull pins this).
package resynth

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"

	"compsynth/internal/circuit"
	"compsynth/internal/compare"
	"compsynth/internal/digest"
	"compsynth/internal/ledger"
	"compsynth/internal/logic"
	"compsynth/internal/metric"
	"compsynth/internal/obs"
	"compsynth/internal/obs/dtrace"
	"compsynth/internal/paths"
	"compsynth/internal/simulate"
	"compsynth/internal/subckt"
)

// Pipeline metrics (process-wide; single atomic adds in the hot loops).
var (
	mCandidates   = metric.C("resynth.candidates_examined")
	mReplacements = metric.C("resynth.replacements_accepted")
	mPasses       = metric.C("resynth.passes")
	mCacheHits    = metric.C("resynth.identify_cache_hits")
	mDirty        = metric.C("resynth.dirty_nodes")
	hCandInputs   = metric.H("resynth.candidate_inputs")
)

// Objective selects the optimization target.
type Objective int

// Objectives.
const (
	MinGates Objective = iota // Procedure 2
	MinPaths                  // Procedure 3
	Combined                  // Section 4.3: gates and paths together
)

func (o Objective) String() string {
	switch o {
	case MinGates:
		return "min-gates"
	case MinPaths:
		return "min-paths"
	case Combined:
		return "combined"
	}
	return "?"
}

// Fixed search limits and weights of every run.
const (
	maxCandidates = 32  // candidate subcircuits per gate output
	maxSpecs      = 8   // unit realizations considered per function
	samplingPerms = 200 // the paper's "up to 200 permutations"
	multiPerms    = 60  // common permutations tried for an OR of units
	sdcMaxInputs  = 14  // widest circuit the SDC mode simulates exhaustively

	// combinedGateWeight scales gate savings against path savings for the
	// Combined objective: measure = pathSaving + W * gateSaving.
	combinedGateWeight = 4
)

// Options configures the optimizer.
type Options struct {
	K         int       // subcircuit input limit (paper: 5 or 6)
	Objective Objective // which procedure to run
	MaxPasses int       // fixpoint iteration cap
	Verify    bool      // check every pass's output against the input circuit
	Check     bool      // validate IR invariants after every pass (circuit.Check)

	// UseSampling switches identification to the paper's experimental
	// method: up to 200 random permutations, onset and offset.
	UseSampling bool

	// MaxUnits > 1 enables the paper's Section 6 extension: when no single
	// comparison unit realizes a candidate function, try an OR of up to
	// MaxUnits units over a common permutation.
	MaxUnits int

	// UseSDC enables the paper's Section 6 extension (1): input
	// combinations that can never occur at a candidate's inputs are
	// treated as don't-cares during identification. Exact reachability is
	// computed by exhaustive simulation, so the mode only engages on
	// circuits with at most 14 primary inputs.
	UseSDC bool

	// Certify records per-replacement equivalence evidence — the extracted
	// truth table, the care set when don't-cares were used, and the chosen
	// realization — into Result.Evidence, for the run certificate (-cert).
	// Off (the default), the replacement path allocates nothing extra.
	Certify bool

	Seed int64

	// Tracer records per-pass spans when non-nil; nil (the default) keeps
	// the zero-overhead fast path.
	Tracer *obs.Tracer

	// Dtrace streams one decision record per gate and per candidate the
	// sweep considers (see internal/obs/dtrace). Records carry no timing or
	// cache provenance, so the stream is a pure function of the input and
	// the options. The nil tracer (the default) no-ops without allocating.
	Dtrace *dtrace.Tracer

	// forceFull disables the incremental between-pass refresh, rebuilding
	// every pass's derived state from scratch. Test-only: the determinism
	// test proves incremental and full runs are bit-identical.
	forceFull bool
}

// DefaultOptions returns the paper's experimental configuration (K=5).
func DefaultOptions() Options {
	return Options{
		K:         5,
		Objective: MinGates,
		MaxPasses: 16,
		Verify:    true,
		MaxUnits:  1,
		Seed:      1995,
	}
}

// Result reports an optimization run.
type Result struct {
	Circuit      *circuit.Circuit
	Passes       int
	Replacements int
	GatesBefore  int
	GatesAfter   int
	PathsBefore  uint64
	PathsAfter   uint64

	// Evidence holds one entry per accepted replacement when
	// Options.Certify is set (nil otherwise). It is deliberately excluded
	// from MarshalJSON: reports summarize, certificates carry the proof.
	Evidence []ledger.Evidence
}

func (r *Result) String() string {
	return fmt.Sprintf("passes=%d repl=%d gates %d->%d paths %d->%d",
		r.Passes, r.Replacements, r.GatesBefore, r.GatesAfter, r.PathsBefore, r.PathsAfter)
}

// MarshalJSON serializes the run statistics (the circuit itself is omitted;
// reports carry circuit summaries separately). Field names mirror String().
func (r *Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Passes       int    `json:"passes"`
		Replacements int    `json:"replacements"`
		GatesBefore  int    `json:"gates_before"`
		GatesAfter   int    `json:"gates_after"`
		PathsBefore  uint64 `json:"paths_before"`
		PathsAfter   uint64 `json:"paths_after"`
	}{r.Passes, r.Replacements, r.GatesBefore, r.GatesAfter, r.PathsBefore, r.PathsAfter})
}

// Optimize runs the selected procedure on a copy of c until no further
// improvement. The input circuit is not modified; with Verify set, every
// pass's output is checked against it.
func Optimize(c *circuit.Circuit, opt Options) (*Result, error) {
	if opt.K <= 0 || opt.K > logic.MaxVars || opt.MaxPasses <= 0 {
		return nil, fmt.Errorf("resynth: invalid options K=%d passes=%d (K must be 1 to %d, the widest cut a truth table holds)",
			opt.K, opt.MaxPasses, logic.MaxVars)
	}
	sp := opt.Tracer.StartSpan("resynth.optimize")
	defer sp.End()
	sp.SetStr("objective", opt.Objective.String())
	sp.SetInt("k", int64(opt.K))
	poNames := c.PONames()
	work := c.Clone()
	work.Simplify()
	work, _ = work.Compact()
	res := &Result{
		GatesBefore: c.Equiv2Count(),
		PathsBefore: paths.MustCount(c),
	}
	o := newOptimizer(opt)
	// Each pass refreshes only the cone of the nodes the previous pass's
	// rewrites and the follow-up Simplify touched. Node IDs therefore must
	// stay stable across passes: compaction happens once, after the
	// fixpoint.
	for pass := 0; pass < opt.MaxPasses; pass++ {
		o.passNo = pass + 1
		psp := opt.Tracer.StartSpan("resynth.pass")
		psp.SetInt("pass", int64(pass))
		n := o.pass(work)
		mPasses.Inc()
		res.Passes++
		res.Replacements += n
		work.Simplify()
		if opt.Verify {
			vsp := opt.Tracer.StartSpan("resynth.verify")
			ok := simulate.EquivalentRandom(c, work, 32, 14, opt.Seed+int64(pass))
			vsp.End()
			if !ok {
				psp.End()
				return nil, fmt.Errorf("resynth: pass %d broke equivalence", pass)
			}
		}
		if opt.Check {
			csp := opt.Tracer.StartSpan("resynth.check")
			// Mid-fixpoint the circuit carries dead tombstones and gates
			// that later passes may still rewire, so unreachable live
			// nodes are tolerated here; the post-Compact check below is
			// strict.
			err := circuit.CheckWith(work, circuit.CheckOptions{AllowUnreachable: true})
			if err == nil {
				err = circuit.CheckComparisonUnits(work)
			}
			csp.End()
			if err != nil {
				psp.End()
				return nil, fmt.Errorf("resynth: pass %d: %w", pass, err)
			}
		}
		psp.SetInt("replacements", int64(n))
		psp.End()
		if n == 0 {
			break
		}
	}
	work, _ = work.Compact()
	work.PreservePONames(poNames)
	if opt.Check {
		if err := circuit.Check(work); err != nil {
			return nil, fmt.Errorf("resynth: final circuit: %w", err)
		}
		if err := circuit.CheckComparisonUnits(work); err != nil {
			return nil, fmt.Errorf("resynth: final circuit: %w", err)
		}
	}
	res.Circuit = work
	res.GatesAfter = work.Equiv2Count()
	res.PathsAfter = paths.MustCount(work)
	res.Evidence = o.evidence
	return res, nil
}

// realization is one cached unit realization of a candidate function, with
// the costs selectReplacement scores precomputed: the unit's gate cost and
// the path multiplicity Kp (0, 1 or 2) of each spec variable, packed two
// bits per variable (N <= logic.MaxVars = 16 fills 32 bits).
type realization struct {
	spec  compare.Spec
	gates int32
	kp    uint32 // Kp of spec variable j in bits 2j and 2j+1
}

func newRealization(s compare.Spec) realization {
	r := realization{spec: s, gates: int32(s.GateCost())}
	for i, v := range s.Perm {
		r.kp |= uint32(s.Kp(i+1)) << (2 * v)
	}
	return r
}

// pathCost is Spec.PathCost from the packed multiplicities: the sum over
// spec variables j of np[j]·Kp(j). uint64 arithmetic wraps the same in any
// summation order, so a sum that overflows still equals PathCost's.
func (r *realization) pathCost(np []uint64) uint64 {
	if len(np) != r.spec.N {
		panic("resynth: np length mismatch")
	}
	var total uint64
	for j, p := range np {
		total += p * uint64(r.kp>>(2*j)&3)
	}
	return total
}

type cachedSpec struct {
	spec compare.Spec
	ok   bool
}

type cachedMulti struct {
	spec compare.MultiSpec
	ok   bool
}

// dcKey identifies one don't-care identification query: the function and
// the care set.
type dcKey struct {
	f, care logic.Key
}

// optimizer carries the per-run state. The identification caches persist
// across passes: they are keyed by the candidate's function, which is
// circuit-independent, and every cached value is a pure function of its key.
type optimizer struct {
	opt        Options
	dt         *dtrace.Tracer // decision-trace sink; nil = off
	cache      map[logic.Key][]realization
	multiCache map[logic.Key]cachedMulti
	dcCache    map[dcKey]cachedSpec
	db         *subckt.CutDB

	// Incremental per-pass state. Every field below is a per-node pure
	// function of that node's fanin cone, so after a pass only the dirty
	// cone (the nodes touched since gen plus their transitive fanout) needs
	// recomputation; everything else is reused verbatim. A nil db sends the
	// first pass onto the full-rebuild path.
	gen    uint64 // circuit generation the state was last refreshed at
	topo   []int  // live nodes in canonical topological order: (level, id)
	np     []uint64
	npOver []bool // per-node label saturation, so npOK survives node death
	npOK   bool

	// SDC state: per-node value over all 2^nPI patterns (nil when the mode
	// is off or out of range).
	valbits   [][]uint64
	nPI       int
	careCache map[digest.D]logic.TT

	// Reused refresh scratch: dirty-cone membership, the touched list and
	// the closure worklist.
	dirty   []bool
	touched []int
	stack   []int32

	// Reused candidate scratch: the kernels' working storage, which also
	// holds one gate's enumerated candidates; the extracted table before
	// support reduction and the variables reduction keeps; the path counts
	// on a candidate's kept inputs, in spec variable order; and two
	// candidate records, the current one and the best so far.
	ksc   subckt.Scratch
	tt    logic.TT
	kept  []int
	subNp []uint64
	cands [2]candidate

	// Certificate evidence, appended by apply when Options.Certify is set.
	passNo   int
	evidence []ledger.Evidence
}

func newOptimizer(opt Options) *optimizer {
	return &optimizer{
		opt:        opt,
		dt:         opt.Dtrace,
		cache:      map[logic.Key][]realization{},
		multiCache: map[logic.Key]cachedMulti{},
		dcCache:    map[dcKey]cachedSpec{},
	}
}

// rngFor derives the RNG for one sampling-style identification call.
// Seeding from (Options.Seed, truth-table key) makes the draw a pure
// function of the function being identified — independent of gate visit
// order and of which other identifications ran first (a shared RNG stream
// would couple them).
func (o *optimizer) rngFor(k logic.Key) *rand.Rand {
	return rand.New(rand.NewSource(k.Seed(o.opt.Seed)))
}

// pass performs one output-to-input sweep and returns the replacement count.
func (o *optimizer) pass(c *circuit.Circuit) int {
	csp := o.opt.Tracer.StartSpan("resynth.cuts")
	o.refresh(c)
	csp.End()
	topo := o.topo
	marked := make([]bool, len(c.Nodes))
	mark := func(id int) {
		for id >= len(marked) {
			marked = append(marked, false)
		}
		marked[id] = true
	}
	for _, out := range c.Outputs {
		mark(out)
	}
	replaced := 0
	for i := len(topo) - 1; i >= 0; i-- {
		g := topo[i]
		if !c.Alive(g) {
			o.traceGate(c, g, dtrace.SkippedDead, nil)
			continue
		}
		if !marked[g] {
			o.traceGate(c, g, dtrace.SkippedUnmarked, nil)
			continue
		}
		nd := c.Nodes[g]
		if nd.Type == circuit.Input || nd.Type == circuit.Const0 || nd.Type == circuit.Const1 {
			o.traceGate(c, g, dtrace.SkippedNonGate, nil)
			continue
		}
		best := o.selectReplacement(c, g)
		if best != nil {
			// Traced before apply, while g and its path label are live.
			o.traceGate(c, g, dtrace.Replaced, best)
			o.apply(c, best)
			mReplacements.Inc()
			replaced++
			for _, in := range best.sub.Inputs {
				mark(in)
			}
		} else {
			o.traceGate(c, g, dtrace.Kept, nil)
			for _, f := range nd.Fanin {
				mark(f)
			}
		}
	}
	return replaced
}

// traceGate emits the per-gate summary decision record: how the sweep
// disposed of node g this pass. With tracing off (o.dt == nil) it returns
// before building the record, keeping the sweep allocation-free.
func (o *optimizer) traceGate(c *circuit.Circuit, g int, outcome dtrace.Reason, best *candidate) {
	if o.dt == nil {
		return
	}
	rec := dtrace.Record{
		Pass:    o.passNo,
		Kind:    "gate",
		Node:    g,
		Name:    c.Nodes[g].Name,
		Outcome: outcome,
	}
	if best != nil {
		rec.Cut = slices.Clone(best.sub.Inputs)
		rec.Width = len(best.sub.Inputs)
		rec.GateSave = best.gateSave
		rec.PathsBefore = o.np[g]
		rec.PathsAfter = best.pathsOnG
		rec.UsedDC = best.hasCare
		best.setSpec(&rec)
	}
	o.dt.Emit(rec)
}

// candRec appends one candidate-level decision record for sub (a subcircuit
// rooted at g) to recs. Callers guard on o.dt != nil, so the off path never
// reaches here. The record's Cut is a copy: sub's inputs live in storage
// the next gate's enumeration overwrites, and a sink may keep the record.
func (o *optimizer) candRec(recs []dtrace.Record, c *circuit.Circuit, g int, sub *subckt.Subcircuit, oldPaths uint64, outcome dtrace.Reason) []dtrace.Record {
	return append(recs, dtrace.Record{
		Pass:        o.passNo,
		Kind:        "cand",
		Node:        g,
		Name:        c.Nodes[g].Name,
		Outcome:     outcome,
		Cut:         slices.Clone(sub.Inputs),
		Width:       len(sub.Inputs),
		PathsBefore: oldPaths,
	})
}

// refresh brings the per-pass state up to date with c. The first pass (and
// every pass under forceFull) marks every node dirty; later passes mark the
// nodes touched since the last refresh plus their transitive fanout.
// Everything outside that cone is a pure function of an unchanged fanin
// cone, so its stored value already equals what a full rebuild would
// produce.
func (o *optimizer) refresh(c *circuit.Circuit) {
	v := c.Freeze()
	n := len(c.Nodes)
	// Copy the sweep order: the next Freeze recycles the view's storage.
	o.topo = o.topo[:0]
	for _, id := range v.NodeID {
		o.topo = append(o.topo, int(id))
	}
	o.np = growU64(o.np, n)
	o.npOver = growBool(o.npOver, n)
	o.dirty = growBool(o.dirty[:0], n)
	dirty := o.dirty
	full := o.db == nil || o.opt.forceFull
	if full {
		o.db = subckt.NewCutDB(c, o.opt.K, maxCandidates)
		for i := range dirty {
			dirty[i] = true
		}
	} else {
		o.db.Grow(c)
		// Dirty closure over the view's fanouts. Touched nodes that died
		// this pass count as dirty but have no dense id, hence no fanout.
		o.touched = c.TouchedSince(o.gen, o.touched[:0])
		stack := o.stack[:0]
		count := int64(0)
		for _, id := range o.touched {
			dirty[id] = true
			count++
			if d := v.DenseOf[id]; d >= 0 {
				stack = append(stack, d)
			}
		}
		for len(stack) > 0 {
			d := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, f := range v.FanoutOf(d) {
				if id := v.NodeID[f]; !dirty[id] {
					dirty[id] = true
					count++
					stack = append(stack, f)
				}
			}
		}
		o.stack = stack
		mDirty.Add(count)
	}
	o.gen = c.Gen()

	o.npOK = true
	for _, id := range o.topo {
		if dirty[id] {
			o.db.ComputeNode(c, id)
			label, ok := paths.LabelNode(c, o.np, id)
			o.np[id] = label
			o.npOver[id] = !ok
		}
		if o.npOver[id] {
			o.npOK = false
		}
	}
	o.refreshSDC(c, full)
}

func growU64(s []uint64, n int) []uint64 {
	for len(s) < n {
		s = append(s, 0)
	}
	return s
}

func growBool(s []bool, n int) []bool {
	for len(s) < n {
		s = append(s, false)
	}
	return s
}

// score is what the objectives compare: the gate saving N - N' and the
// path count on g after the replacement.
type score struct {
	gateSave int
	pathsOnG uint64
}

// candidate is one realized candidate: a subcircuit with its chosen unit
// realization and costs. selectReplacement keeps two records, the current
// candidate and the best so far, and reuses their buffers from gate to gate;
// the realization stays unboxed until the winner is built or recorded.
type candidate struct {
	score
	sub        *subckt.Subcircuit // in the optimizer's enumeration storage
	spec       compare.Spec       // the realization, unless isMulti
	multi      compare.MultiSpec  // the realization when isMulti
	isMulti    bool
	keepInputs []int // host node IDs for the spec's variables, in order

	// Evidence inputs: the support-reduced extracted function, in the
	// record's own table, and, when identification used reachability
	// don't-cares, the care set it was matched under (cache-shared).
	stt     logic.TT
	care    logic.TT
	hasCare bool
}

// realization returns the candidate's realization behind the interface
// Build and the certificate take.
func (cand *candidate) realization() compare.Realization {
	if cand.isMulti {
		return cand.multi
	}
	return cand.spec
}

// setSpec fills a record's realization fields from the candidate.
func (cand *candidate) setSpec(rec *dtrace.Record) {
	rec.MultiUnit = cand.isMulti
	if cand.isMulti {
		rec.Spec = cand.multi.String()
	} else {
		rec.Spec = cand.spec.String()
	}
}

// selectReplacement evaluates all candidates for gate output g and returns
// the chosen replacement, or nil to keep the existing logic. The returned
// record and the subcircuit it points to stay valid until the next call.
// With tracing off and every candidate function cached, a call allocates
// nothing.
//
// When decision tracing is on, one record per enumerated candidate is
// buffered in enumeration order and emitted at the end of the call, once the
// winner's outcome is known: losers to a realized winner stay Dominated, and
// the winner itself resolves to Accepted or to the enumerated rejection that
// blocked it (ObjectiveWorse, or PathBound when only the saturated path
// labels vetoed an otherwise-improving replacement).
func (o *optimizer) selectReplacement(c *circuit.Circuit, g int) *candidate {
	subs := o.db.EnumerateFromCuts(c, g, &o.ksc)
	np, npOK := o.np, o.npOK
	oldPathsOnG := np[g]
	cur, best := &o.cands[0], &o.cands[1]
	haveBest := false
	var recs []dtrace.Record          // per-candidate trace, nil unless o.dt != nil
	bestRec := -1                     // index in recs of the current best's record
	better := func(a, b score) bool { // is a better than b?
		switch o.opt.Objective {
		case MinGates:
			if a.gateSave != b.gateSave {
				return a.gateSave > b.gateSave
			}
			return a.pathsOnG < b.pathsOnG
		case MinPaths:
			if a.pathsOnG != b.pathsOnG {
				return a.pathsOnG < b.pathsOnG
			}
			return a.gateSave > b.gateSave
		default: // Combined
			ma := float64(int64(oldPathsOnG)-int64(a.pathsOnG)) + combinedGateWeight*float64(a.gateSave)
			mb := float64(int64(oldPathsOnG)-int64(b.pathsOnG)) + combinedGateWeight*float64(b.gateSave)
			return ma > mb
		}
	}
	for i := range subs {
		sub := &subs[i]
		mCandidates.Inc()
		hCandInputs.Observe(float64(len(sub.Inputs)))
		// Extraction drops inputs the function does not depend on: they
		// contribute no logic and their paths disappear entirely.
		o.ksc.Extract(sub, c, &o.tt)
		o.kept = o.tt.Shrink(&cur.stt, o.kept)
		stt := cur.stt
		if stt.Vars() == 0 {
			if o.dt != nil {
				recs = o.candRec(recs, c, g, sub, oldPathsOnG, dtrace.ConstFunction)
			}
			continue // constant function: left to Simplify
		}
		keep := cur.keepInputs[:0]
		for _, v := range o.kept {
			keep = append(keep, sub.Inputs[v-1])
		}
		cur.keepInputs = keep
		reals := o.identify(stt)
		// Without a realization, the Section 6 extensions may still admit
		// one unit under reachability don't-cares, or an OR of units.
		cur.isMulti, cur.hasCare, cur.care = false, false, logic.TT{}
		fallback := false
		if len(reals) == 0 && o.valbits != nil {
			care := o.careSet(keep)
			if !care.IsConst(true) {
				if s, ok := o.identifyDC(stt, care); ok {
					cur.spec, cur.care, cur.hasCare, fallback = s, care, true, true
				}
			}
		}
		if len(reals) == 0 && !fallback && o.opt.MaxUnits > 1 {
			if m, ok := o.identifyMulti(stt); ok {
				cur.multi, cur.isMulti, fallback = m, true, true
			}
		}
		if len(reals) == 0 && !fallback {
			if o.dt != nil {
				recs = o.candRec(recs, c, g, sub, oldPathsOnG, dtrace.NoComparisonUnit)
			}
			continue
		}
		subNp := o.subNp[:0] // read only by the cost calls below
		for _, id := range keep {
			subNp = append(subNp, np[id])
		}
		o.subNp = subNp
		saved := o.ksc.GateSavings(sub, c) // the same for every realization
		// The first realization is taken; a later one replaces it only
		// when strictly better. A fallback scores its own spec.
		switch {
		case cur.isMulti:
			cur.score = score{saved - cur.multi.GateCost(), cur.multi.PathCost(subNp)}
		case fallback:
			cur.score = score{saved - cur.spec.GateCost(), cur.spec.PathCost(subNp)}
		default:
			win := 0
			for j := range reals {
				r := &reals[j]
				if rs := (score{saved - int(r.gates), r.pathCost(subNp)}); j == 0 || better(rs, cur.score) {
					win, cur.score = j, rs
				}
			}
			cur.spec = reals[win].spec
		}
		cur.sub = sub
		wins := !haveBest || better(cur.score, best.score)
		if o.dt != nil {
			// Realized candidates default to Dominated; the winner's record
			// is resolved after the sweep below.
			recs = o.candRec(recs, c, g, sub, oldPathsOnG, dtrace.Dominated)
			rec := &recs[len(recs)-1]
			rec.GateSave = cur.gateSave
			rec.PathsAfter = cur.pathsOnG
			rec.UsedDC = cur.hasCare
			cur.setSpec(rec)
			if wins {
				bestRec = len(recs) - 1
			}
		}
		if wins {
			cur, best, haveBest = best, cur, true
		}
	}
	// Only rewrite when the objective strictly improves (the identity
	// replacement keeps the circuit unchanged otherwise). A best that fails
	// the gate resolves to its enumerated rejection: PathBound when only the
	// saturated path labels (npOK == false) vetoed an improvement the
	// objective would otherwise take, ObjectiveWorse for a plain shortfall.
	accepted := false
	rejection := dtrace.ObjectiveWorse
	if haveBest {
		switch o.opt.Objective {
		case MinGates:
			if best.gateSave > 0 || (best.gateSave == 0 && npOK && best.pathsOnG < oldPathsOnG) {
				accepted = true
			} else if best.gateSave == 0 && best.pathsOnG < oldPathsOnG && !npOK {
				rejection = dtrace.PathBound
			}
		case MinPaths:
			if npOK && best.pathsOnG < oldPathsOnG {
				accepted = true
			} else if best.pathsOnG < oldPathsOnG && !npOK {
				rejection = dtrace.PathBound
			}
		default:
			m := float64(int64(oldPathsOnG)-int64(best.pathsOnG)) + combinedGateWeight*float64(best.gateSave)
			if m > 0 {
				accepted = true
			}
		}
	}
	if o.dt != nil {
		if bestRec >= 0 {
			if accepted {
				recs[bestRec].Outcome = dtrace.Accepted
			} else {
				recs[bestRec].Outcome = rejection
			}
		}
		for i := range recs {
			o.dt.Emit(recs[i])
		}
	}
	if accepted {
		return best
	}
	return nil
}

// refreshSDC brings every node's value over the full primary-input space
// (64 patterns per word) up to date when the SDC mode is engaged: from
// scratch on a full refresh, otherwise for the dirty cone only (clean rows
// are values of unchanged fanin cones and stay valid). The care cache
// restarts because its entries project rows that may have changed.
func (o *optimizer) refreshSDC(c *circuit.Circuit, full bool) {
	if full {
		o.valbits = nil
		nPI := len(c.Inputs)
		if !o.opt.UseSDC || nPI > sdcMaxInputs {
			return
		}
		o.nPI = nPI
		o.valbits = make([][]uint64, len(c.Nodes))
	}
	if o.valbits == nil {
		return // mode off or out of range; PI count never changes mid-run
	}
	ssp := o.opt.Tracer.StartSpan("resynth.sdc")
	defer ssp.End()
	words := ((1 << o.nPI) + 63) / 64
	for len(o.valbits) < len(c.Nodes) {
		o.valbits = append(o.valbits, nil)
	}
	if full {
		for j, id := range c.Inputs {
			o.valbits[id] = inputRow(j, words)
		}
	}
	buf := make([]uint64, 0, 8)
	for _, id := range o.topo {
		if !o.dirty[id] || c.Nodes[id].Type == circuit.Input {
			continue
		}
		o.valbits[id] = o.evalRow(c, id, words, &buf)
	}
	o.careCache = map[digest.D]logic.TT{}
}

// inputRow is primary input j's value over all patterns: bit p = bit j of p.
func inputRow(j, words int) []uint64 {
	row := make([]uint64, words)
	for w := range row {
		var word uint64
		for b := 0; b < 64; b++ {
			if (uint64(w*64+b)>>uint(j))&1 == 1 {
				word |= 1 << b
			}
		}
		row[w] = word
	}
	return row
}

// evalRow computes one gate's full-space value row from its fanins' rows.
func (o *optimizer) evalRow(c *circuit.Circuit, id, words int, buf *[]uint64) []uint64 {
	nd := c.Nodes[id]
	row := make([]uint64, words)
	for w := 0; w < words; w++ {
		b := (*buf)[:0]
		for _, f := range nd.Fanin {
			b = append(b, o.valbits[f][w])
		}
		*buf = b
		row[w] = nd.Type.EvalWords(b)
	}
	return row
}

// careSet projects the reachable primary-input space onto the given input
// nodes: bit m of the result is 1 iff some PI pattern drives the inputs to
// the combination m (MSB-first order, matching Extract). The projection is
// word-hoisted: each input's row is fetched once and 64 patterns are read
// per word.
func (o *optimizer) careSet(inputs []int) logic.TT {
	key := digest.New().Ints(inputs)
	if tt, ok := o.careCache[key]; ok {
		return tt
	}
	n := len(inputs)
	care := logic.New(n)
	rows := make([][]uint64, n)
	for j, id := range inputs {
		rows[j] = o.valbits[id]
	}
	total := 1 << o.nPI
	for base := 0; base < total; base += 64 {
		w := base >> 6
		lim := 64
		if total-base < 64 {
			lim = total - base
		}
		for b := 0; b < lim; b++ {
			idx := 0
			for j := 0; j < n; j++ {
				if rows[j][w]>>uint(b)&1 != 0 {
					idx |= 1 << (n - 1 - j)
				}
			}
			care.Set(idx, true)
		}
	}
	o.careCache[key] = care
	return care
}

// identifyMulti finds a multi-unit realization (Section 6 extension), with
// memoization.
func (o *optimizer) identifyMulti(tt logic.TT) (compare.MultiSpec, bool) {
	key := tt.Key()
	if r, ok := o.multiCache[key]; ok {
		mCacheHits.Inc()
		return r.spec, r.ok
	}
	spec, ok := compare.IdentifyMulti(tt, o.opt.MaxUnits, multiPerms, o.rngFor(key))
	o.multiCache[key] = cachedMulti{spec, ok}
	return spec, ok
}

// identify returns tt's unit realizations in enumeration order, with
// memoization; none means tt is not a comparison function. Exact mode keeps
// up to maxSpecs of them from one IdentifyAll enumeration, whose first is
// IdentifyBest's; the paper's sampling method finds at most one. A warm hit
// performs no allocation: the key is a fixed-size comparable value, never a
// string.
func (o *optimizer) identify(tt logic.TT) []realization {
	key := tt.Key()
	if r, ok := o.cache[key]; ok {
		mCacheHits.Inc()
		return r
	}
	var reals []realization
	if o.opt.UseSampling {
		if s, ok := compare.IdentifySampling(tt, samplingPerms, o.rngFor(key)); ok {
			reals = []realization{newRealization(s)}
		}
	} else if specs := compare.IdentifyAll(tt, maxSpecs); len(specs) > 0 {
		reals = make([]realization, len(specs))
		for i, s := range specs {
			reals[i] = newRealization(s)
		}
	}
	o.cache[key] = reals
	return reals
}

// identifyDC finds a unit realization of tt under the care set, with
// memoization (the search is exact, so the cache is pure).
func (o *optimizer) identifyDC(tt, care logic.TT) (compare.Spec, bool) {
	key := dcKey{f: tt.Key(), care: care.Key()}
	if r, ok := o.dcCache[key]; ok {
		mCacheHits.Inc()
		return r.spec, r.ok
	}
	spec, ok := compare.IdentifyDC(tt, care)
	o.dcCache[key] = cachedSpec{spec, ok}
	return spec, ok
}

// apply builds the unit, rewires g's consumers to it and sweeps the logic
// the edit left unused: only g's cone and the unit's own nodes can hold any.
func (o *optimizer) apply(c *circuit.Circuit, cand *candidate) {
	gate := c.Nodes[cand.sub.Out].Name // captured before the rewire kills the node
	spec := cand.realization()
	first := len(c.Nodes)
	out := spec.Build(c, cand.keepInputs, compare.BuildOptions{
		Merge:      true, // same-type chain gates merge (Figure 4)
		NamePrefix: fmt.Sprintf("cu%d_", cand.sub.Out),
	})
	if out == cand.sub.Out {
		return
	}
	c.ReplaceUses(cand.sub.Out, out)
	c.Kill(cand.sub.Out)
	for id := first; id < len(c.Nodes); id++ {
		c.Kill(id)
	}
	if o.opt.Certify {
		ev := ledger.Evidence{
			Pass: o.passNo,
			Gate: gate,
			Vars: cand.stt.Vars(),
			TT:   cand.stt.Hex(),
			Spec: ledger.SpecInfoOf(spec),
		}
		if cand.hasCare {
			ev.Care = cand.care.Hex()
		}
		o.evidence = append(o.evidence, ev)
	}
}
