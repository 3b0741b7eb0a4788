// Package faultsim is a parallel-pattern stuck-at fault simulator in the
// style of FSIM [17]: every node carries four 64-bit words, so one sweep
// of the circuit simulates 256 patterns, and faults are simulated per
// fanout-free region (FFR) rather than one at a time.
//
// A stem is a node with other than one fanout entry, or a PO driver; every
// other node has exactly one consumer, so the nodes whose consumer chains
// end at the same stem form a tree, the stem's FFR. A fault inside an FFR
// can leave it only through the stem. Critical-path tracing (Abramovici,
// Menon and Miller, DAC 1983) therefore splits each fault's detection word
// into three exact factors:
//
//   - activation: the lanes in which the fault flips its site's output;
//   - path: the lanes in which a flip of the site reaches the stem, the
//     side-input sensitization ANDed down the site's one path;
//   - observability: the lanes in which a flip of the stem reaches a PO,
//     found by propagating the stem's flip event-driven, once per wide
//     block for all the region's faults.
//
// Inside an FFR no side input lies in the site's fanout, so a single-lane
// flip passes a gate exactly when the gate's Boolean difference with
// respect to that pin is 1 at the good side-input values; the product is
// the word a per-fault propagation would compute, lane for lane.
//
// Lanes are independent, so a wide block of four 64-pattern blocks gives,
// restricted to any one block, exactly what simulating that block alone
// would. The campaign replays each wide block's detections block by block,
// which keeps its results and counters those of a 64-pattern campaign.
//
// Simulation runs on the circuit's frozen CSR view (circuit.Freeze): dense
// int32 ids in level-major order, so ascending dense id is a topological
// order and a node's consumers all sit on higher levels. The good-value
// sweep follows a schedule built once per view: level by level, in runs of
// gates that share one rule and one fanin count, each run one loop with
// no branch per gate.
package faultsim

import (
	"math/bits"
	"slices"
	"sync"

	"compsynth/internal/circuit"
	"compsynth/internal/faults"
	"compsynth/internal/metric"
	"compsynth/internal/obs"
	"compsynth/internal/par"
)

// shareGrain is the smallest fault list worth splitting over workers; a
// smaller campaign runs serially, since every worker repeats the
// good-value simulation of every block.
const shareGrain = 128

// width is the number of 64-pattern blocks simulated together. The gate
// kernels spell out its four words in locals, which measured faster than
// loops over width (EXPERIMENTS.md, "Wide blocks in the stuck-at
// campaign"), so changing it means rewriting them.
const width = 4

// vec is one node's value in a wide block: word k holds block k's 64
// patterns.
type vec [width]uint64

// Simulation metrics (batched adds: one per wide block and worker). Every
// count is that of a serial 64-pattern campaign.
var (
	mPatterns  = metric.C("faultsim.patterns_simulated")
	mFaultEval = metric.C("faultsim.fault_evals")
	mStemEval  = metric.C("faultsim.stem_evals")
	mDetected  = metric.C("faultsim.faults_detected")
)

// simulator simulates one circuit snapshot, 256 patterns per sweep. All
// per-node state is indexed by dense CSR id.
type simulator struct {
	v    *circuit.CSR
	po   []bool  // dense PO-driver mask
	stem []int32 // dense node -> the stem of its FFR (itself for a stem)

	// The good-value schedule (see plan): runs of steps, and the packed
	// fanins of the steps of fixed-fanin runs.
	runs  []run
	steps []step
	fan   []int32

	val    []vec     // good values of the current wide block; observe changes them only transiently
	path   []vec     // lanes in which a node's flip reaches its stem (last traced FFR)
	stack  []int32   // trace worklist
	queued []bool    // node has a pending event in bucket
	bucket [][]int32 // pending events of a stem flip, by level
	trail  []int32   // nodes a stem flip changed
	old    []vec     // their good values
}

// newSimulator builds a simulator for c's current state.
func newSimulator(c *circuit.Circuit) *simulator {
	s := &simulator{}
	s.reset(c)
	return s
}

// reset rebinds the simulator to c's current state, reusing all buffers,
// splits the view into FFRs and plans the good-value sweep.
func (s *simulator) reset(c *circuit.Circuit) {
	v := c.Freeze()
	n := v.N()
	s.v = v
	s.po = grow(s.po, n)
	clear(s.po)
	for _, o := range v.Out {
		s.po[o] = true
	}
	// Consumers have higher dense ids, so a descending sweep sees every
	// node's consumer first.
	s.stem = grow(s.stem, n)
	for d := int32(n - 1); d >= 0; d-- {
		s.stem[d] = d
		if out := v.FanoutOf(d); len(out) == 1 && !s.po[d] {
			s.stem[d] = s.stem[out[0]]
		}
	}
	s.plan()
	s.sizeScratch()
}

// attach shares parent's view, PO mask, FFRs and schedule read-only and
// gives s its own block state, so s can simulate blocks concurrently with
// parent.
func (s *simulator) attach(parent *simulator) {
	s.v, s.po, s.stem = parent.v, parent.po, parent.stem
	s.runs, s.steps, s.fan = parent.runs, parent.steps, parent.fan
	s.sizeScratch()
}

// Loops of the good-value schedule. The AND rule covers AND, NAND, OR, NOR,
// BUF and NOT: a gate's value is its fanins XORed with ci and ANDed, then
// XORed with co. The XOR rule covers XOR and XNOR (fanins XORed, then
// XORed with co), and a constant's value is co.
const (
	and1 = iota // AND rule, one fanin
	and2
	and3
	andN // AND rule, any fanin count; the fanins are read from the view
	xorN
	konst
	loops
)

// run is one loop over steps[lo:hi]; a fixed-fanin loop reads the steps'
// fanins from fan[fan:], arity entries per step.
type run struct {
	loop        uint8
	lo, hi, fan int32
}

// step is one gate of a run.
type step struct {
	d      int32  // dense id
	ci, co uint64 // the rule's input and output masks
}

// loopOf returns the schedule loop of a gate of kind k with n fanins, its
// fixed fanin count (0 for the others) and its masks; ok is false for an
// input, which the sweep does not evaluate.
func loopOf(k circuit.GateType, n int) (loop uint8, arity int, ci, co uint64, ok bool) {
	const ones = ^uint64(0)
	switch k {
	case circuit.Input:
		return 0, 0, 0, 0, false
	case circuit.Const0, circuit.Const1:
		if k == circuit.Const1 {
			co = ones
		}
		return konst, 0, 0, co, true
	case circuit.Xor, circuit.Xnor:
		if k == circuit.Xnor {
			co = ones
		}
		return xorN, 0, 0, co, true
	case circuit.Or, circuit.Nor:
		ci = ones
	}
	if k == circuit.Nand || k == circuit.Not || k == circuit.Or {
		co = ones
	}
	if n >= 1 && n <= 3 {
		return and1 + uint8(n-1), n, ci, co, true
	}
	return andN, 0, ci, co, true
}

// plan builds the good-value schedule of s.v in O(nodes): a counting sort
// of each level's gates by loop, so that every run holds the gates of one
// level that one loop evaluates. Gates of one level read only lower
// levels, so any order within a level is topological.
func (s *simulator) plan() {
	v := s.v
	n := int32(v.N())
	s.runs = s.runs[:0]
	s.steps = grow(s.steps, int(n))
	s.fan = grow(s.fan, len(v.FaninEdge))
	var at, fanAt [loops]int32
	pos, fpos := int32(0), int32(0)
	for lo := int32(0); lo < n; {
		hi := lo
		var cnt, fcnt [loops]int32
		for ; hi < n && v.Level[hi] == v.Level[lo]; hi++ {
			fi := v.FaninOf(hi)
			if loop, arity, _, _, ok := loopOf(v.Kind[hi], len(fi)); ok {
				cnt[loop]++
				fcnt[loop] += int32(arity)
			}
		}
		for l := range loops {
			if cnt[l] > 0 {
				s.runs = append(s.runs, run{loop: uint8(l), lo: pos, hi: pos + cnt[l], fan: fpos})
			}
			at[l], fanAt[l] = pos, fpos
			pos += cnt[l]
			fpos += fcnt[l]
		}
		for d := lo; d < hi; d++ {
			fi := v.FaninOf(d)
			loop, arity, ci, co, ok := loopOf(v.Kind[d], len(fi))
			if !ok {
				continue
			}
			s.steps[at[loop]] = step{d: d, ci: ci, co: co}
			at[loop]++
			fanAt[loop] += int32(copy(s.fan[fanAt[loop]:], fi[:arity]))
		}
		lo = hi
	}
	s.steps, s.fan = s.steps[:pos], s.fan[:fpos]
}

// sizeScratch (re)sizes and clears the per-block state.
func (s *simulator) sizeScratch() {
	n := s.v.N()
	s.val = grow(s.val, n)
	s.path = grow(s.path, n)
	s.queued = grow(s.queued, n)
	clear(s.queued)
	levels := 0
	if n > 0 {
		levels = int(s.v.Level[n-1]) + 1
	}
	for len(s.bucket) < levels {
		s.bucket = append(s.bucket, nil)
	}
	for l := range s.bucket {
		s.bucket[l] = s.bucket[l][:0]
	}
	s.trail, s.old = s.trail[:0], s.old[:0]
}

// setInputs loads one wide block: words[j] drives primary input j.
func (s *simulator) setInputs(words []vec) {
	for j, in := range s.v.In {
		s.val[in] = words[j]
	}
}

// runGood computes the fault-free values of the current wide block, run
// by run of the schedule.
func (s *simulator) runGood() {
	val, start, edge := s.val, s.v.FaninStart, s.v.FaninEdge
	for _, r := range s.runs {
		st := s.steps[r.lo:r.hi]
		switch r.loop {
		case and1:
			f := s.fan[r.fan:][:len(st)]
			for i, g := range st {
				a, m := &val[f[i]], g.ci^g.co
				val[g.d] = vec{a[0] ^ m, a[1] ^ m, a[2] ^ m, a[3] ^ m}
			}
		case and2:
			f := s.fan[r.fan:][:2*len(st)]
			for i, g := range st {
				a, b, ci, co := &val[f[2*i]], &val[f[2*i+1]], g.ci, g.co
				val[g.d] = vec{
					(a[0]^ci)&(b[0]^ci) ^ co, (a[1]^ci)&(b[1]^ci) ^ co,
					(a[2]^ci)&(b[2]^ci) ^ co, (a[3]^ci)&(b[3]^ci) ^ co,
				}
			}
		case and3:
			f := s.fan[r.fan:][:3*len(st)]
			for i, g := range st {
				a, b, c, ci, co := &val[f[3*i]], &val[f[3*i+1]], &val[f[3*i+2]], g.ci, g.co
				val[g.d] = vec{
					(a[0]^ci)&(b[0]^ci)&(c[0]^ci) ^ co, (a[1]^ci)&(b[1]^ci)&(c[1]^ci) ^ co,
					(a[2]^ci)&(b[2]^ci)&(c[2]^ci) ^ co, (a[3]^ci)&(b[3]^ci)&(c[3]^ci) ^ co,
				}
			}
		case andN:
			for _, g := range st {
				w0, w1, w2, w3, ci := ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), g.ci
				for _, x := range edge[start[g.d]:start[g.d+1]] {
					a := &val[x]
					w0, w1, w2, w3 = w0&(a[0]^ci), w1&(a[1]^ci), w2&(a[2]^ci), w3&(a[3]^ci)
				}
				val[g.d] = vec{w0 ^ g.co, w1 ^ g.co, w2 ^ g.co, w3 ^ g.co}
			}
		case xorN:
			for _, g := range st {
				w0, w1, w2, w3 := g.co, g.co, g.co, g.co
				for _, x := range edge[start[g.d]:start[g.d+1]] {
					a := &val[x]
					w0, w1, w2, w3 = w0^a[0], w1^a[1], w2^a[2], w3^a[3]
				}
				val[g.d] = vec{w0, w1, w2, w3}
			}
		case konst:
			for _, g := range st {
				val[g.d] = vec{g.co, g.co, g.co, g.co}
			}
		}
	}
}

// eval computes the value of a gate of kind k with fanins in from val, for
// observe's event-driven flips. It is GateType.EvalWords without first gathering the fanin words into a
// slice, which made whole campaigns measurably slower (EXPERIMENTS.md,
// "Gate evaluation"), and with the four words in locals.
func eval(k circuit.GateType, in []int32, val []vec) vec {
	var w0, w1, w2, w3 uint64
	switch k {
	case circuit.And, circuit.Nand:
		w0, w1, w2, w3 = ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
		for _, f := range in {
			v := &val[f]
			w0, w1, w2, w3 = w0&v[0], w1&v[1], w2&v[2], w3&v[3]
		}
	case circuit.Or, circuit.Nor:
		for _, f := range in {
			v := &val[f]
			w0, w1, w2, w3 = w0|v[0], w1|v[1], w2|v[2], w3|v[3]
		}
	case circuit.Xor, circuit.Xnor:
		for _, f := range in {
			v := &val[f]
			w0, w1, w2, w3 = w0^v[0], w1^v[1], w2^v[2], w3^v[3]
		}
	case circuit.Buf, circuit.Not:
		v := &val[in[0]]
		w0, w1, w2, w3 = v[0], v[1], v[2], v[3]
	default:
		w := k.EvalWords(nil) // constants
		return vec{w, w, w, w}
	}
	if k.Inverting() {
		w0, w1, w2, w3 = ^w0, ^w1, ^w2, ^w3
	}
	return vec{w0, w1, w2, w3}
}

// sens returns the lanes in which flipping fanin pin of gate y flips y:
// its Boolean difference at the good values of the other pins.
func (s *simulator) sens(y int32, pin int) vec {
	w0, w1, w2, w3 := ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
	switch s.v.Kind[y] {
	case circuit.And, circuit.Nand:
		for i, f := range s.v.FaninOf(y) {
			if i != pin {
				v := &s.val[f]
				w0, w1, w2, w3 = w0&v[0], w1&v[1], w2&v[2], w3&v[3]
			}
		}
	case circuit.Or, circuit.Nor:
		for i, f := range s.v.FaninOf(y) {
			if i != pin {
				v := &s.val[f]
				w0, w1, w2, w3 = w0&^v[0], w1&^v[1], w2&^v[2], w3&^v[3]
			}
		}
	}
	return vec{w0, w1, w2, w3} // Buf, Not, Xor, Xnor pass every flip
}

// trace sets s.path for every node of the FFR rooted at stem st. The
// region is a tree whose children are the non-stem fanins, each of which
// has its parent as its only consumer.
func (s *simulator) trace(st int32) {
	s.path[st] = vec{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	stack := append(s.stack[:0], st)
	for len(stack) > 0 {
		y := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for pin, x := range s.v.FaninOf(y) {
			if s.stem[x] != x {
				e, p := s.sens(y, pin), &s.path[y]
				s.path[x] = vec{e[0] & p[0], e[1] & p[1], e[2] & p[2], e[3] & p[3]}
				stack = append(stack, x)
			}
		}
	}
	s.stack = stack
}

// act returns the lanes in which fault f flips the output of site, its
// node (a stem fault) or its consuming gate (a branch fault).
func (s *simulator) act(site int32, f faults.Fault) vec {
	var stuck uint64
	if f.Stuck {
		stuck = ^uint64(0)
	}
	if f.Pin < 0 {
		v := &s.val[site]
		return vec{v[0] ^ stuck, v[1] ^ stuck, v[2] ^ stuck, v[3] ^ stuck}
	}
	v, e := &s.val[s.v.FaninOf(site)[f.Pin]], s.sens(site, f.Pin)
	return vec{(v[0] ^ stuck) & e[0], (v[1] ^ stuck) & e[1], (v[2] ^ stuck) & e[2], (v[3] ^ stuck) & e[3]}
}

// observe flips stem st in the lanes of mask, propagates the flip through
// its fanout cone in level order, restores the good values, and returns
// the lanes of mask in which some PO changed. A flip in one lane changes
// no other lane, so the result restricted to any smaller mask is what
// observe would return for that mask.
func (s *simulator) observe(st int32, mask vec) vec {
	if s.po[st] {
		return mask
	}
	var seen vec
	top := s.v.Level[st]
	v := &s.val[st]
	s.set(st, vec{v[0] ^ mask[0], v[1] ^ mask[1], v[2] ^ mask[2], v[3] ^ mask[3]}, &top)
	for l := s.v.Level[st] + 1; l <= top; l++ {
		for _, d := range s.bucket[l] {
			s.queued[d] = false
			// Every fanin sits on a lower level, so d is final here. Once
			// every lane of mask is seen, the rest of the cone only drains.
			if seen == mask {
				continue
			}
			if w := eval(s.v.Kind[d], s.v.FaninOf(d), s.val); w != s.val[d] {
				if s.po[d] {
					g := &s.val[d]
					seen = vec{seen[0] | (w[0] ^ g[0]), seen[1] | (w[1] ^ g[1]), seen[2] | (w[2] ^ g[2]), seen[3] | (w[3] ^ g[3])}
				}
				s.set(d, w, &top)
			}
		}
		s.bucket[l] = s.bucket[l][:0]
	}
	for i, d := range s.trail {
		s.val[d] = s.old[i]
	}
	s.trail, s.old = s.trail[:0], s.old[:0]
	return seen
}

// set gives node d the flipped value w and schedules its consumers; top
// tracks the highest level holding an event.
func (s *simulator) set(d int32, w vec, top *int32) {
	s.trail = append(s.trail, d)
	s.old = append(s.old, s.val[d])
	s.val[d] = w
	for _, c := range s.v.FanoutOf(d) {
		if !s.queued[c] {
			s.queued[c] = true
			l := s.v.Level[c]
			s.bucket[l] = append(s.bucket[l], c)
			*top = max(*top, l)
		}
	}
}

// detectWord returns the lanes of the current wide block that detect
// fault f (a difference observed at some PO): its activation and path
// words ANDed with its stem's observability word.
func (s *simulator) detectWord(f faults.Fault) vec {
	site := s.v.DenseOf[f.Node]
	st := s.stem[site]
	s.trace(st)
	a, p := s.act(site, f), &s.path[site]
	if r := (vec{a[0] & p[0], a[1] & p[1], a[2] & p[2], a[3] & p[3]}); r != (vec{}) {
		return s.observe(st, r)
	}
	return vec{}
}

// CampaignResult summarizes a random-pattern campaign (Table 6 columns).
type CampaignResult struct {
	TotalFaults   int
	Detected      int
	Remaining     []faults.Fault
	LastEffective int // 1-based index of the last pattern that detected a new fault
	Patterns      int // patterns applied
}

// Coverage returns detected / total.
func (r CampaignResult) Coverage() float64 {
	if r.TotalFaults == 0 {
		return 1
	}
	return float64(r.Detected) / float64(r.TotalFaults)
}

// CampaignOptions configures a random-pattern campaign.
type CampaignOptions struct {
	Patterns int   // random patterns to apply (rounded up to blocks of 64)
	Seed     int64 // pattern generator seed

	// Workers bounds the goroutines of the campaign (0 =
	// runtime.GOMAXPROCS(0), 1 = serial). Whole FFRs are dealt to workers
	// once per campaign; each worker simulates every wide block on its
	// share with its own simulator and pattern stream, and a serial merge
	// by fault index makes the result and every counter identical for
	// every worker count.
	Workers int

	// Tracer, when non-nil, wraps the campaign in a span.
	Tracer *obs.Tracer
}

// region is one FFR with undetected faults: faults[lo:lo+n] of its share.
type region struct{ stem, lo, n int32 }

// share is one worker's part of a campaign and the totals the merge reads.
type share struct {
	sim     simulator
	pat     par.Stream // the campaign's pattern stream
	regions []region
	faults  []int32 // fault indices, grouped by region, ascending in each
	reach   []vec   // activation AND path of each fault of a region
	load    int     // faults dealt

	detected, last, blocks int
}

// campaignState is the pooled per-campaign allocation bundle: one share
// per worker (simulator, pattern stream and fault lists) and the FFR
// grouping. Reseeding and Reset/attach on
// every acquisition keep campaigns pure functions of (circuit, faults,
// options).
type campaignState struct {
	shares  []*share
	site    []int32  // per fault: the node whose output it flips
	start   []int32  // per dense stem: its faults' offset in order
	order   []int32  // fault indices grouped by stem
	regions []region // FFRs holding faults, in stem order
	deal    []int32  // region indices, largest first
	owner   []int32  // per region: its share
	keep    []bool   // per fault: undetected at the end
}

var campPool = sync.Pool{New: func() any { return &campaignState{} }}

// RunRandom applies maxPatterns random patterns (rounded up to blocks of 64)
// to the collapsed fault list and reports detection statistics. The same
// seed yields the same pattern sequence for circuits with equal input
// counts, mirroring the paper's before/after comparison methodology.
func RunRandom(c *circuit.Circuit, fl []faults.Fault, maxPatterns int, seed int64) CampaignResult {
	return Campaign(c, fl, CampaignOptions{Patterns: maxPatterns, Seed: seed})
}

// Campaign is RunRandom with explicit options (tracing in particular).
func Campaign(c *circuit.Circuit, fl []faults.Fault, opt CampaignOptions) CampaignResult {
	sp := opt.Tracer.StartSpan("faultsim.campaign")
	defer sp.End()
	sp.SetInt("faults", int64(len(fl)))
	sp.SetInt("workers", int64(par.Workers(opt.Workers)))
	cs := campPool.Get().(*campaignState)
	defer campPool.Put(cs)
	res := cs.campaign(c, fl, opt)
	sp.SetInt("patterns", int64(res.Patterns))
	sp.SetInt("detected", int64(res.Detected))
	return res
}

// campaign runs one campaign on the state bundle cs.
func (cs *campaignState) campaign(c *circuit.Circuit, fl []faults.Fault, opt CampaignOptions) CampaignResult {
	w := par.Workers(opt.Workers)
	for len(cs.shares) < w {
		cs.shares = append(cs.shares, &share{})
	}
	s := &cs.shares[0].sim
	s.reset(c)

	// Group the faults by the stem of the node they flip (a counting
	// sort), so each FFR's faults are one run of order.
	n := s.v.N()
	cs.site = grow(cs.site, len(fl))
	cs.start = grow(cs.start, n+1)
	clear(cs.start)
	for i, f := range fl {
		cs.site[i] = s.v.DenseOf[f.Node]
		cs.start[s.stem[cs.site[i]]+1]++
	}
	cs.regions = cs.regions[:0]
	for d := int32(0); d < int32(n); d++ {
		lo, cnt := cs.start[d], cs.start[d+1]
		cs.start[d+1] = lo + cnt
		if cnt > 0 {
			cs.regions = append(cs.regions, region{stem: d, lo: lo, n: cnt})
		}
	}
	cs.order = grow(cs.order, len(fl))
	for i, d := range cs.site {
		st := s.stem[d]
		cs.order[cs.start[st]] = int32(i)
		cs.start[st]++
	}

	// Deal whole regions, largest first, each to the least-loaded share.
	if len(fl) < shareGrain {
		w = 1
	}
	w = max(1, min(w, len(cs.regions)))
	cs.owner = grow(cs.owner, len(cs.regions))
	clear(cs.owner)
	if w > 1 {
		for k := range cs.shares[:w] {
			cs.shares[k].load = 0
		}
		cs.deal = cs.deal[:0]
		for r := range cs.regions {
			cs.deal = append(cs.deal, int32(r))
		}
		slices.SortStableFunc(cs.deal, func(a, b int32) int { return int(cs.regions[b].n - cs.regions[a].n) })
		for _, r := range cs.deal {
			k := 0
			for j := 1; j < w; j++ {
				if cs.shares[j].load < cs.shares[k].load {
					k = j
				}
			}
			cs.owner[r] = int32(k)
			cs.shares[k].load += int(cs.regions[r].n)
		}
	}
	shares := cs.shares[:w]
	for k, sh := range shares {
		if k > 0 {
			sh.sim.attach(s)
		}
		sh.regions, sh.faults = sh.regions[:0], sh.faults[:0]
		sh.detected, sh.last, sh.blocks = 0, 0, 0
		sh.pat.Seed(opt.Seed)
	}
	for r, reg := range cs.regions {
		sh := shares[cs.owner[r]]
		sh.regions = append(sh.regions, region{stem: reg.stem, lo: int32(len(sh.faults)), n: reg.n})
		sh.faults = append(sh.faults, cs.order[reg.lo:reg.lo+reg.n]...)
		sh.reach = grow(sh.reach, max(len(sh.reach), int(reg.n)))
	}

	blocks := (opt.Patterns + 63) / 64
	site := cs.site
	par.Run(nil, "faultsim.share", w, w, func(_, k int) {
		shares[k].run(fl, site, blocks)
	})

	// Merge by fault index: the survivors keep their input order.
	res := CampaignResult{TotalFaults: len(fl), Patterns: blocks * 64}
	cs.keep = grow(cs.keep, len(fl))
	clear(cs.keep)
	run := 0
	for _, sh := range shares {
		res.Detected += sh.detected
		res.LastEffective = max(res.LastEffective, sh.last)
		run = max(run, sh.blocks)
		for _, i := range sh.faults {
			cs.keep[i] = true
		}
	}
	if left := len(fl) - res.Detected; left > 0 {
		res.Remaining = make([]faults.Fault, 0, left)
	}
	for i, f := range fl {
		if cs.keep[i] {
			res.Remaining = append(res.Remaining, f)
		}
	}
	mPatterns.Add(int64(run) * 64)
	mDetected.Add(int64(res.Detected))
	return res
}

// run simulates up to blocks 64-pattern blocks on the share's regions,
// width at a time, until none holds an undetected fault. On return
// sh.faults holds exactly the undetected faults, and sh.blocks, sh.last and
// every counter are those of simulating the blocks one at a time.
func (sh *share) run(fl []faults.Fault, site []int32, blocks int) {
	s := &sh.sim
	for b0 := 0; b0 < blocks && len(sh.regions) > 0; b0 += width {
		// Block b0+k fills word k with the draws a 64-pattern campaign
		// takes for it, input by input. The n blocks within the budget
		// are lanes; the words past it are 0, and masking them out of
		// every reach word keeps observe from flipping them. The replay
		// reads only the first n words.
		n := min(width, blocks-b0)
		var lanes vec
		in := s.v.In
		for k := range width {
			if k < n {
				lanes[k] = ^uint64(0)
			}
			for j := 0; j < len(in); {
				for _, x := range sh.pat.Next(len(in) - j) {
					s.val[in[j]][k] = x & lanes[k]
					j++
				}
			}
		}
		s.runGood()
		evals, stems, ran := 0, 0, 0 // ran: blocks in which some fault was live
		kept := sh.regions[:0]
		for _, r := range sh.regions {
			fs := sh.faults[r.lo : r.lo+r.n]
			s.trace(r.stem)
			var mask vec
			for j, i := range fs {
				a, p := s.act(site[i], fl[i]), &s.path[site[i]]
				rc := &sh.reach[j]
				for k := range width {
					rc[k] = a[k] & p[k] & lanes[k]
					mask[k] |= rc[k]
				}
			}
			var seen vec
			if mask != (vec{}) {
				seen = s.observe(r.stem, mask)
			}
			if seen == (vec{}) {
				// Nothing detected: every fault is live in every block,
				// and the stem is flipped in each block it is reached in.
				evals += n * len(fs)
				stems += nonzero(mask[:n])
				ran = n
				kept = append(kept, r)
				continue
			}
			// Replay the blocks in order: a fault is live up to and
			// including its first detecting block, and the stem is flipped
			// in a block where a live fault reaches it.
			var flipped vec
			r.n = 0
			for j, i := range fs {
				rc := &sh.reach[j]
				k, d := 0, uint64(0)
				for ; k < n; k++ {
					flipped[k] |= rc[k]
					if d = rc[k] & seen[k]; d != 0 {
						break
					}
				}
				if d != 0 {
					evals += k + 1
					ran = max(ran, k+1)
					sh.detected++
					sh.last = max(sh.last, (b0+k)*64+bits.TrailingZeros64(d)+1)
				} else {
					evals += n
					ran = n
					fs[r.n] = i
					r.n++
				}
			}
			stems += nonzero(flipped[:n])
			if r.n > 0 {
				kept = append(kept, r)
			}
		}
		sh.regions = kept
		sh.blocks = b0 + ran
		mFaultEval.Add(int64(evals))
		mStemEval.Add(int64(stems))
	}
	// Compact the survivors to the front: the merge reads sh.faults.
	n := 0
	for _, r := range sh.regions {
		n += copy(sh.faults[n:], sh.faults[r.lo:r.lo+r.n])
	}
	sh.faults = sh.faults[:n]
}

// nonzero counts the non-zero words of ws.
func nonzero(ws []uint64) int {
	n := 0
	for _, w := range ws {
		if w != 0 {
			n++
		}
	}
	return n
}

// DetectedBy reports whether pattern pi (one bool per input) detects fault f.
func DetectedBy(c *circuit.Circuit, f faults.Fault, pi []bool) bool {
	s := newSimulator(c)
	words := make([]vec, len(pi))
	for j, v := range pi {
		if v {
			words[j][0] = 1
		}
	}
	s.setInputs(words)
	s.runGood()
	return s.detectWord(f)[0]&1 != 0
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/2+8)
	}
	return s[:n]
}
