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
// A campaign keeps each fault as a compact record, grouped by region. Its
// workers sweep wide block 0, which usually detects most faults, together
// and merge it first; the later wide blocks run through par.Ordered, which
// claims them in order, with their patterns drawn from the one stream as
// they are claimed. A worker sweeps its block once and simulates every
// fault still undetected when it claimed. The blocks are merged strictly
// in block order, and a block claimed before an earlier block's detections
// were merged has its counts recounted over the faults still undetected,
// so results and counters are those of the serial campaign for any worker
// count.
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
	"sync/atomic"

	"compsynth/internal/circuit"
	"compsynth/internal/faults"
	"compsynth/internal/metric"
	"compsynth/internal/obs"
	"compsynth/internal/par"
)

const (
	// sweepGrain is the smallest view, in nodes, whose campaign fans out:
	// below it a wide block's sweep is too short to pay for the hand-offs,
	// and the campaign runs its one loop inline. No view under 32 nodes ran
	// faster on two workers; from 32 to about 100 nodes two workers ran
	// from 0.7 to 1.2 times the one worker's time, and above that they won
	// (EXPERIMENTS.md, "Claimed wide blocks in the stuck-at campaign").
	sweepGrain = 32

	// regionChunk is how many regions a worker takes at a time while the
	// workers sweep wide block 0 together: of 4, 16 and 64, 16 read
	// best on the redundancy filter's campaigns.
	regionChunk = 16
)

// width is the number of 64-pattern blocks simulated together. The gate
// kernels spell out its four words in locals, which measured faster than
// loops over width (EXPERIMENTS.md, "Wide blocks in the stuck-at
// campaign"), so changing it means rewriting them.
const width = 4

// vec is one node's value in a wide block: word k holds block k's 64
// patterns.
type vec [width]uint64

// Simulation metrics (batched adds: evaluations once per merged wide block,
// patterns and detections once per campaign). Every count is that of a
// serial 64-pattern campaign.
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

	// The FFR trees, for trace: tree[treeAt[st]:treeAt[st+1]] links each
	// other node of stem st's region to its consumer, in descending dense
	// id, so every node comes after its consumer.
	tree   []link
	treeAt []int32

	// The good-value schedule (see plan): runs of steps, and the packed
	// fanins of the steps of fixed-fanin runs.
	runs  []run
	steps []step
	fan   []int32

	val    []vec     // good values of the current wide block; observe changes them only transiently
	path   []vec     // lanes in which a node's flip reaches its stem (last traced FFR)
	queued []bool    // node has a pending event in bucket
	bucket [][]int32 // pending events of a stem flip, by level
	trail  []int32   // nodes a stem flip changed
	old    []vec     // their good values
	reach  []vec     // activation AND path of each fault of the region being swept
	drawn  []uint64  // the stream values of the block being swept, by block, then input
	share  tally     // the tally of its part of wide block 0
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
	s.linkTrees()
	s.plan()
	s.sizeScratch()
}

// link is one edge of an FFR tree: node x drives pin pin of y, its one
// consumer.
type link struct{ x, y, pin int32 }

// linkTrees groups the non-stem nodes by stem (a counting sort that fills
// each stem's range from its end, so ascending ids land in descending
// order).
func (s *simulator) linkTrees() {
	n := int32(s.v.N())
	s.treeAt = grow(s.treeAt, int(n)+1)
	clear(s.treeAt)
	for d := range n {
		if st := s.stem[d]; st != d {
			s.treeAt[st]++
		}
	}
	total := int32(0)
	for d := range s.treeAt {
		total += s.treeAt[d]
		s.treeAt[d] = total
	}
	s.tree = grow(s.tree, int(total))
	for d := range n {
		if st := s.stem[d]; st != d {
			y := s.v.FanoutOf(d)[0]
			s.treeAt[st]--
			s.tree[s.treeAt[st]] = link{x: d, y: y, pin: int32(slices.Index(s.v.FaninOf(y), d))}
		}
	}
}

// attach shares parent's view, PO mask, FFRs and schedule read-only and
// gives s its own block state, so s can simulate blocks concurrently with
// parent.
func (s *simulator) attach(parent *simulator) {
	s.v, s.po, s.stem = parent.v, parent.po, parent.stem
	s.tree, s.treeAt = parent.tree, parent.treeAt
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
	s.drawn = grow(s.drawn, width*len(s.v.In))
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

// sens clears in *w the lanes in which flipping fanin pin of gate y does
// not flip y: it ANDs in y's Boolean difference at the good values of the
// other pins. Vectors go through pointers here and in act, because a
// returned array is passed in memory, and the words through locals, which
// the compiler keeps in registers.
func (s *simulator) sens(y int32, pin int, w *vec) {
	var inv uint64 // AND/NAND pass a flip where the others are 1, OR/NOR where they are 0
	switch s.v.Kind[y] {
	case circuit.And, circuit.Nand:
	case circuit.Or, circuit.Nor:
		inv = ^uint64(0)
	default:
		return // Buf, Not, Xor, Xnor pass every flip
	}
	w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
	for i, f := range s.v.FaninOf(y) {
		if i != pin {
			v := &s.val[f]
			w0, w1, w2, w3 = w0&(v[0]^inv), w1&(v[1]^inv), w2&(v[2]^inv), w3&(v[3]^inv)
		}
	}
	*w = vec{w0, w1, w2, w3}
}

// trace sets s.path for every node of the FFR rooted at stem st, in the
// lanes of lanes. The region is a tree whose children are the non-stem
// fanins, each of which has its parent as its only consumer; the links
// list every child after its parent.
func (s *simulator) trace(st int32, lanes vec) {
	s.path[st] = lanes
	for _, l := range s.tree[s.treeAt[st]:s.treeAt[st+1]] {
		s.path[l.x] = s.path[l.y]
		s.sens(l.y, int(l.pin), &s.path[l.x])
	}
}

// rec is one fault as the campaign's block loop reads it.
type rec struct {
	stuck uint64 // the stuck value in every lane
	src   int32  // the node whose good value the fault reads: site, or the faulty pin's driver
	site  int32  // the node whose output the fault flips: its node, or the pin's gate
	pin   int32  // the faulty pin of site; -1 for a stem fault
	idx   int32  // the fault's index in the campaign's list
}

// record returns the record of fault f, the i-th of its list.
func (s *simulator) record(f faults.Fault, i int) rec {
	site := s.v.DenseOf[f.Node]
	r := rec{src: site, site: site, pin: int32(f.Pin), idx: int32(i)}
	if f.Pin >= 0 {
		r.src = s.v.FaninOf(site)[f.Pin]
	}
	if f.Stuck {
		r.stuck = ^uint64(0)
	}
	return r
}

// act sets *a to the lanes in which fault f flips the output of its site:
// its good value differs from the stuck value and, for a branch fault, the
// site's gate passes the flip of its pin.
func (s *simulator) act(f *rec, a *vec) {
	v, m := &s.val[f.src], f.stuck
	*a = vec{v[0] ^ m, v[1] ^ m, v[2] ^ m, v[3] ^ m}
	if f.pin >= 0 {
		s.sens(f.site, int(f.pin), a)
	}
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
	r := s.record(f, 0)
	st := s.stem[r.site]
	s.trace(st, vec{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)})
	var a vec
	s.act(&r, &a)
	p := &s.path[r.site]
	if m := (vec{a[0] & p[0], a[1] & p[1], a[2] & p[2], a[3] & p[3]}); m != (vec{}) {
		return s.observe(st, m)
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
	// runtime.GOMAXPROCS(0), 1 = serial). The workers sweep wide block 0
	// together; the later wide blocks run through par.Ordered, each swept
	// once by the worker that claimed it, over the faults still undetected
	// when it claimed. A merge in block order makes the result and every
	// counter identical for every worker count.
	Workers int

	// Tracer, when non-nil, wraps the campaign in a span.
	Tracer *obs.Tracer
}

// region is one FFR with undetected faults: recs[lo:lo+n] of a live set.
type region struct{ stem, lo, n int32 }

// liveSet holds undetected faults as records grouped by region. A claim
// gives its slot the current set to read; a merge that detects faults
// compacts the current set in place when no slot in flight reads it, and
// otherwise into a set none reads, which becomes current.
type liveSet struct {
	recs    []rec
	regions []region
	refs    int // slots in flight that read it
}

// tally is what a sweep counts, as if it simulated its blocks one at a
// time: fault and stem evaluations, the blocks in which some fault was
// live, and the faults detected.
type tally struct{ evals, stems, ran, found int }

func (t *tally) add(u tally) {
	t.evals, t.stems, t.ran, t.found = t.evals+u.evals, t.stems+u.stems, max(t.ran, u.ran), t.found+u.found
}

// slot holds one wide block in flight: the live set it was claimed with
// and what its sweep found.
type slot struct {
	b0, n int      // its first 64-pattern block; its blocks within the budget
	set   *liveSet // the undetected faults when it was claimed
	out   []uint16 // per fault of set: its outcome in the block (see sweep)
	t     tally    // the block's, if set is still current when it is merged
}

// Bits of a fault's outcome: bit k is set if the fault reaches its stem in
// block b0+k; a detected fault has outDet set, the first detecting block
// at outBlock and its lane at outLane.
const (
	outDet   = 1 << 4
	outBlock = 5
	outLane  = 8
)

// campaignState is the pooled per-campaign allocation bundle and the state
// the workers of a campaign share. Reseeding and reset/attach on every
// acquisition keep campaigns pure functions of (circuit, faults, options).
// Its pipeline (par.Ordered) claims wide blocks, with their draws, and
// merges them under one lock.
type campaignState struct {
	sims   []*simulator // per worker; the others attach to sims[0]
	taken  atomic.Int32 // regions of wide block 0 taken by its sweepers
	start  []int32      // per dense stem: its faults' offset in the first set
	done   []bool       // per fault: detected in a merged block
	sets   []*liveSet   // every set of the bundle
	slots  []slot       // pipeline block b is swept in slots[b%len(slots)]
	blocks int          // 64-pattern blocks in the budget
	first  int          // the wide block of pipeline block 0

	pipe par.Ordered
	pat  par.Stream // the pattern stream, drawn in block order
	cur  *liveSet   // the undetected faults
	ran  int        // 64-pattern blocks run
	res  CampaignResult
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

// campaign runs one campaign on the state bundle cs. Wide block 0 usually
// detects most faults: with more than one worker, the workers sweep it
// together and merge it before the pipeline claims wide block 1, so later
// blocks read only the survivors, and none runs if it detected every fault.
func (cs *campaignState) campaign(c *circuit.Circuit, fl []faults.Fault, opt CampaignOptions) CampaignResult {
	w, wide := cs.setup(c, fl, opt)
	if w == 1 || !cs.block0(w) {
		cs.pipe.Run(w, wide-cs.first, cs)
	}
	return cs.result(fl)
}

// setup binds cs to a campaign of fl on c and returns its worker count and
// its wide blocks.
func (cs *campaignState) setup(c *circuit.Circuit, fl []faults.Fault, opt CampaignOptions) (w, wide int) {
	w = par.Workers(opt.Workers)
	for len(cs.sims) < w {
		cs.sims = append(cs.sims, &simulator{})
	}
	s := cs.sims[0]
	s.reset(c)

	// Give each fault its record, grouped by the stem of the node it flips
	// (a counting sort), so each FFR's faults are one run of the set.
	if len(cs.sets) == 0 {
		cs.sets = append(cs.sets, &liveSet{})
	}
	for _, set := range cs.sets {
		set.refs = 0
	}
	cs.cur = cs.sets[0]
	n := s.v.N()
	cs.start = grow(cs.start, n+1)
	clear(cs.start)
	for _, f := range fl {
		cs.start[s.stem[s.v.DenseOf[f.Node]]+1]++
	}
	set := cs.cur
	set.regions = set.regions[:0]
	for d := int32(0); d < int32(n); d++ {
		lo, cnt := cs.start[d], cs.start[d+1]
		cs.start[d+1] = lo + cnt
		if cnt > 0 {
			set.regions = append(set.regions, region{stem: d, lo: lo, n: cnt})
		}
	}
	set.recs = grow(set.recs, len(fl))
	for i, f := range fl {
		r := s.record(f, i)
		st := s.stem[r.site]
		set.recs[cs.start[st]] = r
		cs.start[st]++
	}
	cs.done = grow(cs.done, len(fl))
	clear(cs.done)

	cs.blocks = (opt.Patterns + 63) / 64
	wide = (cs.blocks + width - 1) / width
	if len(fl) == 0 {
		wide = 0 // nothing to detect
	}
	if n < sweepGrain {
		w = 1
	}
	w = max(1, min(w, wide))
	cs.slots = slices.Grow(cs.slots[:0], par.Ahead*w)[:par.Ahead*w]
	cs.first, cs.ran = 0, 0
	cs.taken.Store(0)
	cs.res = CampaignResult{TotalFaults: len(fl), Patterns: cs.blocks * 64}
	cs.pat.Seed(opt.Seed)
	return w, wide
}

// result reports the campaign cs ran on fl and adds its pattern and
// detection counts.
func (cs *campaignState) result(fl []faults.Fault) CampaignResult {
	res := cs.res
	if left := len(fl) - res.Detected; left > 0 {
		res.Remaining = make([]faults.Fault, 0, left)
		for i, f := range fl {
			if !cs.done[i] {
				res.Remaining = append(res.Remaining, f)
			}
		}
	}
	mPatterns.Add(int64(cs.ran) * 64)
	mDetected.Add(int64(res.Detected))
	return res
}

// block0 sweeps wide block 0 on w workers together, claiming and merging
// it as the pipeline would; it reports whether the merge detected every
// fault. A region's cost varies with its stem's fanout cone, and a fixed
// split of the regions left one worker most of the block (EXPERIMENTS.md),
// so each worker takes the next regionChunk regions until none is left.
func (cs *campaignState) block0(w int) (stop bool) {
	for _, s := range cs.sims[1:w] {
		s.attach(cs.sims[0])
	}
	cs.Claim(0, 0)
	sl := &cs.slots[0]
	par.Run(w, w, func(_, k int) { cs.part(sl, k) })
	for _, s := range cs.sims[:w] {
		sl.t.add(s.share)
	}
	stop = cs.Merge(0)
	cs.first = 1
	return stop
}

// part sweeps its share of wide block 0, whose patterns Claim drew into
// cs.sims[0], with simulator cs.sims[k], and leaves its tally in the
// simulator.
func (cs *campaignState) part(sl *slot, k int) {
	s, n := cs.sims[k], len(sl.set.regions)
	s.load(sl, cs.sims[0].drawn)
	s.share = tally{}
	for {
		lo := int(cs.taken.Add(regionChunk)) - regionChunk
		if lo >= n {
			return
		}
		s.share.add(s.sweep(sl, lo, min(lo+regionChunk, n)))
	}
}

// Claim takes pipeline block b, wide block cs.first+b, for worker: its
// slot reads the current live set, and its patterns are drawn into the
// worker's simulator.
func (cs *campaignState) Claim(b, worker int) {
	sl, s := &cs.slots[b%len(cs.slots)], cs.sims[worker]
	sl.set = cs.cur
	sl.set.refs++
	sl.out = grow(sl.out, len(sl.set.recs))
	sl.t = tally{}
	// The stream is drawn in block order, 64-pattern block by block and
	// input by input within one, as a 64-pattern campaign draws it.
	sl.b0 = width * (cs.first + b)
	sl.n = min(width, cs.blocks-sl.b0)
	drawn := s.drawn[:sl.n*len(s.v.In)]
	for i := 0; i < len(drawn); {
		i += copy(drawn[i:], cs.pat.Next(len(drawn)-i))
	}
}

// Run sweeps pipeline block b with the simulator of the worker that
// claimed it.
func (cs *campaignState) Run(b, worker int) {
	sl, s := &cs.slots[b%len(cs.slots)], cs.sims[worker]
	s.load(sl, s.drawn)
	sl.t = s.sweep(sl, 0, len(sl.set.regions))
}

// load computes the good values of the wide block of sl, whose patterns
// are in drawn.
func (s *simulator) load(sl *slot, drawn []uint64) {
	// Block b0+k fills word k with the draws a 64-pattern campaign takes
	// for it, input by input; the words past the budget are 0.
	n, m := sl.n, len(s.v.In)
	for j, d := range s.v.In {
		var w vec
		for k := range n {
			w[k] = drawn[k*m+j]
		}
		s.val[d] = w
	}
	s.runGood()
}

// sweep simulates regions [lo, hi) of sl's set on the loaded block: per
// region a trace, every fault's activation and path, and one observation
// of the stem. It leaves each fault's outcome in sl.out and returns its
// tally.
func (s *simulator) sweep(sl *slot, lo, hi int) tally {
	n := sl.n
	var lanes vec
	for k := range n {
		lanes[k] = ^uint64(0)
	}
	var t tally
	for _, r := range sl.set.regions[lo:hi] {
		fs, out := sl.set.recs[r.lo:r.lo+r.n], sl.out[r.lo:r.lo+r.n]
		s.reach = grow(s.reach, len(fs))
		s.trace(r.stem, lanes)
		var mask vec
		for j := range fs {
			rc, p := &s.reach[j], &s.path[fs[j].site]
			s.act(&fs[j], rc)
			r0, r1, r2, r3 := rc[0]&p[0], rc[1]&p[1], rc[2]&p[2], rc[3]&p[3]
			*rc = vec{r0, r1, r2, r3}
			mask = vec{mask[0] | r0, mask[1] | r1, mask[2] | r2, mask[3] | r3}
			out[j] = uint16(nz(r0) | nz(r1)<<1 | nz(r2)<<2 | nz(r3)<<3)
		}
		var seen vec
		if mask != (vec{}) {
			seen = s.observe(r.stem, mask)
		}
		if seen == (vec{}) {
			// Nothing detected: every fault is live in every block, and
			// the stem is flipped in each block it is reached in.
			t.evals += n * len(fs)
			t.stems += nonzero(mask[:n])
			t.ran = n
			continue
		}
		// Replay the blocks in order: a fault is live up to and including
		// its first detecting block, and the stem is flipped in a block
		// where a live fault reaches it.
		var flipped vec
		for j := range fs {
			rc := &s.reach[j]
			k, d := 0, uint64(0)
			for ; k < n; k++ {
				flipped[k] |= rc[k]
				if d = rc[k] & seen[k]; d != 0 {
					break
				}
			}
			if d != 0 {
				t.evals += k + 1
				t.ran = max(t.ran, k+1)
				t.found++
				out[j] |= outDet | uint16(k)<<outBlock | uint16(bits.TrailingZeros64(d))<<outLane
			} else {
				t.evals += n
				t.ran = n
			}
		}
		t.stems += nonzero(flipped[:n])
	}
	return t
}

// Merge applies pipeline block b to the campaign and stops it once every
// fault is detected. A block claimed before an earlier block's merge
// detected something reads faults detected since; which lanes detect a
// fault does not depend on the faults beside it, so the block's outcomes
// stay exact, and its tally is recounted over the faults still undetected.
// A block that reads the current set keeps the tally of its sweep.
func (cs *campaignState) Merge(b int) (stop bool) {
	sl := &cs.slots[b%len(cs.slots)]
	set, t := sl.set, sl.t
	if set != cs.cur {
		t = cs.recount(sl)
	}
	if t.found > 0 {
		for j, o := range sl.out[:len(set.recs)] {
			if o&outDet == 0 {
				continue
			}
			if f := set.recs[j].idx; !cs.done[f] {
				cs.done[f] = true
				cs.res.LastEffective = max(cs.res.LastEffective, (sl.b0+int(o>>outBlock&3))*64+int(o>>outLane)+1)
			}
		}
	}
	set.refs--
	cs.ran = sl.b0 + t.ran
	mFaultEval.Add(int64(t.evals))
	mStemEval.Add(int64(t.stems))
	if t.found == 0 {
		return false
	}
	cs.res.Detected += t.found
	// Compact the survivors, in place if no slot in flight reads the set.
	src, dst := cs.cur, cs.cur
	if src.refs > 0 {
		dst = cs.spare()
		dst.recs = grow(dst.recs, len(src.recs))
	}
	kept, at := dst.regions[:0], int32(0)
	for _, r := range src.regions {
		lo := at
		for _, f := range src.recs[r.lo : r.lo+r.n] {
			if !cs.done[f.idx] {
				dst.recs[at] = f
				at++
			}
		}
		if at > lo {
			kept = append(kept, region{stem: r.stem, lo: lo, n: at - lo})
		}
	}
	dst.recs, dst.regions = dst.recs[:at], kept
	cs.cur = dst
	return at == 0
}

// recount returns the tally of sl's block over the faults of its set not
// detected in an earlier block: a fault is live up to and including its
// first detecting block, and a stem is flipped in a block where a live
// fault of its region reaches it.
func (cs *campaignState) recount(sl *slot) tally {
	var t tally
	set := sl.set
	for _, r := range set.regions {
		flipped := uint16(0)
		for j := r.lo; j < r.lo+r.n; j++ {
			if cs.done[set.recs[j].idx] {
				continue
			}
			o, live := sl.out[j], sl.n
			if o&outDet != 0 {
				live = int(o>>outBlock&3) + 1
				t.found++
			}
			t.evals += live
			t.ran = max(t.ran, live)
			flipped |= o & (1<<live - 1)
		}
		t.stems += bits.OnesCount16(flipped)
	}
	return t
}

// spare returns a set that is not current and that no slot in flight
// reads, adding one to the bundle if there is none.
func (cs *campaignState) spare() *liveSet {
	for _, set := range cs.sets {
		if set.refs == 0 && set != cs.cur {
			return set
		}
	}
	set := &liveSet{}
	cs.sets = append(cs.sets, set)
	return set
}

// nz is 1 if w is non-zero and 0 otherwise.
func nz(w uint64) uint64 { return (w | -w) >> 63 }

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
