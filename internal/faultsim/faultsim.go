// Package faultsim is a parallel-pattern stuck-at fault simulator in the
// style of FSIM [17]: 64 patterns are simulated per word, and faults are
// simulated per fanout-free region (FFR) rather than one at a time.
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
//     found by propagating the stem's flip event-driven, once per block
//     for all the region's faults.
//
// Inside an FFR no side input lies in the site's fanout, so a single-lane
// flip passes a gate exactly when the gate's Boolean difference with
// respect to that pin is 1 at the good side-input values; the product is
// the word a per-fault propagation would compute, lane for lane.
//
// Simulation runs on the circuit's frozen CSR view (circuit.Freeze): dense
// int32 ids in level-major order, so ascending dense id is a topological
// order and a node's consumers all sit on higher levels.
package faultsim

import (
	"math/bits"
	"math/rand"
	"slices"
	"sync"

	"compsynth/internal/circuit"
	"compsynth/internal/faults"
	"compsynth/internal/obs"
	"compsynth/internal/par"
)

// shareGrain is the smallest fault list worth splitting over workers; a
// smaller campaign runs serially, since every worker repeats the
// good-value simulation of every block.
const shareGrain = 128

// Simulation metrics (batched adds: one per 64-pattern block and worker).
var (
	mPatterns  = obs.C("faultsim.patterns_simulated")
	mFaultEval = obs.C("faultsim.fault_evals")
	mStemEval  = obs.C("faultsim.stem_evals")
	mDetected  = obs.C("faultsim.faults_detected")
	gBlocks    = obs.G("faultsim.blocks_done")
)

// Simulator simulates one circuit snapshot, 64 patterns per word. All
// per-node state is indexed by dense CSR id.
type Simulator struct {
	v    *circuit.CSR
	po   []bool  // dense PO-driver mask
	stem []int32 // dense node -> the stem of its FFR (itself for a stem)

	val    []uint64  // good words of the current block; observe changes them only transiently
	path   []uint64  // lanes in which a node's flip reaches its stem (last traced FFR)
	stack  []int32   // trace worklist
	queued []bool    // node has a pending event in bucket
	bucket [][]int32 // pending events of a stem flip, by level
	trail  []int32   // nodes a stem flip changed
	old    []uint64  // their good words
}

// New builds a simulator for c's current state.
func New(c *circuit.Circuit) *Simulator {
	s := &Simulator{}
	s.Reset(c)
	return s
}

// Reset rebinds the simulator to c's current state, reusing all buffers,
// and splits the view into FFRs.
func (s *Simulator) Reset(c *circuit.Circuit) {
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
	s.sizeScratch()
}

// attach shares parent's view, PO mask and FFRs read-only and gives s its
// own block state, so s can simulate blocks concurrently with parent.
func (s *Simulator) attach(parent *Simulator) {
	s.v, s.po, s.stem = parent.v, parent.po, parent.stem
	s.sizeScratch()
}

// sizeScratch (re)sizes and clears the per-block state.
func (s *Simulator) sizeScratch() {
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

// SetInputs loads one 64-pattern block: words[j] drives primary input j.
func (s *Simulator) SetInputs(words []uint64) {
	for j, in := range s.v.In {
		s.val[in] = words[j]
	}
}

// RunGood computes the fault-free values for the current block.
func (s *Simulator) RunGood() {
	start, edge := s.v.FaninStart, s.v.FaninEdge
	for d, k := range s.v.Kind {
		if k != circuit.Input {
			s.val[d] = eval(k, edge[start[d]:start[d+1]], s.val)
		}
	}
}

// eval computes the word of a gate of kind k with fanins in from val. It is
// GateType.EvalWords without first gathering the fanin words into a slice,
// which made whole campaigns measurably slower (EXPERIMENTS.md, "Gate
// evaluation").
func eval(k circuit.GateType, in []int32, val []uint64) uint64 {
	var w uint64
	switch k {
	case circuit.And, circuit.Nand:
		w = ^uint64(0)
		for _, f := range in {
			w &= val[f]
		}
	case circuit.Or, circuit.Nor:
		for _, f := range in {
			w |= val[f]
		}
	case circuit.Xor, circuit.Xnor:
		for _, f := range in {
			w ^= val[f]
		}
	case circuit.Buf, circuit.Not:
		w = val[in[0]]
	default:
		return k.EvalWords(nil) // constants
	}
	if k.Inverting() {
		w = ^w
	}
	return w
}

// sens returns the lanes in which flipping fanin pin of gate y flips y:
// its Boolean difference at the good values of the other pins.
func (s *Simulator) sens(y int32, pin int) uint64 {
	w := ^uint64(0)
	switch s.v.Kind[y] {
	case circuit.And, circuit.Nand:
		for i, f := range s.v.FaninOf(y) {
			if i != pin {
				w &= s.val[f]
			}
		}
	case circuit.Or, circuit.Nor:
		for i, f := range s.v.FaninOf(y) {
			if i != pin {
				w &^= s.val[f]
			}
		}
	}
	return w // Buf, Not, Xor, Xnor pass every flip
}

// trace sets s.path for every node of the FFR rooted at stem st. The
// region is a tree whose children are the non-stem fanins, each of which
// has its parent as its only consumer.
func (s *Simulator) trace(st int32) {
	s.path[st] = ^uint64(0)
	stack := append(s.stack[:0], st)
	for len(stack) > 0 {
		y := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for pin, x := range s.v.FaninOf(y) {
			if s.stem[x] != x {
				s.path[x] = s.sens(y, pin) & s.path[y]
				stack = append(stack, x)
			}
		}
	}
	s.stack = stack
}

// act returns the lanes in which fault f flips the output of site, its
// node (a stem fault) or its consuming gate (a branch fault).
func (s *Simulator) act(site int32, f faults.Fault) uint64 {
	var stuck uint64
	if f.Stuck {
		stuck = ^uint64(0)
	}
	if f.Pin < 0 {
		return s.val[site] ^ stuck
	}
	return (s.val[s.v.FaninOf(site)[f.Pin]] ^ stuck) & s.sens(site, f.Pin)
}

// observe flips stem st in the lanes of mask, propagates the flip through
// its fanout cone in level order, restores the good words, and returns
// the lanes of mask in which some PO changed.
func (s *Simulator) observe(st int32, mask uint64) uint64 {
	if s.po[st] {
		return mask
	}
	var seen uint64
	top := s.v.Level[st]
	s.set(st, s.val[st]^mask, &top)
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
					seen |= w ^ s.val[d]
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

// set gives node d the flipped word w and schedules its consumers; top
// tracks the highest level holding an event.
func (s *Simulator) set(d int32, w uint64, top *int32) {
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

// DetectWord returns the word of patterns in the current block that detect
// fault f (a difference observed at some PO): its activation and path words
// ANDed with its stem's observability word.
func (s *Simulator) DetectWord(f faults.Fault) uint64 {
	site := s.v.DenseOf[f.Node]
	st := s.stem[site]
	s.trace(st)
	if r := s.act(site, f) & s.path[site]; r != 0 {
		return s.observe(st, r)
	}
	return 0
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
	// once per campaign; each worker simulates every block on its share
	// with its own simulator and pattern stream, and a serial merge by
	// fault index makes the result and every counter identical for every
	// worker count.
	Workers int

	// Tracer, when non-nil, wraps the campaign in a span.
	Tracer *obs.Tracer
}

// region is one FFR with undetected faults: faults[lo:lo+n] of its share.
type region struct{ stem, lo, n int32 }

// share is one worker's part of a campaign and the totals the merge reads.
type share struct {
	sim     Simulator
	rng     *rand.Rand
	words   []uint64
	regions []region
	faults  []int32  // fault indices, grouped by region, ascending in each
	reach   []uint64 // activation AND path word of each fault of a region
	load    int      // faults dealt

	detected, last, blocks int
}

// campaignState is the pooled per-campaign allocation bundle: one share
// per worker (simulator, RNG — a math/rand source is a ~5KB allocation —
// and fault lists) and the FFR grouping. Reseeding and Reset/attach on
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
		cs.shares = append(cs.shares, &share{rng: rand.New(rand.NewSource(0))})
	}
	s := &cs.shares[0].sim
	s.Reset(c)

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
		sh.rng.Seed(opt.Seed)
		sh.words = grow(sh.words, len(c.Inputs))
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
		shares[k].run(fl, site, blocks, k == 0)
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
	if run > 0 {
		gBlocks.Set(int64(run))
	}
	mPatterns.Add(int64(run) * 64)
	mDetected.Add(int64(res.Detected))
	return res
}

// run simulates up to blocks pattern blocks on the share's regions, until
// none holds an undetected fault. On return sh.faults holds exactly the
// undetected faults. live marks the share that reports block progress.
func (sh *share) run(fl []faults.Fault, site []int32, blocks int, live bool) {
	s := &sh.sim
	for b := 0; b < blocks && len(sh.regions) > 0; b++ {
		for j := range sh.words {
			sh.words[j] = sh.rng.Uint64()
		}
		s.SetInputs(sh.words)
		s.RunGood()
		evals, stems := 0, 0
		kept := sh.regions[:0]
		for _, r := range sh.regions {
			evals += int(r.n)
			fs := sh.faults[r.lo : r.lo+r.n]
			s.trace(r.stem)
			var mask uint64
			for k, i := range fs {
				sh.reach[k] = s.act(site[i], fl[i]) & s.path[site[i]]
				mask |= sh.reach[k]
			}
			if mask != 0 {
				stems++
				seen := s.observe(r.stem, mask)
				r.n = 0
				for k, i := range fs {
					if d := sh.reach[k] & seen; d != 0 {
						sh.detected++
						sh.last = max(sh.last, b*64+bits.TrailingZeros64(d)+1)
					} else {
						fs[r.n] = i
						r.n++
					}
				}
			}
			if r.n > 0 {
				kept = append(kept, r)
			}
		}
		sh.regions = kept
		sh.blocks = b + 1
		mFaultEval.Add(int64(evals))
		mStemEval.Add(int64(stems))
		if live {
			// Per-block completion for the live gauge and the flight
			// recorder (the recorder throttles; off path is one atomic
			// store + load). The merge sets the gauge's final value.
			gBlocks.Set(int64(b + 1))
			obs.EmitProgress("faultsim.blocks", int64(b+1), int64(blocks))
		}
	}
	// Compact the survivors to the front: the merge reads sh.faults.
	n := 0
	for _, r := range sh.regions {
		n += copy(sh.faults[n:], sh.faults[r.lo:r.lo+r.n])
	}
	sh.faults = sh.faults[:n]
}

// DetectedBy reports whether pattern pi (one bool per input) detects fault f.
func DetectedBy(c *circuit.Circuit, f faults.Fault, pi []bool) bool {
	s := New(c)
	words := make([]uint64, len(pi))
	for j, v := range pi {
		if v {
			words[j] = 1
		}
	}
	s.SetInputs(words)
	s.RunGood()
	return s.DetectWord(f)&1 != 0
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/2+8)
	}
	return s[:n]
}
