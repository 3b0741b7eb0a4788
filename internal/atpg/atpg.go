// Package atpg implements a PODEM test pattern generator for single
// stuck-at faults on the 5-valued algebra {0, 1, X, D, D'}. Its primary
// client is the redundancy-removal pass (the paper applies [15] after
// Procedure 2); it also powers the atpg command-line tool.
//
// The search is event-driven. Each call numbers the fault's relevant cone
// in c.Topo() order and works on flat arrays over that numbering. A
// decision assigns one primary input and re-evaluates only the lines that
// change, logging each change on an undo trail; a backtrack unwinds the
// trail to the decision's mark instead of re-simulating the cone. Every
// line is a function of the input assignment alone, so the values always
// equal a full re-simulation, and the objective, backtrace and D-frontier
// choices are those of a PODEM that re-simulates after every step.
package atpg

import (
	"slices"
	"sync"

	"compsynth/internal/circuit"
	"compsynth/internal/faults"
	"compsynth/internal/obs"
)

// PODEM metrics: totals per process plus the per-call backtrack
// distribution (hard faults show up in the p99).
var (
	mCalls      = obs.C("atpg.calls")
	mBacktracks = obs.C("atpg.backtracks")
	mRedundant  = obs.C("atpg.redundant_proofs")
	mAborted    = obs.C("atpg.aborts")
	hBacktracks = obs.H("atpg.backtracks_per_call")
)

// Value is a 5-valued signal: a (good, faulty) pair.
type Value int8

// The 5 values of the PODEM algebra.
const (
	X    Value = iota // unknown
	Zero              // 0/0
	One               // 1/1
	D                 // 1/0: good 1, faulty 0
	Dbar              // 0/1
)

func (v Value) String() string {
	switch v {
	case Zero:
		return "0"
	case One:
		return "1"
	case D:
		return "D"
	case Dbar:
		return "D'"
	}
	return "X"
}

// good returns the fault-free component (0, 1, or -1 for unknown).
func (v Value) good() int {
	switch v {
	case Zero, Dbar:
		return 0
	case One, D:
		return 1
	}
	return -1
}

// isD reports whether v carries the fault effect (D or D').
func (v Value) isD() bool { return v == D || v == Dbar }

func fromPair(g, b int) Value {
	switch {
	case g < 0 || b < 0:
		return X
	case g == 0 && b == 0:
		return Zero
	case g == 1 && b == 1:
		return One
	case g == 1 && b == 0:
		return D
	default:
		return Dbar
	}
}

// Status reports the outcome of test generation.
type Status int

// Outcomes of Generate.
const (
	Testable  Status = iota // a test was found
	Redundant               // proved untestable (search space exhausted)
	Aborted                 // backtrack limit hit
)

func (s Status) String() string {
	switch s {
	case Testable:
		return "testable"
	case Redundant:
		return "redundant"
	}
	return "aborted"
}

// Options bounds the search.
type Options struct {
	BacktrackLimit int // decisions undone before giving up (0 = default)

	// Tracer, when non-nil, records one span per Generate call (subject to
	// the tracer's span cap). Nil keeps the zero-overhead fast path.
	Tracer *obs.Tracer
}

// Result of a Generate call.
type Result struct {
	Status     Status
	Test       []bool // PI assignment when Status == Testable (X filled with 0)
	Backtracks int
}

// Generate runs PODEM for fault f on circuit c. When the search space is
// exhausted without finding a test, the fault is proved Redundant.
func Generate(c *circuit.Circuit, f faults.Fault, opt Options) Result {
	sp := opt.Tracer.StartSpan("atpg.generate")
	s := searchPool.Get().(*search)
	r := s.run(c, f, opt.BacktrackLimit)
	searchPool.Put(s)
	sp.SetStr("status", r.Status.String())
	sp.SetInt("backtracks", int64(r.Backtracks))
	sp.End()
	mCalls.Inc()
	mBacktracks.Add(int64(r.Backtracks))
	hBacktracks.Observe(float64(r.Backtracks))
	switch r.Status {
	case Redundant:
		mRedundant.Inc()
	case Aborted:
		mAborted.Inc()
	}
	return r
}

type decision struct {
	node      int32 // the decided input's local index
	value     bool
	triedBoth bool
	mark      int // trail length before this decision was implied
}

// change is one undo-trail entry: a line and the value it held before.
type change struct {
	node int32
	old  Value
}

// search is the pooled per-call state. Arrays over cone nodes are indexed
// by local index: the relevant cone's nodes numbered in c.Topo() order, so
// ascending local index is the topological order in which PODEM picks the
// first D-frontier gate.
type search struct {
	// The relevant cone, rebuilt by load on every call.
	kind  []circuit.GateType
	fiOff []int32 // fanins of i are fi[fiOff[i]:fiOff[i+1]], in pin order
	fi    []int32
	foOff []int32 // consumers of i inside the cone: fo[foOff[i]:foOff[i+1]]
	fo    []int32
	po    []bool
	piPos []int32 // position in c.Inputs, -1 for every other node

	// Indexed by node ID; local is -1 and inCone false except inside load.
	local  []int32
	inCone []bool
	cone   []int // node IDs of the cone in local order

	// Search state.
	val    []Value
	trail  []change
	heap   []int32 // lines to re-evaluate, a min-heap on local index
	queued []bool
	stack  []decision
	dLines []int32 // lines holding D or D', in the order they got it
	dPOs   int     // primary outputs among dLines
	seen   []bool  // X-path walk marks, all false between walks
	walk   []int32 // DFS stack of the cone walks and the X-path walk
	marked []int32 // lines the X-path walk marked seen

	limit, backs int
	site, driver int32 // local indices
	pin          int   // faulty pin of the site, -1 for a stem fault
	stuck        int   // the stuck value, 0 or 1
	want         bool  // activation value (opposite of the stuck value)
}

var searchPool = sync.Pool{New: func() any { return new(search) }}

func (s *search) run(c *circuit.Circuit, f faults.Fault, limit int) Result {
	if limit <= 0 {
		limit = 20000
	}
	s.limit, s.backs = limit, 0
	s.load(c, f)
	s.simulate()
	for {
		if s.dPOs > 0 {
			test := make([]bool, len(c.Inputs))
			for _, d := range s.stack {
				test[s.piPos[d.node]] = d.value
			}
			return Result{Status: Testable, Test: test, Backtracks: s.backs}
		}
		if s.feasible() {
			if obj, objVal, ok := s.objective(); ok {
				if in, inVal, ok2 := s.backtrace(obj, objVal); ok2 {
					s.stack = append(s.stack, decision{node: in, value: inVal, mark: len(s.trail)})
					s.assign(in, inVal)
					continue
				}
			}
		}
		// Backtrack.
		for {
			if len(s.stack) == 0 {
				return Result{Status: Redundant, Backtracks: s.backs}
			}
			top := &s.stack[len(s.stack)-1]
			s.undo(top.mark)
			if !top.triedBoth {
				top.triedBoth = true
				top.value = !top.value
				s.backs++
				if s.backs > s.limit {
					return Result{Status: Aborted, Backtracks: s.backs}
				}
				s.assign(top.node, top.value)
				break
			}
			s.stack = s.stack[:len(s.stack)-1]
		}
	}
}

// load numbers the nodes that matter for fault f — the transitive fanin of
// every node in the fanout cone of the site, which includes the POs the
// effect can reach — and builds the cone-local arrays. Deciding and
// simulating only inside this cone keeps every step's cost independent of
// the circuit's size.
func (s *search) load(c *circuit.Circuit, f faults.Fault) {
	c.RebuildFanouts()
	for len(s.local) < len(c.Nodes) {
		s.local = append(s.local, -1)
		s.inCone = append(s.inCone, false)
	}
	walk := append(s.walk[:0], int32(f.Node))
	s.inCone[f.Node] = true
	for i := 0; i < len(walk); i++ {
		for _, o := range c.Fanouts(int(walk[i])) {
			if !s.inCone[o] {
				s.inCone[o] = true
				walk = append(walk, int32(o))
			}
		}
	}
	for len(walk) > 0 {
		id := walk[len(walk)-1]
		walk = walk[:len(walk)-1]
		for _, g := range c.Nodes[id].Fanin {
			if !s.inCone[g] {
				s.inCone[g] = true
				walk = append(walk, int32(g))
			}
		}
	}
	s.walk = walk

	s.cone = s.cone[:0]
	for _, id := range c.Topo() {
		if s.inCone[id] {
			s.local[id] = int32(len(s.cone))
			s.cone = append(s.cone, id)
		}
	}
	n := len(s.cone)
	s.kind = s.kind[:0]
	s.fiOff, s.fi = append(s.fiOff[:0], 0), s.fi[:0]
	s.foOff, s.fo = append(s.foOff[:0], 0), s.fo[:0]
	for _, id := range s.cone {
		nd := c.Nodes[id]
		s.kind = append(s.kind, nd.Type)
		for _, g := range nd.Fanin {
			s.fi = append(s.fi, s.local[g])
		}
		s.fiOff = append(s.fiOff, int32(len(s.fi)))
		for _, o := range c.Fanouts(id) {
			if l := s.local[o]; l >= 0 {
				s.fo = append(s.fo, l)
			}
		}
		s.foOff = append(s.foOff, int32(len(s.fo)))
	}
	s.po = slices.Grow(s.po[:0], n)[:n]
	clear(s.po)
	for _, o := range c.Outputs {
		if l := s.local[o]; l >= 0 {
			s.po[l] = true
		}
	}
	s.piPos = slices.Grow(s.piPos[:0], n)[:n]
	for i := range s.piPos {
		s.piPos[i] = -1
	}
	for j, in := range c.Inputs {
		if l := s.local[in]; l >= 0 && s.piPos[l] < 0 {
			s.piPos[l] = int32(j)
		}
	}

	s.site, s.pin, s.stuck, s.want = s.local[f.Node], f.Pin, 0, !f.Stuck
	if f.Stuck {
		s.stuck = 1
	}
	s.driver = s.site
	if f.Pin >= 0 {
		s.driver = s.local[c.Nodes[f.Node].Fanin[f.Pin]]
	}
	for _, id := range s.cone {
		s.local[id] = -1
		s.inCone[id] = false
	}

	s.val = slices.Grow(s.val[:0], n)[:n]
	s.queued = slices.Grow(s.queued[:0], n)[:n]
	clear(s.queued)
	s.seen = slices.Grow(s.seen[:0], n)[:n]
	clear(s.seen)
	s.trail, s.heap, s.stack = s.trail[:0], s.heap[:0], s.stack[:0]
	s.dLines, s.dPOs = s.dLines[:0], 0
}

// simulate sets every line to its value with no input assigned: inputs are
// X, and constants (with the gates they decide) take their values.
func (s *search) simulate() {
	for i, k := range s.kind {
		v := X
		if k != circuit.Input {
			v = s.eval(int32(i))
		}
		s.val[i] = v
		s.noteD(int32(i), v)
	}
}

// assign implies input line i = value: the line takes its value (overlaid
// with a stem fault on it) and the change propagates event-driven.
func (s *search) assign(i int32, value bool) {
	g := 0
	if value {
		g = 1
	}
	b := g
	if i == s.site && s.pin < 0 {
		b = s.stuck
	}
	s.set(i, fromPair(g, b))
	for len(s.heap) > 0 {
		j := s.pop()
		if v := s.eval(j); v != s.val[j] {
			s.set(j, v)
		}
	}
}

// set changes line i to v, logging the old value on the trail, and queues
// i's undecided consumers. Values only ever go from X to a final value as
// inputs are assigned (5-valued simulation is monotone), so a consumer that
// already has a value keeps it, set never moves a line off D or D', and
// undo takes a line off dLines only from the end.
func (s *search) set(i int32, v Value) {
	s.trail = append(s.trail, change{node: i, old: s.val[i]})
	s.val[i] = v
	s.noteD(i, v)
	for _, o := range s.fanout(i) {
		if s.val[o] == X {
			s.push(o)
		}
	}
}

func (s *search) noteD(i int32, v Value) {
	if v.isD() {
		s.dLines = append(s.dLines, i)
		if s.po[i] {
			s.dPOs++
		}
	}
}

// undo restores every line changed since the trail had length mark.
func (s *search) undo(mark int) {
	for t := len(s.trail) - 1; t >= mark; t-- {
		ch := s.trail[t]
		if s.val[ch.node].isD() {
			s.dLines = s.dLines[:len(s.dLines)-1]
			if s.po[ch.node] {
				s.dPOs--
			}
		}
		s.val[ch.node] = ch.old
	}
	s.trail = s.trail[:mark]
}

func (s *search) push(i int32) {
	if s.queued[i] {
		return
	}
	s.queued[i] = true
	h := append(s.heap, i)
	for j := len(h) - 1; j > 0; {
		p := (j - 1) / 2
		if h[p] <= h[j] {
			break
		}
		h[p], h[j] = h[j], h[p]
		j = p
	}
	s.heap = h
}

// pop removes and returns the lowest queued local index. Consumers follow
// their fanins in local order, so a line is evaluated once, after every
// fanin that changed has settled.
func (s *search) pop() int32 {
	h := s.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for j := 0; ; {
		m := 2*j + 1
		if m >= len(h) {
			break
		}
		if r := m + 1; r < len(h) && h[r] < h[m] {
			m = r
		}
		if h[j] <= h[m] {
			break
		}
		h[j], h[m] = h[m], h[j]
		j = m
	}
	s.heap = h
	s.queued[top] = false
	return top
}

// Summary bits for eval: which of 0, 1 and unknown occur among a gate's
// input components.
const (
	sawX = 1 << iota
	saw0
	saw1
)

// sawOf packs each value's components as summary bits: the good one in the
// low nibble, the faulty one in the high nibble.
var sawOf = [8]uint8{
	X:    sawX | sawX<<4,
	Zero: saw0 | saw0<<4,
	One:  saw1 | saw1<<4,
	D:    saw1 | saw0<<4,
	Dbar: saw0 | saw1<<4,
}

// eval computes the 5-valued output of gate i from its fanins, with the
// fault injected: a branch fault forces the faulty component of its pin, a
// stem fault the faulty component of the site's output.
func (s *search) eval(i int32) Value {
	var g, b int
	switch k := s.kind[i]; k {
	case circuit.Const0:
		g, b = 0, 0
	case circuit.Const1:
		g, b = 1, 1
	default:
		faultyPin := -1
		if i == s.site {
			faultyPin = s.pin
		}
		// saw collects the summary bits of every input; par is their xor,
		// whose saw1 bits are the parity of the inputs' components.
		var saw, par uint8
		for pin, f := range s.fanin(i) {
			c := sawOf[s.val[f]&7]
			if pin == faultyPin {
				c = c&0x0f | sawOf[Zero+Value(s.stuck)]&0xf0
			}
			saw |= c
			par ^= c
		}
		if saw == 0 {
			return X // no fanin: nothing decides the gate
		}
		g, b = resolve(k, saw&0x0f, par&saw1), resolve(k, saw>>4, par>>4&saw1)
	}
	if i == s.site && s.pin < 0 {
		b = s.stuck
	}
	return fromPair(g, b)
}

// resolve is the ternary output (0, 1, or -1 for unknown) of a gate of kind
// k whose inputs' components include the values in saw; par is saw1 when
// an odd number of them are 1.
func resolve(k circuit.GateType, saw, par uint8) int {
	v := -1
	switch k {
	case circuit.And, circuit.Nand, circuit.Buf, circuit.Not:
		if saw&saw0 != 0 {
			v = 0
		} else if saw&sawX == 0 {
			v = 1
		}
	case circuit.Or, circuit.Nor:
		if saw&saw1 != 0 {
			v = 1
		} else if saw&sawX == 0 {
			v = 0
		}
	default: // Xor, Xnor
		if saw&sawX == 0 {
			v = int(par / saw1)
		}
	}
	if v >= 0 && k.Inverting() {
		v = 1 - v
	}
	return v
}

// feasible reports whether the current assignment can still be extended to
// a test: the fault must remain activatable and the effect propagatable.
func (s *search) feasible() bool {
	g := s.val[s.driver].good()
	want := 0
	if s.want {
		want = 1
	}
	if g >= 0 && g != want {
		return false // activation impossible
	}
	if g < 0 {
		return true // activation still open
	}
	// Activated at the driver; for branch faults the effect must survive
	// (or still be undecided) at the consuming gate.
	if s.pin >= 0 {
		switch s.val[s.site] {
		case X:
			return true
		case D, Dbar:
			// fall through to the propagation check
		default:
			return false // masked at the gate
		}
	}
	return s.xPath()
}

// xPath reports whether some fault effect (D/D') can still reach a primary
// output through X-valued lines — the classic X-path check, which prunes
// hopeless branches long before the D-frontier empties.
func (s *search) xPath() bool {
	if s.dPOs > 0 {
		return true
	}
	walk := append(s.walk[:0], s.dLines...)
	found := false
	for len(walk) > 0 && !found {
		i := walk[len(walk)-1]
		walk = walk[:len(walk)-1]
		for _, o := range s.fanout(i) {
			if s.seen[o] || s.val[o] != X {
				continue
			}
			if s.po[o] {
				found = true
				break
			}
			s.seen[o] = true
			s.marked = append(s.marked, o)
			walk = append(walk, o)
		}
	}
	for _, o := range s.marked {
		s.seen[o] = false
	}
	s.walk, s.marked = walk[:0], s.marked[:0]
	return found
}

// frontier returns the D-frontier gate PODEM advances: the first X-valued
// gate in topological order with a D or D' on an input, or -1. Every such
// gate consumes a line in dLines.
func (s *search) frontier() int32 {
	first := int32(-1)
	for _, i := range s.dLines {
		for _, o := range s.fanout(i) {
			if s.val[o] == X && (first < 0 || o < first) {
				first = o
			}
		}
	}
	return first
}

// objective returns the next (line, value) goal: activate the fault first,
// then advance the D-frontier.
func (s *search) objective() (int32, bool, bool) {
	if s.val[s.driver].good() < 0 {
		return s.driver, s.want, true
	}
	// Activated. For a still-undecided branch fault, unblock the consuming
	// gate by setting an X side input to its non-controlling value.
	if s.pin >= 0 && s.val[s.site] == X {
		ctl, has := s.kind[s.site].ControllingValue()
		for pin, f := range s.fanin(s.site) {
			if pin != s.pin && s.val[f] == X {
				if has {
					return f, !ctl, true
				}
				return f, false, true // parity gate: either value decides
			}
		}
		return 0, false, false
	}
	gate := s.frontier()
	if gate < 0 {
		return 0, false, false
	}
	ctl, has := s.kind[gate].ControllingValue()
	for _, f := range s.fanin(gate) {
		if s.val[f] == X {
			if has {
				return f, !ctl, true
			}
			return f, false, true
		}
	}
	return 0, false, false
}

// backtrace maps an objective to an unassigned primary input and a value,
// walking backward through X-valued lines.
func (s *search) backtrace(i int32, want bool) (int32, bool, bool) {
	for {
		switch k := s.kind[i]; k {
		case circuit.Input:
			if s.val[i] != X || s.piPos[i] < 0 {
				return 0, false, false
			}
			return i, want, true
		case circuit.Const0, circuit.Const1:
			return 0, false, false
		case circuit.Not:
			want = !want
			i = s.fi[s.fiOff[i]]
		case circuit.Buf:
			i = s.fi[s.fiOff[i]]
		default:
			if k.Inverting() {
				want = !want
			}
			picked := int32(-1)
			for _, f := range s.fanin(i) {
				if s.val[f] == X {
					picked = f
					break
				}
			}
			if picked < 0 {
				return 0, false, false
			}
			// For AND (after deinversion) wanting 1, every input must be 1;
			// wanting 0, a single 0 suffices — in both cases the picked X
			// input is driven toward `want`. Same for OR; parity gates take
			// the value as-is.
			i = picked
		}
	}
}

func (s *search) fanin(i int32) []int32  { return s.fi[s.fiOff[i]:s.fiOff[i+1]] }
func (s *search) fanout(i int32) []int32 { return s.fo[s.foOff[i]:s.foOff[i+1]] }
