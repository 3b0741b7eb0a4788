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
//
// The implication step is table-driven. A Value is four bit planes, one
// per (component, value) pair, so a gate's inputs fold into two words: the
// AND and the OR of their planes. Each AND, NAND, OR, NOR, BUF and NOT line
// carries an op code, and one lookup in a 1 KB table turns the two folded
// words into its output. Parity gates, constants and the fault site take
// a slower path that applies the fault. Lines to re-evaluate wait in a
// bitset over local indices, drained from the lowest set bit up: a line's
// consumers always lie above it, so the scan never moves back.
package atpg

import (
	"math/bits"
	"slices"
	"sync"

	"compsynth/internal/circuit"
	"compsynth/internal/faults"
	"compsynth/internal/metric"
	"compsynth/internal/obs"
)

// PODEM metrics: totals per process plus the per-call backtrack
// distribution (hard faults show up in the p99).
var (
	mCalls      = metric.C("atpg.calls")
	mBacktracks = metric.C("atpg.backtracks")
	mRedundant  = metric.C("atpg.redundant_proofs")
	mAborted    = metric.C("atpg.aborts")
	hBacktracks = metric.H("atpg.backtracks_per_call")
)

// Value is a 5-valued signal: a (good, faulty) pair, held as bit planes. A
// plane says that one component is known to hold one value; a component
// with neither of its planes set is unknown.
type Value int8

// The planes of a Value.
const (
	g0 Value = 1 << iota // the good component is 0
	g1                   // the good component is 1
	b0                   // the faulty component is 0
	b1                   // the faulty component is 1
)

// The 5 values of the PODEM algebra.
const (
	X    Value = 0       // unknown
	Zero Value = g0 | b0 // 0/0
	One  Value = g1 | b1 // 1/1
	D    Value = g1 | b0 // 1/0: good 1, faulty 0
	Dbar Value = g0 | b1 // 0/1
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
	switch v & (g0 | g1) {
	case g0:
		return 0
	case g1:
		return 1
	}
	return -1
}

// isD reports whether v carries the fault effect (D or D').
func (v Value) isD() bool { return v == D || v == Dbar }

// op selects how eval computes a line.
type op uint8

// Op codes: the four table rows, then the lines the table cannot compute.
const (
	opAnd  op = iota // AND, BUF
	opNand           // NAND, NOT
	opOr             // OR
	opNor            // NOR
	opSlow           // parity gates, constants and inputs, the fault site
)

// opOf returns the op code of a gate kind, opSlow unless a table row
// computes it. Only inputs and constants have no fanin (circuit.AddGate
// and the .bench parser reject a gate without one), and they take opSlow.
func opOf(k circuit.GateType) op {
	switch k {
	case circuit.And, circuit.Buf:
		return opAnd
	case circuit.Nand, circuit.Not:
		return opNand
	case circuit.Or:
		return opOr
	case circuit.Nor:
		return opNor
	}
	return opSlow
}

// gateTable maps a table op and the planes of its inputs, folded as
// all | some<<4, to the line's value: all is the AND of the inputs' planes
// (a component is 1, or 0, in every input) and some their OR (in at least
// one input).
var gateTable = func() (t [opSlow][256]Value) {
	for o := range opSlow {
		for i := range 256 {
			t[o][i] = collapse(rule(o, Value(i&0xf), Value(i>>4)))
		}
	}
	return t
}()

// rule applies a table op to folded planes, one component at a time. Under
// the AND rule (opAnd, opNand) a component is 1 when every input's is 1 and
// 0 when any input's is 0; the OR rule is the dual. opNand and opNor then
// invert the output.
func rule(o op, all, some Value) Value {
	ones, zeros := all, some
	if o == opOr || o == opNor {
		ones, zeros = some, all
	}
	v := ones&(g1|b1) | zeros&(g0|b0)
	if o == opNand || o == opNor {
		v = invert(v)
	}
	return v
}

// invert complements both components: it swaps each 0-plane with its
// 1-plane.
func invert(v Value) Value { return (v&(g0|b0))<<1 | (v&(g1|b1))>>1 }

// collapse turns a pair with an unknown component into X. The planes can
// hold more than the 5-valued algebra, such as "good 1, faulty unknown";
// keeping that would make a 9-valued algebra, which prunes differently and
// so changes the search. Collapsing keeps every value, and with it every
// decision, those of the 5-valued PODEM.
func collapse(v Value) Value {
	if v&(g0|g1) == 0 || v&(b0|b1) == 0 {
		return X
	}
	return v
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
	op    []op    // how eval computes each line
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
	val     []Value
	trail   []change
	queue   []uint64 // lines to re-evaluate, one bit per local index
	cursor  int      // queue word that pop scans from; no line below it is queued
	pending int      // lines queued
	stack   []decision
	dLines  []int32 // lines holding D or D', in the order they got it
	dPOs    int     // primary outputs among dLines
	seen    []bool  // X-path walk marks, all false between walks
	walk    []int32 // DFS stack of the cone walks and the X-path walk
	marked  []int32 // lines the X-path walk marked seen

	limit, backs int
	site, driver int32 // local indices
	pin          int   // faulty pin of the site, -1 for a stem fault
	stuck        Value // the stuck value as a faulty-component plane, b0 or b1
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
	s.kind, s.op = s.kind[:0], s.op[:0]
	s.fiOff, s.fi = append(s.fiOff[:0], 0), s.fi[:0]
	s.foOff, s.fo = append(s.foOff[:0], 0), s.fo[:0]
	for _, id := range s.cone {
		nd := c.Nodes[id]
		s.kind = append(s.kind, nd.Type)
		s.op = append(s.op, opOf(nd.Type))
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

	s.site, s.pin, s.stuck, s.want = s.local[f.Node], f.Pin, b0, !f.Stuck
	if f.Stuck {
		s.stuck = b1
	}
	s.op[s.site] = opSlow // the fault overrides the gate's own rule
	s.driver = s.site
	if f.Pin >= 0 {
		s.driver = s.local[c.Nodes[f.Node].Fanin[f.Pin]]
	}
	for _, id := range s.cone {
		s.local[id] = -1
		s.inCone[id] = false
	}

	s.val = slices.Grow(s.val[:0], n)[:n]
	words := (n + 63) / 64
	s.queue = slices.Grow(s.queue[:0], words)[:words]
	clear(s.queue)
	s.pending = 0
	s.seen = slices.Grow(s.seen[:0], n)[:n]
	clear(s.seen)
	s.trail, s.stack = s.trail[:0], s.stack[:0]
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
// with a stem fault on it) and the change propagates event-driven. The
// lines queued while it drains are consumers of lines already evaluated,
// so each lies above the line pop last returned.
func (s *search) assign(i int32, value bool) {
	v := Zero
	if value {
		v = One
	}
	if i == s.site && s.pin < 0 {
		v = s.faulty(v)
	}
	s.cursor = int(i) >> 6
	s.set(i, v)
	for s.pending > 0 {
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
	w, bit := &s.queue[i>>6], uint64(1)<<(i&63)
	if *w&bit == 0 {
		*w |= bit
		s.pending++
	}
}

// pop removes and returns the lowest queued local index. Consumers follow
// their fanins in local order, so a line is evaluated once, after every
// fanin that changed has settled; any topological order gives the same
// values, and this one is the order the D-frontier scan assumes.
func (s *search) pop() int32 {
	for s.queue[s.cursor] == 0 {
		s.cursor++
	}
	w := s.queue[s.cursor]
	s.queue[s.cursor] = w & (w - 1)
	s.pending--
	return int32(s.cursor<<6 | bits.TrailingZeros64(w))
}

// eval computes the 5-valued output of line i from its fanins: the table
// path folds their planes and looks the result up.
func (s *search) eval(i int32) Value {
	o := s.op[i]
	if o == opSlow {
		return s.evalSlow(i)
	}
	all, some := Value(0xf), X
	for _, f := range s.fanin(i) {
		v := s.val[f]
		all &= v
		some |= v
	}
	return gateTable[o][uint8(all)|uint8(some)<<4]
}

// evalSlow computes the lines the table does not: constants, inputs,
// parity gates and the fault site. A branch fault forces the faulty
// component of its pin, and a stem fault the faulty component of the
// site's output. A parity gate's component is known only when every
// input's is, and is then their parity.
func (s *search) evalSlow(i int32) Value {
	var v Value
	switch k := s.kind[i]; {
	case k == circuit.Const0:
		v = Zero
	case k == circuit.Const1:
		v = One
	case s.fiOff[i] == s.fiOff[i+1]:
		return X // no fanin: nothing decides the gate
	default:
		faultyPin := -1
		if i == s.site {
			faultyPin = s.pin
		}
		// known gets a component's 0-plane while every input's component
		// is known; odd gets its 1-plane while an odd number are 1.
		all, some, known, odd := Value(0xf), X, g0|b0, X
		for pin, f := range s.fanin(i) {
			v := s.val[f]
			if pin == faultyPin {
				v = s.faulty(v)
			}
			all &= v
			some |= v
			known &= v | v>>1
			odd ^= v & (g1 | b1)
		}
		if o := opOf(k); o != opSlow {
			v = rule(o, all, some)
		} else {
			v = odd | (odd^(g1|b1))>>1 // each component's parity as a plane
			v &= known | known<<1
			if k.Inverting() {
				v = invert(v)
			}
		}
	}
	if i == s.site && s.pin < 0 {
		v = s.faulty(v)
	}
	return collapse(v)
}

// faulty returns v with its faulty component stuck at the fault's value.
func (s *search) faulty(v Value) Value { return v&(g0|g1) | s.stuck }

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
