package atpg

// Two oracles. The first is the PODEM engine this package shipped before
// the event-driven one: after every decision and backtrack it resets every
// node to X and re-simulates the fault's whole relevant cone, then rescans
// the cone for the D-frontier and the X-path. TestGenerateMatchesRef pins
// Generate to it call for call (Status, Test and Backtracks). Apart from
// the ref prefix on its type and function names, its code is unchanged;
// Value.bad and fromPair, which only the oracles read, live here with it.
//
// The second is the event-driven engine's gate evaluation before the
// table path: summary bits of which of 0, 1 and unknown occur among the
// inputs' components, resolved per gate kind. TestEvalMatchesRef pins eval
// to it on every gate kind, input tuple and fault placement. Its code is
// unchanged but for the ref prefix, a summary table indexed by the named
// values, and the stuck value, which the search now holds as a plane.

import (
	"compsynth/internal/circuit"
	"compsynth/internal/faults"
)

type refDecision struct {
	pi        int // input position
	value     bool
	triedBoth bool
}

type refEngine struct {
	c      *circuit.Circuit
	f      faults.Fault
	topo   []int // topologically ordered relevant nodes only
	val    []Value
	inCone []bool // nodes that can influence detection of this fault
	limit  int
	backs  int
	site   int  // node whose output carries the fault effect
	driver int  // node whose good value activates the fault
	want   bool // activation value (opposite of the stuck value)

	// Per-implication analysis, recomputed once after every implyStack.
	frontier []int  // D-frontier gates
	xpathOK  bool   // some D/D' can still reach a PO through X lines
	poMask   []bool // primary output drivers
	seenBuf  []bool // scratch for the X-path walk
}

// refRelevantCone computes the nodes that matter for fault f: the transitive
// fanin of every node in the fanout cone of the site (including the POs the
// effect can reach). Simulating and deciding only inside this cone cuts the
// per-decision cost sharply on large circuits.
func refRelevantCone(c *circuit.Circuit, site int) []bool {
	fwd := make([]bool, len(c.Nodes))
	var down func(int)
	down = func(id int) {
		if fwd[id] {
			return
		}
		fwd[id] = true
		for _, o := range c.Fanouts(id) {
			down(o)
		}
	}
	down(site)
	rel := make([]bool, len(c.Nodes))
	var up func(int)
	up = func(id int) {
		if rel[id] {
			return
		}
		rel[id] = true
		for _, f := range c.Nodes[id].Fanin {
			up(f)
		}
	}
	for id, in := range fwd {
		if in {
			up(id)
		}
	}
	return rel
}

func refGenerate(c *circuit.Circuit, f faults.Fault, opt Options) Result {
	limit := opt.BacktrackLimit
	if limit <= 0 {
		limit = 20000
	}
	e := &refEngine{
		c: c, f: f,
		val:   make([]Value, len(c.Nodes)),
		limit: limit,
		want:  !f.Stuck,
	}
	e.site = f.Node
	e.driver = f.Node
	if f.Pin >= 0 {
		e.driver = c.Nodes[f.Node].Fanin[f.Pin]
	}
	e.inCone = refRelevantCone(c, e.site)
	for _, id := range c.Topo() {
		if e.inCone[id] {
			e.topo = append(e.topo, id)
		}
	}
	e.poMask = make([]bool, len(c.Nodes))
	for _, o := range c.Outputs {
		e.poMask[o] = true
	}
	e.seenBuf = make([]bool, len(c.Nodes))

	var stack []refDecision
	for {
		e.implyStack(stack)
		e.analyze()
		if e.testFound() {
			test := make([]bool, len(c.Inputs))
			for _, d := range stack {
				test[d.pi] = d.value
			}
			return Result{Status: Testable, Test: test, Backtracks: e.backs}
		}
		advanced := false
		if e.feasible() {
			if obj, objVal, ok := e.objective(); ok {
				if pi, piVal, ok2 := e.backtrace(obj, objVal); ok2 {
					stack = append(stack, refDecision{pi: pi, value: piVal})
					advanced = true
				}
			}
		}
		if advanced {
			continue
		}
		// Backtrack.
		for {
			if len(stack) == 0 {
				return Result{Status: Redundant, Backtracks: e.backs}
			}
			top := &stack[len(stack)-1]
			if !top.triedBoth {
				top.triedBoth = true
				top.value = !top.value
				e.backs++
				if e.backs > e.limit {
					return Result{Status: Aborted, Backtracks: e.backs}
				}
				break
			}
			stack = stack[:len(stack)-1]
		}
	}
}

// analyze recomputes the D-frontier and the X-path flag for the current
// assignment. Both are consulted several times per decision; computing them
// once per implication dominates PODEM's constant factor.
func (e *refEngine) analyze() {
	e.frontier = e.frontier[:0]
	for _, id := range e.topo {
		nd := e.c.Nodes[id]
		if e.val[id] != X {
			continue
		}
		for _, f := range nd.Fanin {
			if e.val[f] == D || e.val[f] == Dbar {
				e.frontier = append(e.frontier, id)
				break
			}
		}
	}
	e.xpathOK = e.computeXPath()
}

// testFound reports whether a D/D' reached any primary output.
func (e *refEngine) testFound() bool {
	for _, o := range e.c.Outputs {
		if e.val[o] == D || e.val[o] == Dbar {
			return true
		}
	}
	return false
}

// feasible reports whether the current assignment can still be extended to
// a test: the fault must remain activatable and the effect propagatable.
func (e *refEngine) feasible() bool {
	g := e.val[e.driver].good()
	want := 0
	if e.want {
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
	if e.f.Pin >= 0 {
		switch e.val[e.site] {
		case X:
			return true
		case D, Dbar:
			// fall through to the propagation check
		default:
			return false // masked at the gate
		}
	}
	if e.testFound() {
		return true
	}
	return e.xpathOK
}

// computeXPath reports whether some fault effect (D/D') can still reach a
// primary output through X-valued lines — the classic X-path check, which
// prunes hopeless branches long before the D-frontier empties.
func (e *refEngine) computeXPath() bool {
	seen := e.seenBuf
	var touched []int
	defer func() {
		for _, id := range touched {
			seen[id] = false
		}
	}()
	var stack []int
	for _, id := range e.topo {
		if e.val[id] == D || e.val[id] == Dbar {
			stack = append(stack, id)
			if e.poMask[id] {
				return true
			}
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, consumer := range e.c.Fanouts(id) {
			if seen[consumer] || e.val[consumer] != X {
				continue
			}
			if e.poMask[consumer] {
				return true
			}
			seen[consumer] = true
			touched = append(touched, consumer)
			stack = append(stack, consumer)
		}
	}
	return false
}

// objective returns the next (node, value) goal: activate the fault first,
// then advance the D-frontier.
func (e *refEngine) objective() (int, bool, bool) {
	if e.val[e.driver].good() < 0 {
		return e.driver, e.want, true
	}
	// Activated. For a still-undecided branch fault, unblock the consuming
	// gate by setting an X side input to its non-controlling value.
	if e.f.Pin >= 0 && e.val[e.site] == X {
		nd := e.c.Nodes[e.site]
		ctl, has := nd.Type.ControllingValue()
		for pin, f := range nd.Fanin {
			if pin != e.f.Pin && e.val[f] == X {
				if has {
					return f, !ctl, true
				}
				return f, false, true // parity gate: either value decides
			}
		}
		return 0, false, false
	}
	if len(e.frontier) == 0 {
		return 0, false, false
	}
	nd := e.c.Nodes[e.frontier[0]]
	ctl, has := nd.Type.ControllingValue()
	for _, f := range nd.Fanin {
		if e.val[f] == X {
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
func (e *refEngine) backtrace(node int, want bool) (int, bool, bool) {
	for {
		nd := e.c.Nodes[node]
		switch nd.Type {
		case circuit.Input:
			if e.val[node] != X {
				return 0, false, false
			}
			for j, in := range e.c.Inputs {
				if in == node {
					return j, want, true
				}
			}
			return 0, false, false
		case circuit.Const0, circuit.Const1:
			return 0, false, false
		case circuit.Not:
			want = !want
			node = nd.Fanin[0]
		case circuit.Buf:
			node = nd.Fanin[0]
		default:
			if nd.Type.Inverting() {
				want = !want
			}
			picked := -1
			for _, f := range nd.Fanin {
				if e.val[f] == X {
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
			node = picked
		}
	}
}

// implyStack performs full 5-valued forward simulation for a decision set.
func (e *refEngine) implyStack(stack []refDecision) {
	for i := range e.val {
		e.val[i] = X
	}
	for _, d := range stack {
		in := e.c.Inputs[d.pi]
		if d.value {
			e.val[in] = One
		} else {
			e.val[in] = Zero
		}
	}
	for _, in := range e.c.Inputs {
		e.applyStemFault(in)
	}
	for _, id := range e.topo {
		nd := e.c.Nodes[id]
		if nd.Type == circuit.Input {
			continue
		}
		e.val[id] = e.evalGate(nd)
		e.applyStemFault(id)
	}
}

// applyStemFault overlays the stem fault effect on node id.
func (e *refEngine) applyStemFault(id int) {
	if e.f.Pin >= 0 || id != e.f.Node {
		return
	}
	b := 0
	if e.f.Stuck {
		b = 1
	}
	e.val[id] = fromPair(e.val[id].good(), b)
}

// evalGate computes the 5-valued output of a gate, accounting for a branch
// fault on one of its pins.
func (e *refEngine) evalGate(nd *circuit.Node) Value {
	switch nd.Type {
	case circuit.Const0:
		return Zero
	case circuit.Const1:
		return One
	}
	goodAcc, badAcc := -2, -2 // -2 = identity/unset
	for pin, f := range nd.Fanin {
		gv, bv := e.val[f].good(), e.val[f].bad()
		if e.f.Pin == pin && nd.ID == e.f.Node {
			bv = 0
			if e.f.Stuck {
				bv = 1
			}
		}
		goodAcc = combine(nd.Type, goodAcc, gv)
		badAcc = combine(nd.Type, badAcc, bv)
	}
	if nd.Type.Inverting() {
		goodAcc, badAcc = invVal(goodAcc), invVal(badAcc)
	}
	return fromPair(goodAcc, badAcc)
}

// fromPair builds the value with good component g and faulty component b
// (0, 1, or -1 for unknown).
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

// bad returns the faulty component.
func (v Value) bad() int {
	switch v {
	case Zero, D:
		return 0
	case One, Dbar:
		return 1
	}
	return -1
}

// combine folds one ternary input (0, 1, -1=unknown) into an accumulator.
func combine(t circuit.GateType, acc, v int) int {
	if acc == -2 {
		return v
	}
	switch t {
	case circuit.And, circuit.Nand, circuit.Buf, circuit.Not:
		if acc == 0 || v == 0 {
			return 0
		}
		if acc == 1 && v == 1 {
			return 1
		}
		return -1
	case circuit.Or, circuit.Nor:
		if acc == 1 || v == 1 {
			return 1
		}
		if acc == 0 && v == 0 {
			return 0
		}
		return -1
	default: // Xor, Xnor
		if acc < 0 || v < 0 {
			return -1
		}
		return acc ^ v
	}
}

func invVal(v int) int {
	if v < 0 {
		return v
	}
	return 1 - v
}

// Summary bits for refEval: which of 0, 1 and unknown occur among a gate's
// input components.
const (
	sawX = 1 << iota
	saw0
	saw1
)

// refSawOf packs each value's components as summary bits: the good one in
// the low nibble, the faulty one in the high nibble.
var refSawOf = [16]uint8{
	X:    sawX | sawX<<4,
	Zero: saw0 | saw0<<4,
	One:  saw1 | saw1<<4,
	D:    saw1 | saw0<<4,
	Dbar: saw0 | saw1<<4,
}

// refEval computes the 5-valued output of gate i from its fanins, with the
// fault injected: a branch fault forces the faulty component of its pin, a
// stem fault the faulty component of the site's output.
func (s *search) refEval(i int32) Value {
	stuck := 0
	if s.stuck == b1 {
		stuck = 1
	}
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
			c := refSawOf[s.val[f]]
			if pin == faultyPin {
				c = c&0x0f | refSawOf[fromPair(stuck, stuck)]&0xf0
			}
			saw |= c
			par ^= c
		}
		if saw == 0 {
			return X // no fanin: nothing decides the gate
		}
		g, b = refResolve(k, saw&0x0f, par&saw1), refResolve(k, saw>>4, par>>4&saw1)
	}
	if i == s.site && s.pin < 0 {
		b = stuck
	}
	return fromPair(g, b)
}

// refResolve is the ternary output (0, 1, or -1 for unknown) of a gate of
// kind k whose inputs' components include the values in saw; par is saw1
// when an odd number of them are 1.
func refResolve(k circuit.GateType, saw, par uint8) int {
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
