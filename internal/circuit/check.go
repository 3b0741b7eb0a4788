package circuit

import (
	"fmt"
	"regexp"
	"slices"
	"sort"
)

// Semantic static analysis of the circuit IR. Validate (circuit.go) is the
// cheap constructor-level sanity check; Check is the full invariant audit
// run behind the -check flag of the commands and after every resynthesis
// pass in tests. Beyond Validate it proves acyclicity with an explicit
// witness, verifies per-gate-type fanin arity, cross-checks the derived
// state (name index, fanout lists, PO-use and live counts, topological
// order, frozen view) against a fresh recomputation, and rejects dangling
// or unreachable nodes. CheckComparisonUnits additionally audits the
// paper's headline structural guarantee on resynthesized circuits: every
// comparison unit has at most two paths from any of its inputs to its
// output (Section 2 of Pomeranz & Reddy, DAC 1995).

// CheckOptions adjusts Check's strictness.
type CheckOptions struct {
	// AllowUnreachable permits live gates from which no primary output is
	// reachable. Hand-written or freshly parsed netlists may carry unused
	// logic legitimately; optimizer outputs must not (SweepDead runs before
	// every pass boundary), so the strict default treats them as errors.
	AllowUnreachable bool
}

// Check audits every structural invariant of the circuit IR and returns the
// first violation found. It never mutates c, so it is safe to call between
// resynthesis passes without perturbing derived state or results.
func Check(c *Circuit) error { return CheckWith(c, CheckOptions{}) }

// CheckWith is Check with options.
func CheckWith(c *Circuit, opt CheckOptions) error {
	if c == nil {
		return fmt.Errorf("circuit: nil circuit")
	}
	// Node identity, names and the name index.
	seen := map[string]int{}
	for i, nd := range c.Nodes {
		if nd == nil {
			continue
		}
		if nd.ID != i {
			return fmt.Errorf("node at index %d has ID %d", i, nd.ID)
		}
		if nd.Type == dead {
			continue
		}
		if nd.Name == "" {
			return fmt.Errorf("node %d has an empty name", i)
		}
		if prev, dup := seen[nd.Name]; dup {
			return fmt.Errorf("duplicate name %q on nodes %d and %d", nd.Name, prev, i)
		}
		seen[nd.Name] = i
		if c.byName != nil {
			if got, ok := c.byName[nd.Name]; !ok || got != i {
				return fmt.Errorf("name index stale for %q: maps to %d, node is %d", nd.Name, got, i)
			}
		}
	}

	// Arity and dangling fanins.
	for _, nd := range c.Nodes {
		if nd == nil || nd.Type == dead {
			continue
		}
		switch nd.Type {
		case Input, Const0, Const1:
			if len(nd.Fanin) != 0 {
				return fmt.Errorf("node %s: %v must have no fanin, has %d", nd.Name, nd.Type, len(nd.Fanin))
			}
		case Buf, Not:
			if len(nd.Fanin) != 1 {
				return fmt.Errorf("node %s: %v must have exactly 1 fanin, has %d", nd.Name, nd.Type, len(nd.Fanin))
			}
		case And, Or, Nand, Nor, Xor, Xnor:
			if len(nd.Fanin) < 1 {
				return fmt.Errorf("node %s: %v must have fanin", nd.Name, nd.Type)
			}
		default:
			return fmt.Errorf("node %s: unknown gate type %v", nd.Name, nd.Type)
		}
		for pin, f := range nd.Fanin {
			if f < 0 || f >= len(c.Nodes) || c.Nodes[f] == nil {
				return fmt.Errorf("node %s: fanin pin %d dangles (node %d does not exist)", nd.Name, pin, f)
			}
			if c.Nodes[f].Type == dead {
				return fmt.Errorf("node %s: fanin pin %d dangles (node %d is dead)", nd.Name, pin, f)
			}
		}
	}

	// PI/PO designation lists.
	inputSeen := map[int]bool{}
	for _, in := range c.Inputs {
		if !c.Alive(in) || c.Nodes[in].Type != Input {
			return fmt.Errorf("input list entry %d is not a live primary input", in)
		}
		if inputSeen[in] {
			return fmt.Errorf("input %s listed twice", c.Nodes[in].Name)
		}
		inputSeen[in] = true
	}
	for _, nd := range c.Nodes {
		if nd != nil && nd.Type == Input && !inputSeen[nd.ID] {
			return fmt.Errorf("input node %s missing from the input list", nd.Name)
		}
	}
	for _, o := range c.Outputs {
		if !c.Alive(o) {
			return fmt.Errorf("output designation %d is not a live node", o)
		}
	}

	// Acyclicity, with a witness cycle on failure.
	if cyc := findCycle(c); cyc != nil {
		names := make([]string, len(cyc))
		for i, id := range cyc {
			names[i] = c.Nodes[id].Name
		}
		return fmt.Errorf("cycle: %v", names)
	}

	// Derived state must agree with a fresh recomputation: a mutator that
	// forgot to maintain or invalidate it shows up here, not as silently
	// wrong results. The topo audit reads the live count, so it goes second.
	if err := checkUses(c); err != nil {
		return err
	}
	if c.topoCache != nil {
		if err := checkTopoCache(c); err != nil {
			return err
		}
	}
	if err := checkCSR(c); err != nil {
		return err
	}

	// Unreachable logic: every live non-input node must reach some PO.
	if !opt.AllowUnreachable {
		needed := make([]bool, len(c.Nodes))
		var mark func(int)
		mark = func(id int) {
			if needed[id] {
				return
			}
			needed[id] = true
			for _, f := range c.Nodes[id].Fanin {
				mark(f)
			}
		}
		for _, o := range c.Outputs {
			mark(o)
		}
		for _, nd := range c.Nodes {
			if nd == nil || nd.Type == dead || nd.Type == Input {
				continue
			}
			if !needed[nd.ID] {
				return fmt.Errorf("node %s is unreachable from every primary output", nd.Name)
			}
		}
	}
	return nil
}

// checkCSR audits the frozen CSR view (csr_stale). A view from a generation
// before the current one is legitimate — mutation after Freeze is exactly
// what the generation stamp exists to record — but a view claiming the
// current generation must match a from-scratch rebuild array for array, and
// a view stamped beyond the current generation cannot arise from any legal
// edit sequence. Only called on circuits already proven acyclic, since the
// reference rebuild levelizes. The reference is built by the same cache-free
// code Freeze uses, into fresh storage, so the audit catches a view whose
// retained arrays drifted from the netlist.
func checkCSR(c *Circuit) error {
	v := c.fz.view
	if v == nil {
		return nil
	}
	if v.gen > c.gen {
		return fmt.Errorf("csr_stale: frozen view at generation %d is ahead of the circuit at %d", v.gen, c.gen)
	}
	if v.gen < c.gen {
		return nil // aged out; the next Freeze refreshes it
	}
	ref := &CSR{}
	lv := make([]int32, len(c.Nodes))
	csrLevels(c, lv)
	repackCSR(ref, c, lv)
	if err := csrEqual(v, ref); err != nil {
		return fmt.Errorf("csr_stale: frozen view diverges from the netlist: %v", err)
	}
	return nil
}

// findCycle runs a three-color DFS over the live nodes and returns a node
// sequence forming a cycle, or nil.
func findCycle(c *Circuit) []int {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int8, len(c.Nodes))
	var stack []int
	var cyc []int
	var visit func(id int) bool
	visit = func(id int) bool {
		color[id] = gray
		stack = append(stack, id)
		for _, f := range c.Nodes[id].Fanin {
			switch color[f] {
			case gray:
				// Unwind the stack back to f for the witness.
				for i := len(stack) - 1; i >= 0; i-- {
					cyc = append([]int{stack[i]}, cyc...)
					if stack[i] == f {
						break
					}
				}
				return true
			case white:
				if visit(f) {
					return true
				}
			}
		}
		color[id] = black
		stack = stack[:len(stack)-1]
		return false
	}
	for _, nd := range c.Nodes {
		if nd == nil || nd.Type == dead || color[nd.ID] != white {
			continue
		}
		if visit(nd.ID) {
			return cyc
		}
	}
	return nil
}

// checkTopoCache verifies the cached topological order covers exactly the
// live nodes with every fanin before its consumer.
func checkTopoCache(c *Circuit) error {
	pos := make(map[int]int, len(c.topoCache))
	for i, id := range c.topoCache {
		if !c.Alive(id) {
			return fmt.Errorf("stale topo cache: entry %d is not a live node", id)
		}
		if _, dup := pos[id]; dup {
			return fmt.Errorf("stale topo cache: node %d listed twice", id)
		}
		pos[id] = i
	}
	if len(c.topoCache) != c.NumLive() {
		return fmt.Errorf("stale topo cache: %d entries for %d live nodes", len(c.topoCache), c.NumLive())
	}
	for _, id := range c.topoCache {
		for _, f := range c.Nodes[id].Fanin {
			if pos[f] >= pos[id] {
				return fmt.Errorf("stale topo cache: %s not before consumer %s", c.Nodes[f].Name, c.Nodes[id].Name)
			}
		}
	}
	return nil
}

// checkUses verifies the maintained fanout lists, primary-output use counts
// and live count against a recount from the fanin and output lists: each
// fanout list must be exactly the consumer IDs in ascending order, one per
// pin, as the order-sensitive readers (Topo, Freeze) expect.
func checkUses(c *Circuit) error {
	want := make([][]int, len(c.Nodes))
	po := make([]int, len(c.Nodes))
	live := 0
	for _, nd := range c.Nodes {
		if nd == nil || nd.Type == dead {
			continue
		}
		live++
		for _, f := range nd.Fanin {
			want[f] = append(want[f], nd.ID)
		}
	}
	for _, o := range c.Outputs {
		po[o]++
	}
	if live != c.live {
		return fmt.Errorf("stale live count: %d kept, %d live nodes", c.live, live)
	}
	for _, nd := range c.Nodes {
		if nd == nil {
			continue
		}
		if !slices.Equal(nd.fanout, want[nd.ID]) {
			return fmt.Errorf("stale fanout list at %s: kept %v, per fanin lists %v", nd.Name, nd.fanout, want[nd.ID])
		}
		if nd.poUses != po[nd.ID] {
			return fmt.Errorf("stale primary-output use count at %s: kept %d, per output list %d", nd.Name, nd.poUses, po[nd.ID])
		}
	}
	return nil
}

// unitPrefixRe matches the name prefix the resynthesis procedures stamp on
// comparison-unit gates: "cu<outID>_", with an extra "u<i>_" component for
// the sub-units of a multi-unit (Section 6) realization. The longest match
// is one unit's group key, so each sub-unit is audited on its own and the
// OR/inverter stitching of a multi-unit realization forms a separate
// (trivially bounded) group.
var unitPrefixRe = regexp.MustCompile(`^cu\d+_(?:u\d+_)?`)

// CheckComparisonUnits verifies the paper's structural testability property
// on every comparison unit the resynthesis procedures have built into c:
// within one unit's gate cone there are at most two paths from any unit
// input to any unit output (Lemma "at most two paths" of Section 2 — the
// basis for full robust path-delay-fault testability). Units are recognized
// by the cu<id>_ name prefix stamped by the optimizer; circuits without such
// nodes pass vacuously.
func CheckComparisonUnits(c *Circuit) error {
	keys, groups := unitGroups(c)
	for _, k := range keys {
		if err := checkUnitGroup(c, k, groups[k]); err != nil {
			return err
		}
	}
	return nil
}

// ComparisonUnitStats summarizes the comparison-unit path audit as data
// instead of a pass/fail verdict: the number of unit groups found and the
// maximum in-group path count from any external input to any group output.
// A certificate records (units, maxPaths) as the proof summary; maxPaths <= 2
// iff CheckComparisonUnits accepts the circuit.
func ComparisonUnitStats(c *Circuit) (units int, maxPaths uint64) {
	keys, groups := unitGroups(c)
	for _, k := range keys {
		if m, _, _ := groupMaxPaths(c, groups[k]); m > maxPaths {
			maxPaths = m
		}
	}
	return len(keys), maxPaths
}

// unitGroups collects the live nodes stamped with a comparison-unit name
// prefix, grouped by that prefix, with the keys in sorted order.
func unitGroups(c *Circuit) ([]string, map[string][]int) {
	groups := map[string][]int{}
	for _, nd := range c.Nodes {
		if nd == nil || nd.Type == dead {
			continue
		}
		if m := unitPrefixRe.FindString(nd.Name); m != "" {
			groups[m] = append(groups[m], nd.ID)
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, groups
}

// checkUnitGroup bounds the in-group path count from every external input of
// the group to every sink of the group.
func checkUnitGroup(c *Circuit, key string, members []int) error {
	max, from, to := groupMaxPaths(c, members)
	if max > 2 {
		return fmt.Errorf("comparison unit %s: %d paths from input %s to output %s (bound is 2)",
			key, max, c.Nodes[from].Name, c.Nodes[to].Name)
	}
	return nil
}

// groupMaxPaths computes the maximum in-group path count over every
// (external input, sink) pair of one unit group, returning the first pair
// attaining it (in sorted scan order).
func groupMaxPaths(c *Circuit, members []int) (max uint64, from, to int) {
	in := map[int]bool{}
	for _, id := range members {
		in[id] = true
	}
	// External inputs: nodes outside the group feeding a member pin.
	extSet := map[int]bool{}
	for _, id := range members {
		for _, f := range c.Nodes[id].Fanin {
			if !in[f] {
				extSet[f] = true
			}
		}
	}
	ext := make([]int, 0, len(extSet))
	for id := range extSet {
		ext = append(ext, id)
	}
	sort.Ints(ext)
	// Sinks: members no member consumes (computed from fanin lists, so the
	// check does not trust the fanout lists it audits elsewhere).
	feedsMember := map[int]bool{}
	for _, id := range members {
		for _, f := range c.Nodes[id].Fanin {
			if in[f] {
				feedsMember[f] = true
			}
		}
	}
	var sinks []int
	for _, id := range members {
		if !feedsMember[id] {
			sinks = append(sinks, id)
		}
	}
	sort.Ints(sinks)
	// Member topological order (fanins first), restricted to the group.
	order := make([]int, 0, len(members))
	state := map[int]int8{}
	var visit func(id int)
	visit = func(id int) {
		if state[id] != 0 {
			return
		}
		state[id] = 1
		for _, f := range c.Nodes[id].Fanin {
			if in[f] {
				visit(f)
			}
		}
		order = append(order, id)
	}
	sorted := append([]int(nil), members...)
	sort.Ints(sorted)
	for _, id := range sorted {
		visit(id)
	}
	// One DP per external input: paths from x to each member, counting only
	// in-group edges plus the crossing pins from x.
	np := map[int]uint64{}
	for _, x := range ext {
		for _, id := range order {
			var sum uint64
			for _, f := range c.Nodes[id].Fanin {
				if f == x {
					sum++
				} else if in[f] {
					sum += np[f]
				}
			}
			np[id] = sum
		}
		for _, s := range sinks {
			if np[s] > max {
				max, from, to = np[s], x, s
			}
		}
	}
	return max, from, to
}
