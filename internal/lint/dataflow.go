package lint

import (
	"go/token"
	"go/types"
)

// Dataflow over the call graph: a fixpoint closing parameter-mutation facts
// over calls, forward reachability with parent links (for per-entry purity
// checks and their call-path witnesses), and reverse reachability from
// wall-clock facts (for the transitive wallclock rule, which must classify
// every declared function, not just seam entries).

// closeParamMut computes, for every node, the set of parameters (receiver
// first) the function writes through — directly or by passing the parameter
// into a mutated position of a callee. Monotone, so a simple worklist
// converges; boundary and sanitized sites do not propagate (the pool
// machinery and the observability layer own their internal discipline).
func closeParamMut(g *graph) {
	for _, n := range g.nodes {
		n.mutAll = n.mutLocal
	}
	changed := true
	for changed {
		changed = false
		for _, n := range g.nodes {
			for _, site := range n.calls {
				if site.boundary || site.sanitized {
					continue
				}
				for ai, arg := range site.args {
					if arg.kind != rootParam || arg.paramIdx < 0 || arg.paramIdx >= 64 {
						continue
					}
					i := ai
					if site.calleeRooted {
						if i == 0 {
							continue // the called value itself
						}
						i--
					}
					if !calleeMutatesArg(site, i) {
						continue
					}
					bit := uint64(1) << uint(arg.paramIdx)
					if n.mutAll&bit == 0 {
						n.mutAll |= bit
						changed = true
					}
				}
			}
		}
	}
}

// calleeMutatesArg reports whether operand index i (receiver first when the
// site has one) is written through by any resolved callee, or by the
// external-function deny list.
func calleeMutatesArg(site *callSite, i int) bool {
	if i < 0 || i >= 64 {
		return false
	}
	for _, c := range site.callees {
		idx := i
		if idx >= len(c.params) && len(c.params) > 0 {
			idx = len(c.params) - 1 // variadic tail
		}
		if idx < len(c.params) && c.mutAll&(1<<uint(idx)) != 0 {
			return true
		}
	}
	if site.ext != nil {
		for _, idx := range extMutatedArgs(site.ext) {
			if idx == i {
				return true
			}
		}
	}
	return false
}

// extMutatedArgs is the curated deny list of external (standard library)
// functions that mutate one of their operands (receiver = 0). Everything
// not listed is treated as benign: the standard library's value-typed and
// synchronized APIs dominate, and sync/atomic receivers are barriers by
// construction. The list covers the stateful APIs pipeline code plausibly
// reaches for.
func extMutatedArgs(fn *types.Func) []int {
	if fn.Pkg() == nil {
		return nil
	}
	path := fn.Pkg().Path()
	name := fn.Name()
	sig, _ := fn.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil
	if isMethod {
		switch path {
		case "math/rand", "math/rand/v2":
			return []int{0} // every draw advances the generator
		case "bytes", "strings":
			switch name {
			case "Write", "WriteString", "WriteByte", "WriteRune", "Reset",
				"Grow", "Truncate", "ReadFrom", "Next", "Read":
				return []int{0} // Buffer / Builder / Reader state
			}
		case "bufio":
			return []int{0}
		case "encoding/json", "encoding/gob":
			return []int{0} // Encoder/Decoder stream state
		case "container/heap", "container/list":
			return []int{0}
		case "hash/maphash":
			switch name {
			case "Write", "WriteString", "WriteByte", "Reset", "SetSeed":
				return []int{0}
			}
		}
		return nil
	}
	switch path {
	case "fmt":
		switch name {
		case "Fprint", "Fprintf", "Fprintln":
			return []int{0}
		case "Sscan", "Sscanf", "Sscanln":
			return nil // writes through pointer args we cannot index reliably
		}
	case "io":
		switch name {
		case "Copy", "CopyN", "CopyBuffer":
			return []int{0}
		case "ReadFull", "ReadAtLeast":
			return []int{1}
		}
	case "encoding/json":
		if name == "Unmarshal" {
			return []int{1}
		}
	case "sort":
		switch name {
		case "Sort", "Stable", "Slice", "SliceStable", "Strings", "Ints", "Float64s":
			return []int{0}
		}
	case "slices":
		switch name {
		case "Sort", "SortFunc", "SortStableFunc", "Reverse":
			return []int{0}
		}
	case "container/heap":
		return []int{0}
	}
	return nil
}

// parentEdge records how a node was first reached in a forward traversal.
type parentEdge struct {
	from *fnode
	site *callSite
}

// reachFrom runs a breadth-first traversal from entry over call edges,
// skipping boundary and sanitized sites, returning the visit order and the
// first-discovery parent links (for witness reconstruction). Deterministic:
// nodes are discovered in call-site order, which is source order.
func reachFrom(entry *fnode) (order []*fnode, parents map[*fnode]parentEdge) {
	parents = map[*fnode]parentEdge{entry: {}}
	order = []*fnode{entry}
	for qi := 0; qi < len(order); qi++ {
		u := order[qi]
		for _, site := range u.calls {
			if site.boundary || site.sanitized {
				continue
			}
			for _, v := range site.callees {
				if _, seen := parents[v]; seen {
					continue
				}
				parents[v] = parentEdge{from: u, site: site}
				order = append(order, v)
			}
		}
	}
	return order, parents
}

// witnessPath reconstructs the call chain entry -> ... -> sink from parent
// links, as (callSitePos, calleeName) steps.
type witnessStep struct {
	pos  token.Pos
	name string
}

func witnessTo(sink *fnode, parents map[*fnode]parentEdge) []witnessStep {
	var rev []witnessStep
	for n := sink; ; {
		pe, ok := parents[n]
		if !ok || pe.from == nil {
			break
		}
		rev = append(rev, witnessStep{pos: pe.site.pos, name: n.name})
		n = pe.from
	}
	steps := make([]witnessStep, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		steps = append(steps, rev[i])
	}
	return steps
}

// clockHop is the next step toward a wall-clock fact: the call site to take
// and the callee it leads to (nil site for a node with its own local fact).
type clockHop struct {
	site *callSite
	next *fnode
}

// clockReachability computes, for every node, whether a wall-clock fact is
// reachable along non-boundary, non-sanitized edges, plus the first hop of a
// shortest witness path. Reverse BFS from fact nodes; level order makes the
// recorded hop a shortest path, and iterating nodes in id order keeps it
// deterministic.
func clockReachability(g *graph) (reach []bool, hops []clockHop) {
	reach = make([]bool, len(g.nodes))
	hops = make([]clockHop, len(g.nodes))

	// callers[v] lists (u, site) pairs with an edge u -> v.
	type inEdge struct {
		from *fnode
		site *callSite
	}
	callers := make([][]inEdge, len(g.nodes))
	for _, u := range g.nodes {
		for _, site := range u.calls {
			if site.boundary || site.sanitized {
				continue
			}
			for _, v := range site.callees {
				callers[v.id] = append(callers[v.id], inEdge{from: u, site: site})
			}
		}
	}

	var frontier []*fnode
	for _, n := range g.nodes {
		if len(n.clockReads) > 0 {
			reach[n.id] = true
			frontier = append(frontier, n)
		}
	}
	for len(frontier) > 0 {
		var next []*fnode
		for _, v := range frontier {
			for _, e := range callers[v.id] {
				if reach[e.from.id] {
					continue
				}
				reach[e.from.id] = true
				hops[e.from.id] = clockHop{site: e.site, next: v}
				next = append(next, e.from)
			}
		}
		frontier = next
	}
	return reach, hops
}
