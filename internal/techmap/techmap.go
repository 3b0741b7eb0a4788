// Package techmap is a SIS-style technology mapper used to reproduce
// Table 4: circuits are decomposed into a NAND2/INV subject graph, split
// into trees at fanout points, and covered by dynamic programming over a
// small static cell library with literal-count cost. It reports the mapped
// literal count and the number of cells on the longest path.
package techmap

import (
	"fmt"

	"compsynth/internal/circuit"
)

// Decompose rewrites c into an equivalent subject graph that uses only
// NAND2 and NOT gates (plus inputs and constants).
func Decompose(c *circuit.Circuit) *circuit.Circuit {
	out := circuit.New(c.Name + "_subject")
	remap := make([]int, len(c.Nodes))
	for i := range remap {
		remap[i] = -1
	}
	for _, id := range c.Inputs {
		remap[id] = out.AddInput(c.Nodes[id].Name)
	}
	inv := func(x int) int { return out.AddGate(circuit.Not, "", x) }
	nand := func(a, b int) int { return out.AddGate(circuit.Nand, "", a, b) }
	// andTree produces AND of xs as INV(NAND tree), returning the NAND-form
	// complement to let callers drop double inversions.
	var andN func(xs []int) int   // returns node computing AND(xs)
	nandN := func(xs []int) int { // returns node computing NAND(xs)
		if len(xs) == 1 {
			return inv(xs[0])
		}
		acc := xs[0]
		for i := 1; i < len(xs); i++ {
			if i == len(xs)-1 {
				return nand(acc, xs[i])
			}
			acc = inv(nand(acc, xs[i]))
		}
		return acc
	}
	andN = func(xs []int) int {
		if len(xs) == 1 {
			return xs[0]
		}
		return inv(nandN(xs))
	}
	orN := func(xs []int) int { // OR(xs) = NAND(INV xs...)
		if len(xs) == 1 {
			return xs[0]
		}
		n := make([]int, len(xs))
		for i, x := range xs {
			n[i] = inv(x)
		}
		return nandN(n)
	}
	xor2 := func(a, b int) int {
		m := nand(a, b)
		return nand(nand(a, m), nand(b, m))
	}
	for _, id := range c.Topo() {
		nd := c.Nodes[id]
		if nd.Type == circuit.Input {
			continue
		}
		in := make([]int, len(nd.Fanin))
		for i, f := range nd.Fanin {
			in[i] = remap[f]
		}
		var r int
		switch nd.Type {
		case circuit.Const0:
			r = out.AddGate(circuit.Const0, "")
		case circuit.Const1:
			r = out.AddGate(circuit.Const1, "")
		case circuit.Buf:
			r = in[0]
		case circuit.Not:
			r = inv(in[0])
		case circuit.And:
			r = andN(in)
		case circuit.Nand:
			r = nandN(in)
		case circuit.Or:
			r = orN(in)
		case circuit.Nor:
			r = inv(orN(in))
		case circuit.Xor, circuit.Xnor:
			acc := in[0]
			for i := 1; i < len(in); i++ {
				acc = xor2(acc, in[i])
			}
			if nd.Type == circuit.Xnor {
				acc = inv(acc)
			}
			r = acc
		default:
			panic("techmap: unexpected type " + nd.Type.String())
		}
		remap[id] = r
	}
	for _, o := range c.Outputs {
		out.MarkOutput(remap[o])
	}
	out.Simplify() // cancels INV(INV(x)) introduced by the NOR/XNOR cases
	// Simplify keeps buffers that drive primary outputs (possibly with
	// additional fanout); the cell library has no BUF, so eliminate every
	// remaining buffer by rewiring all of its uses — including the PO
	// designations — to its source.
	for _, nd := range out.Nodes {
		if nd == nil || !out.Alive(nd.ID) || nd.Type != circuit.Buf {
			continue
		}
		src := nd.Fanin[0]
		for out.Nodes[src].Type == circuit.Buf {
			src = out.Nodes[src].Fanin[0]
		}
		out.ReplaceUses(nd.ID, src)
	}
	out.SweepDead()
	res, _ := out.Compact()
	return res
}

// pattern is a cell's subject-graph shape.
type pattern struct {
	op   circuit.GateType // Nand or Not; leaf when op == Input
	kids []*pattern
}

func leaf() *pattern               { return &pattern{op: circuit.Input} }
func pInv(k *pattern) *pattern     { return &pattern{op: circuit.Not, kids: []*pattern{k}} }
func pNand(a, b *pattern) *pattern { return &pattern{op: circuit.Nand, kids: []*pattern{a, b}} }

// Cell is a library element.
type Cell struct {
	Name     string
	Literals int
	shapes   []*pattern
}

// Library returns the static cell library (a small mcnc-flavoured set).
func Library() []Cell {
	l := leaf
	return []Cell{
		{"INV", 1, []*pattern{pInv(l())}},
		{"NAND2", 2, []*pattern{pNand(l(), l())}},
		{"NAND3", 3, []*pattern{
			pNand(l(), pInv(pNand(l(), l()))),
			pNand(pInv(pNand(l(), l())), l()),
		}},
		{"NAND4", 4, []*pattern{
			pNand(pInv(pNand(l(), l())), pInv(pNand(l(), l()))),
			pNand(l(), pInv(pNand(l(), pInv(pNand(l(), l()))))),
		}},
		{"NOR2", 2, []*pattern{pInv(pNand(pInv(l()), pInv(l())))}},
		{"AOI21", 3, []*pattern{
			pInv(pNand(pNand(l(), l()), pInv(l()))),
			pInv(pNand(pInv(l()), pNand(l(), l()))),
		}},
		{"AOI22", 4, []*pattern{pInv(pNand(pNand(l(), l()), pNand(l(), l())))}},
		{"OAI21", 3, []*pattern{
			pNand(pNand(pInv(l()), pInv(l())), l()),
			pNand(l(), pNand(pInv(l()), pInv(l()))),
		}},
	}
}

// Result reports a mapping (the Table 4 columns).
type Result struct {
	Literals int
	Longest  int // cells on the longest PI-to-PO path
	Cells    int
}

func (r Result) String() string {
	return fmt.Sprintf("literals=%d longest=%d cells=%d", r.Literals, r.Longest, r.Cells)
}

// Map decomposes and covers c, returning the mapped cost.
func Map(c *circuit.Circuit) Result {
	subject := Decompose(c)
	return cover(subject, Library())
}

// matchState is the DP record for one subject node.
type matchState struct {
	cost   int   // best literal cost of the tree rooted here
	cell   int   // chosen library cell
	leaves []int // subject nodes that are the chosen match's inputs
}

// cover runs tree covering on the subject graph.
func cover(c *circuit.Circuit, lib []Cell) Result {
	// A node is a tree boundary (must be implemented as a cell output) if
	// it is a PO driver or fans out to more than one consumer pin.
	boundary := make([]bool, len(c.Nodes))
	for _, o := range c.Outputs {
		boundary[o] = true
	}
	for _, nd := range c.Nodes {
		if nd == nil || !c.Alive(nd.ID) {
			continue
		}
		if len(c.Fanouts(nd.ID)) > 1 {
			boundary[nd.ID] = true
		}
	}
	const inf = 1 << 30
	best := make([]matchState, len(c.Nodes))
	for i := range best {
		best[i].cost = inf
	}
	for _, id := range c.Topo() {
		nd := c.Nodes[id]
		switch nd.Type {
		case circuit.Input, circuit.Const0, circuit.Const1:
			best[id] = matchState{cost: 0, cell: -1}
			continue
		}
		for ci, cell := range lib {
			for _, shape := range cell.shapes {
				leaves, ok := matchPattern(c, id, shape, boundary, true)
				if !ok {
					continue
				}
				cost := cell.Literals
				for _, lf := range leaves {
					cost += best[lf].cost
				}
				if cost < best[id].cost {
					best[id] = matchState{cost: cost, cell: ci, leaves: leaves}
				}
			}
		}
		if best[id].cost >= inf {
			panic(fmt.Sprintf("techmap: node %s unmatchable", nd.Name))
		}
	}
	// Total literals: sum of root costs over tree boundaries... each
	// boundary's cost already includes its tree; summing boundaries'
	// OWN cell costs plus recursion would double count, so instead walk
	// the chosen matches from each boundary down to its leaves.
	lits, cells := 0, 0
	depth := make([]int, len(c.Nodes))
	counted := make([]bool, len(c.Nodes))
	var emit func(root int)
	emit = func(root int) {
		if counted[root] {
			return
		}
		counted[root] = true
		ms := best[root]
		if ms.cell < 0 {
			depth[root] = 0
			return
		}
		d := 0
		for _, lf := range ms.leaves {
			emit(lf)
			if depth[lf] > d {
				d = depth[lf]
			}
		}
		depth[root] = d + 1
		lits += lib[ms.cell].Literals
		cells++
	}
	for _, nd := range c.Nodes {
		if nd != nil && c.Alive(nd.ID) && boundary[nd.ID] {
			emit(nd.ID)
		}
	}
	longest := 0
	for _, o := range c.Outputs {
		if depth[o] > longest {
			longest = depth[o]
		}
	}
	return Result{Literals: lits, Longest: longest, Cells: cells}
}

// matchPattern tries to overlay a pattern rooted at subject node id,
// returning the subject nodes at the pattern leaves. Internal pattern nodes
// may not cross tree boundaries (root excepted).
func matchPattern(c *circuit.Circuit, id int, p *pattern, boundary []bool, isRoot bool) ([]int, bool) {
	if p.op == circuit.Input {
		return []int{id}, true
	}
	nd := c.Nodes[id]
	if nd.Type != p.op {
		return nil, false
	}
	if !isRoot && boundary[id] {
		return nil, false
	}
	switch p.op {
	case circuit.Not:
		return matchPattern(c, nd.Fanin[0], p.kids[0], boundary, false)
	case circuit.Nand:
		if len(nd.Fanin) != 2 {
			return nil, false
		}
		// Try both orientations (commutativity).
		for _, ord := range [][2]int{{0, 1}, {1, 0}} {
			l0, ok0 := matchPattern(c, nd.Fanin[ord[0]], p.kids[0], boundary, false)
			if !ok0 {
				continue
			}
			l1, ok1 := matchPattern(c, nd.Fanin[ord[1]], p.kids[1], boundary, false)
			if !ok1 {
				continue
			}
			return append(l0, l1...), true
		}
		return nil, false
	}
	return nil, false
}
