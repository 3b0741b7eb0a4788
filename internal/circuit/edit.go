package circuit

import (
	"fmt"
	"slices"
	"sort"
)

// Strash performs structural hashing: gates of the same type with the same
// fanin multiset (fanin list for the non-commutative NOT/BUF) are merged
// into one. Consumers are rewired on the fly, so one topological pass
// reaches the fixpoint. Returns the number of gates merged away.
func (c *Circuit) Strash() int {
	seen := map[string]int{}
	merged := 0
	for _, id := range c.Topo() {
		nd := c.Nodes[id]
		if !c.Alive(id) {
			continue
		}
		switch nd.Type {
		case Input:
			continue
		}
		key := strashKey(nd)
		if rep, ok := seen[key]; ok && c.Alive(rep) {
			if c.NumPOUses(id) > 0 && c.NumPOUses(rep) == 0 {
				// Prefer keeping the PO-named node.
				seen[key] = id
				c.ReplaceUses(rep, id)
				merged++
				continue
			}
			c.ReplaceUses(id, rep)
			merged++
			continue
		}
		seen[key] = id
	}
	if merged > 0 {
		c.SweepDead()
	}
	return merged
}

func strashKey(nd *Node) string {
	fan := append([]int(nil), nd.Fanin...)
	switch nd.Type {
	case And, Or, Nand, Nor, Xor, Xnor:
		sort.Ints(fan)
	}
	b := make([]byte, 0, 4+len(fan)*4)
	b = append(b, byte(nd.Type))
	for _, f := range fan {
		b = append(b, byte(f), byte(f>>8), byte(f>>16), byte(f>>24))
	}
	return string(b)
}

// Rename changes the name of node id. It fails silently (returns false)
// when the name is already taken by another live node.
func (c *Circuit) Rename(id int, name string) bool {
	if !c.Alive(id) || name == "" {
		return false
	}
	if other, ok := c.byName[name]; ok {
		return other == id
	}
	nd := c.Nodes[id]
	delete(c.byName, nd.Name)
	nd.Name = name
	c.byName[name] = id
	// Names ride along in the frozen view; a rename must age it out.
	c.touch(id)
	return true
}

// PreservePONames renames each primary-output driver to the given name when
// possible (used by the optimizers so rewritten netlists keep their
// interface names). names[i] corresponds to Outputs[i].
func (c *Circuit) PreservePONames(names []string) {
	for i, o := range c.Outputs {
		if i < len(names) {
			c.Rename(o, names[i])
		}
	}
}

// PONames returns the current primary-output driver names in output order.
func (c *Circuit) PONames() []string {
	names := make([]string, len(c.Outputs))
	for i, o := range c.Outputs {
		names[i] = c.Nodes[o].Name
	}
	return names
}

// SetFanin redirects fanin pin `pin` of gate id to drive from src.
func (c *Circuit) SetFanin(id, pin, src int) {
	if !c.Alive(id) || !c.Alive(src) {
		panic("circuit: SetFanin on dead node")
	}
	nd := c.Nodes[id]
	if pin < 0 || pin >= len(nd.Fanin) {
		panic("circuit: SetFanin pin out of range")
	}
	c.dropUse(nd.Fanin[pin], id)
	nd.Fanin[pin] = src
	c.addUse(src, id)
	c.touch(id)
	c.touch(src)
	c.invalidate()
}

// AddFaninFront prepends node f to the fanin list of gate id.
func (c *Circuit) AddFaninFront(id, f int) {
	if !c.Alive(id) || !c.Alive(f) {
		panic("circuit: AddFaninFront on dead node")
	}
	nd := c.Nodes[id]
	switch nd.Type {
	case Input, Const0, Const1, Buf, Not:
		panic("circuit: AddFaninFront on fixed-arity node")
	}
	nd.Fanin = append([]int{f}, nd.Fanin...)
	c.addUse(f, id)
	c.touch(id)
	c.touch(f)
	c.invalidate()
}

// ReplaceUses rewires every consumer pin of old (and every PO designation of
// old) to drive from new instead, returning the number of uses rewired. old
// itself is left in place; callers typically follow with Kill(old).
func (c *Circuit) ReplaceUses(old, new int) int {
	if old == new {
		return 0
	}
	if !c.Alive(old) || !c.Alive(new) {
		panic("circuit: ReplaceUses on dead node")
	}
	o := c.Nodes[old]
	fo := o.fanout
	for i, u := range fo {
		if i > 0 && fo[i-1] == u {
			continue // every pin of u was rewired at its first entry
		}
		for p, f := range c.Nodes[u].Fanin {
			if f == old {
				c.Nodes[u].Fanin[p] = new
				c.addUse(new, u)
				c.touch(u)
			}
		}
	}
	n := len(fo) + o.poUses
	o.fanout = fo[:0]
	if o.poUses > 0 {
		for i, x := range c.Outputs {
			if x == old {
				c.Outputs[i] = new
			}
		}
		c.Nodes[new].poUses += o.poUses
		o.poUses = 0
	}
	if n > 0 {
		c.touch(old)
		c.touch(new)
		c.invalidate()
	}
	return n
}

// Kill removes node id if nothing uses it — no consumer pin and no
// primary-output designation — and then, the same way, each fanin whose last
// use it held, so it costs what it removes. Primary inputs stay. After an
// edit of a circuit whose every node reached a primary output, killing the
// rewired node and the nodes the edit added removes exactly what SweepDead
// would. It returns the number of nodes removed.
func (c *Circuit) Kill(id int) int {
	nd := c.Nodes[id]
	if nd == nil || nd.Type == dead || nd.Type == Input || len(nd.fanout) > 0 || nd.poUses > 0 {
		return 0
	}
	delete(c.byName, nd.Name)
	fanin := nd.Fanin
	nd.Type, nd.Fanin = dead, nil
	c.live--
	c.touch(id)
	c.invalidate()
	n := 1
	for _, f := range fanin {
		c.dropUse(f, id)
		n += c.Kill(f)
	}
	return n
}

// SweepDead removes every non-input node from which no primary output is
// reachable. It returns the number of nodes removed.
func (c *Circuit) SweepDead() int {
	removed := 0
	for id := range c.Nodes {
		removed += c.Kill(id)
	}
	return removed
}

// Simplify performs local Boolean cleanups until a fixpoint:
//
//   - gates with constant inputs are folded (AND with 0 -> 0, etc.),
//   - 1-input AND/OR become buffers, 1-input NAND/NOR become inverters,
//   - buffers are bypassed, double inverters are cancelled,
//   - duplicate fanins of AND/OR/NAND/NOR are deduplicated.
//
// Dead logic is swept afterwards. Returns the number of rewrites applied.
func (c *Circuit) Simplify() int {
	total := 0
	for {
		n := c.simplifyPass()
		total += n
		if n == 0 {
			break
		}
	}
	c.SweepDead()
	return total
}

func (c *Circuit) simplifyPass() int {
	changes := 0
	var orig []int
	for _, id := range c.Topo() {
		nd := c.Nodes[id]
		if nd == nil || nd.Type == dead {
			continue
		}
		preChanges := changes
		orig = append(orig[:0], nd.Fanin...)
		switch nd.Type {
		case And, Or, Nand, Nor:
			ctl, _ := nd.Type.ControllingValue()
			ctlType, idType := Const0, Const1
			if ctl {
				ctlType, idType = Const1, Const0
			}
			// Fold constant fanins.
			kept := nd.Fanin[:0]
			folded := false
			for _, f := range nd.Fanin {
				ft := c.Nodes[f].Type
				if ft == ctlType {
					folded = true
					break
				}
				if ft == idType {
					changes++
					continue // identity element: drop the pin
				}
				if slices.Contains(kept, f) {
					changes++
					continue // duplicate fanin of an idempotent gate
				}
				kept = append(kept, f)
			}
			if folded {
				c.replaceWithConst(id, ctl != nd.Type.Inverting()) // value when controlled
				changes++
				break
			}
			nd.Fanin = kept
			if len(nd.Fanin) == 0 {
				// All pins were identity constants: AND() == 1, OR() == 0,
				// then apply the gate's inversion.
				c.replaceWithConst(id, ctl == nd.Type.Inverting())
				changes++
			} else if len(nd.Fanin) == 1 {
				if nd.Type == And || nd.Type == Or {
					nd.Type = Buf
				} else {
					nd.Type = Not
				}
				changes++
			}
		case Xor, Xnor:
			kept := nd.Fanin[:0]
			invert := nd.Type == Xnor
			for _, f := range nd.Fanin {
				switch c.Nodes[f].Type {
				case Const0:
					changes++
				case Const1:
					invert = !invert
					changes++
				default:
					kept = append(kept, f)
				}
			}
			nd.Fanin = kept
			if invert {
				nd.Type = Xnor
			} else {
				nd.Type = Xor
			}
			if len(nd.Fanin) == 0 {
				c.replaceWithConst(id, nd.Type == Xnor)
				changes++
			} else if len(nd.Fanin) == 1 {
				if nd.Type == Xor {
					nd.Type = Buf
				} else {
					nd.Type = Not
				}
				changes++
			}
		case Not:
			switch c.Nodes[nd.Fanin[0]].Type {
			case Const0:
				c.replaceWithConst(id, true)
				changes++
			case Const1:
				c.replaceWithConst(id, false)
				changes++
			case Not:
				// Double inversion: forward the grandparent.
				g := c.Nodes[nd.Fanin[0]].Fanin[0]
				nd.Type = Buf
				nd.Fanin[0] = g
				changes++
			}
		case Buf:
			// Bypass: all consumers of the buffer use its source directly.
			src := nd.Fanin[0]
			if c.NumPOUses(id) == 0 {
				changes += c.ReplaceUses(id, src)
			} else if c.Nodes[src].Type == Buf {
				nd.Fanin[0] = c.Nodes[src].Fanin[0]
				changes++
			}
		}
		if changes > preChanges {
			// In-place rewrites above (dropped pins, type demotions, buffer
			// bypasses) change this node's definition: move its entries from
			// the old fanins' fanout lists to the new ones' and record it.
			for _, f := range orig {
				c.dropUse(f, id)
			}
			for _, f := range nd.Fanin {
				c.addUse(f, id)
			}
			c.touch(id)
		}
	}
	if changes > 0 {
		c.invalidate()
	}
	return changes
}

// replaceWithConst turns node id into the constant v in place; the caller
// updates the fanout lists of its former fanins and records the edit.
func (c *Circuit) replaceWithConst(id int, v bool) {
	c.Nodes[id].Type, c.Nodes[id].Fanin = constType(v), nil
}

// SetConstant forces node id to the constant v (used by redundancy removal
// when a stuck-at fault on the node's output is undetectable) and simplifies.
func (c *Circuit) SetConstant(id int, v bool) {
	if !c.Alive(id) {
		panic("circuit: SetConstant on dead node")
	}
	if c.Nodes[id].Type == Input {
		// Inputs cannot be rewritten in place; splice a constant after them.
		k := c.AddGate(constType(v), "")
		c.ReplaceUses(id, k)
		return
	}
	for _, f := range c.Nodes[id].Fanin {
		c.dropUse(f, id)
	}
	c.replaceWithConst(id, v)
	c.touch(id)
	c.invalidate()
}

func constType(v bool) GateType {
	if v {
		return Const1
	}
	return Const0
}

// Compact returns a fresh circuit with tombstones removed and nodes
// renumbered in topological order, along with old->new ID mapping (-1 for
// removed nodes). The fanin lists share one array, and so do the fanout
// lists, each capped at its length as Clone's are.
func (c *Circuit) Compact() (*Circuit, []int) {
	// Inputs keep their declared order and come first; the other nodes
	// follow in topological order.
	order := append(make([]int, 0, max(c.live, len(c.Inputs))), c.Inputs...)
	pins := 0
	for _, id := range c.Topo() {
		if nd := c.Nodes[id]; nd.Type != Input {
			order = append(order, id)
			pins += len(nd.Fanin)
		}
	}
	remap := make([]int, len(c.Nodes))
	for i := range remap {
		remap[i] = -1
	}
	n := New(c.Name)
	n.Nodes = make([]*Node, len(order))
	fanins, uses := make([]int, 0, pins), make([]int, pins)
	for i, id := range order {
		nd := c.Nodes[id]
		k := len(fanins)
		for _, f := range nd.Fanin {
			if remap[f] < 0 {
				panic(fmt.Sprintf("circuit: Compact fanin %d not yet mapped", f))
			}
			fanins = append(fanins, remap[f])
		}
		remap[id] = i
		// A node's consumers come after it, so appending them in ID order
		// keeps each fanout list ascending within its own window.
		m := &Node{ID: i, Type: nd.Type, Name: nd.Name, edited: uint64(i + 1)}
		if len(nd.Fanin) > 0 {
			m.Fanin = fanins[k:len(fanins):len(fanins)]
		}
		if cnt := len(nd.fanout); cnt > 0 {
			m.fanout, uses = uses[:0:cnt], uses[cnt:]
		}
		for _, f := range m.Fanin {
			n.Nodes[f].fanout = append(n.Nodes[f].fanout, i)
		}
		n.Nodes[i] = m
		n.byName[m.Name] = i
	}
	n.live, n.gen = len(order), uint64(len(order))
	for i := range c.Inputs {
		n.Inputs = append(n.Inputs, i)
	}
	for _, o := range c.Outputs {
		n.MarkOutput(remap[o])
	}
	return n, remap
}
