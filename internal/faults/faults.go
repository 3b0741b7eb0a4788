// Package faults builds single stuck-at fault lists for combinational
// circuits and performs structural equivalence collapsing.
//
// Fault sites follow the line model: every node output (stem) and every gate
// input pin (fanout branch) can be stuck at 0 or 1.
package faults

import (
	"fmt"
	"sort"

	"compsynth/internal/circuit"
)

// Fault is a single stuck-at fault. Pin == -1 places the fault on the output
// stem of Node; otherwise the fault is on fanin pin Pin of gate Node.
type Fault struct {
	Node  int
	Pin   int
	Stuck bool // stuck-at value
}

func (f Fault) String() string {
	v := 0
	if f.Stuck {
		v = 1
	}
	if f.Pin < 0 {
		return fmt.Sprintf("n%d/sa%d", f.Node, v)
	}
	return fmt.Sprintf("n%d.in%d/sa%d", f.Node, f.Pin, v)
}

// All returns every stuck-at fault of the circuit: two per stem and two per
// gate-input pin. Branch faults are only generated for stems that actually
// fan out to more than one pin (single-pin connections are equivalent to the
// stem and covered by it).
func All(c *circuit.Circuit) []Fault {
	var out []Fault
	for _, nd := range c.Nodes {
		if nd == nil || !c.Alive(nd.ID) {
			continue
		}
		// Constants carry no faults; completely unconnected lines (e.g. an
		// unused primary input) have vacuously undetectable faults and are
		// excluded from the universe.
		connected := len(c.Fanouts(nd.ID))+c.NumPOUses(nd.ID) > 0
		if nd.Type != circuit.Const0 && nd.Type != circuit.Const1 && connected {
			out = append(out, Fault{nd.ID, -1, false}, Fault{nd.ID, -1, true})
		}
		for pin, f := range nd.Fanin {
			if len(c.Fanouts(f))+c.NumPOUses(f) > 1 {
				out = append(out, Fault{nd.ID, pin, false}, Fault{nd.ID, pin, true})
			}
		}
	}
	return out
}

// Collapse performs structural equivalence collapsing on the full fault list
// and returns one representative per equivalence class:
//
//   - BUF/NOT: the input fault is equivalent to the corresponding
//     (inverted for NOT) output fault.
//   - AND/NAND: an input stuck-at-0 is equivalent to the output
//     stuck-at-0 (stuck-at-1 for NAND).
//   - OR/NOR: an input stuck-at-1 is equivalent to the output
//     stuck-at-1 (stuck-at-0 for NOR).
//
// Representatives are chosen deterministically (smallest fault in the class
// under an arbitrary total order).
func Collapse(c *circuit.Circuit) []Fault {
	full := All(c)
	idx := map[Fault]int{}
	for i, f := range full {
		idx[f] = i
	}
	parent := make([]int, len(full))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b Fault) {
		ia, oka := idx[a]
		ib, okb := idx[b]
		if !oka || !okb {
			return
		}
		ra, rb := find(ia), find(ib)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, nd := range c.Nodes {
		if nd == nil || !c.Alive(nd.ID) {
			continue
		}
		// A single-pin connection: the driver's stem fault is the
		// representative site; pin faults were not generated.
		pinFault := func(pin int, v bool) Fault {
			f := nd.Fanin[pin]
			if len(c.Fanouts(f))+c.NumPOUses(f) > 1 {
				return Fault{nd.ID, pin, v}
			}
			return Fault{f, -1, v}
		}
		switch nd.Type {
		case circuit.Buf:
			union(pinFault(0, false), Fault{nd.ID, -1, false})
			union(pinFault(0, true), Fault{nd.ID, -1, true})
		case circuit.Not:
			union(pinFault(0, false), Fault{nd.ID, -1, true})
			union(pinFault(0, true), Fault{nd.ID, -1, false})
		case circuit.And, circuit.Nand, circuit.Or, circuit.Nor:
			ctl, _ := nd.Type.ControllingValue()
			outV := ctl != nd.Type.Inverting()
			for pin := range nd.Fanin {
				union(pinFault(pin, ctl), Fault{nd.ID, -1, outV})
			}
		}
	}
	classRep := map[int]Fault{}
	for i, f := range full {
		r := find(i)
		if cur, ok := classRep[r]; !ok || less(f, cur) {
			classRep[r] = f
		}
	}
	out := make([]Fault, 0, len(classRep))
	for _, f := range classRep {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

func less(a, b Fault) bool {
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.Pin != b.Pin {
		return a.Pin < b.Pin
	}
	return !a.Stuck && b.Stuck
}
