// Package circuit provides the gate-level combinational netlist that all
// other packages operate on: construction, structural queries, levelization,
// equivalent-2-input gate counting, editing and validation.
//
// A circuit is a DAG of nodes. Each node is a primary input, a constant, or a
// gate with one or more fanin edges. Primary outputs are designated nodes
// (their driving lines). Fanout branches are implicit: a node with k fanout
// consumers has k fanout branches, each carrying the stem's value, exactly as
// in the paper's line model.
package circuit

import (
	"fmt"
	"slices"
	"sort"
)

// GateType enumerates supported node kinds.
type GateType int

// Node kinds. Input and the constants have no fanin; Not and Buf have exactly
// one; the others accept arbitrary fanin >= 1 (Xor/Xnor are parity gates).
const (
	Input GateType = iota
	Const0
	Const1
	Buf
	Not
	And
	Or
	Nand
	Nor
	Xor
	Xnor
	dead // tombstone for removed nodes; never visible after Compact
)

var typeNames = map[GateType]string{
	Input: "INPUT", Const0: "CONST0", Const1: "CONST1", Buf: "BUF",
	Not: "NOT", And: "AND", Or: "OR", Nand: "NAND", Nor: "NOR",
	Xor: "XOR", Xnor: "XNOR", dead: "DEAD",
}

func (t GateType) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("GateType(%d)", int(t))
}

// Inverting reports whether the gate complements the underlying monotone
// function (NAND/NOR/NOT/XNOR).
func (t GateType) Inverting() bool {
	return t == Nand || t == Nor || t == Not || t == Xnor
}

// ControllingValue returns the controlling input value of the gate and
// whether one exists. AND/NAND are controlled by 0, OR/NOR by 1.
func (t GateType) ControllingValue() (v bool, ok bool) {
	switch t {
	case And, Nand:
		return false, true
	case Or, Nor:
		return true, true
	}
	return false, false
}

// Eval computes the gate function on concrete input values.
func (t GateType) Eval(in []bool) bool {
	switch t {
	case Const0:
		return false
	case Const1:
		return true
	case Buf:
		return in[0]
	case Not:
		return !in[0]
	case And, Nand:
		v := true
		for _, x := range in {
			v = v && x
		}
		if t == Nand {
			return !v
		}
		return v
	case Or, Nor:
		v := false
		for _, x := range in {
			v = v || x
		}
		if t == Nor {
			return !v
		}
		return v
	case Xor, Xnor:
		v := false
		for _, x := range in {
			v = v != x
		}
		if t == Xnor {
			return !v
		}
		return v
	}
	panic("circuit: Eval on " + t.String())
}

// EvalWords computes the gate function on 64-pattern-parallel words.
func (t GateType) EvalWords(in []uint64) uint64 {
	switch t {
	case Const0:
		return 0
	case Const1:
		return ^uint64(0)
	case Buf:
		return in[0]
	case Not:
		return ^in[0]
	case And, Nand:
		v := ^uint64(0)
		for _, x := range in {
			v &= x
		}
		if t == Nand {
			return ^v
		}
		return v
	case Or, Nor:
		v := uint64(0)
		for _, x := range in {
			v |= x
		}
		if t == Nor {
			return ^v
		}
		return v
	case Xor, Xnor:
		v := uint64(0)
		for _, x := range in {
			v ^= x
		}
		if t == Xnor {
			return ^v
		}
		return v
	}
	panic("circuit: EvalWords on " + t.String())
}

// Node is a primary input, constant or gate.
type Node struct {
	ID    int
	Type  GateType
	Name  string
	Fanin []int // driving node IDs, in pin order

	fanout []int  // consumer node IDs, one per consuming pin, ascending
	poUses int    // number of primary-output designations of the node
	edited uint64 // generation of the node's last edit (see record.go)
}

// Circuit is a combinational netlist.
type Circuit struct {
	Name    string
	Nodes   []*Node // indexed by ID; tombstoned entries have Type == dead
	Inputs  []int   // primary input node IDs in declaration order
	Outputs []int   // primary output driver node IDs in declaration order

	// Every mutator keeps each node's fanout list and PO-use count and the
	// live count current, so reading them costs a load and an edit costs
	// what it touches.
	byName    map[string]int
	live      int
	topoCache []int
	gen       uint64      // edit generation (see record.go)
	fz        frozenState // frozen CSR view + its rebuild scratch (see csr.go)
}

// New returns an empty circuit.
func New(name string) *Circuit {
	return &Circuit{Name: name, byName: map[string]int{}}
}

func (c *Circuit) invalidate() {
	c.topoCache = nil
}

// AddInput adds a primary input with the given name.
func (c *Circuit) AddInput(name string) int {
	id := c.addNode(Input, name, nil)
	c.Inputs = append(c.Inputs, id)
	return id
}

// AddGate adds a gate. Name may be empty; a unique one is generated.
func (c *Circuit) AddGate(t GateType, name string, fanin ...int) int {
	switch t {
	case Input:
		panic("circuit: use AddInput")
	case Const0, Const1:
		if len(fanin) != 0 {
			panic("circuit: constant with fanin")
		}
	case Buf, Not:
		if len(fanin) != 1 {
			panic(fmt.Sprintf("circuit: %v needs exactly 1 fanin, got %d", t, len(fanin)))
		}
	default:
		if len(fanin) < 1 {
			panic(fmt.Sprintf("circuit: %v needs fanin", t))
		}
	}
	for _, f := range fanin {
		if f < 0 || f >= len(c.Nodes) || c.Nodes[f] == nil || c.Nodes[f].Type == dead {
			panic(fmt.Sprintf("circuit: fanin %d does not exist", f))
		}
	}
	return c.addNode(t, name, append([]int(nil), fanin...))
}

func (c *Circuit) addNode(t GateType, name string, fanin []int) int {
	id := len(c.Nodes)
	if name == "" {
		name = fmt.Sprintf("n%d", id)
	}
	if _, dup := c.byName[name]; dup {
		name = fmt.Sprintf("%s_%d", name, id)
	}
	c.Nodes = append(c.Nodes, &Node{ID: id, Type: t, Name: name, Fanin: fanin})
	c.byName[name] = id
	c.live++
	for _, f := range fanin {
		c.addUse(f, id)
	}
	c.touch(id)
	c.invalidate()
	return id
}

// MarkOutput designates node id as (driving) a primary output.
func (c *Circuit) MarkOutput(id int) {
	c.Outputs = append(c.Outputs, id)
	c.Nodes[id].poUses++
	// The frozen view's Out array tracks the designations.
	c.touch(id)
}

// NodeByName returns the node ID for name, or -1.
func (c *Circuit) NodeByName(name string) int {
	if id, ok := c.byName[name]; ok {
		return id
	}
	return -1
}

// Alive reports whether node id exists and is not a tombstone.
func (c *Circuit) Alive(id int) bool {
	return id >= 0 && id < len(c.Nodes) && c.Nodes[id] != nil && c.Nodes[id].Type != dead
}

// NumGates returns the number of live non-input, non-constant nodes.
func (c *Circuit) NumGates() int {
	n := 0
	for _, nd := range c.Nodes {
		if nd != nil && nd.Type != dead && nd.Type != Input && nd.Type != Const0 && nd.Type != Const1 {
			n++
		}
	}
	return n
}

// NumLive returns the number of live nodes of any kind.
func (c *Circuit) NumLive() int { return c.live }

// Equiv2Weight returns the equivalent-2-input gate weight of a single node:
// a k-input AND/OR/NAND/NOR/XOR/XNOR counts k-1 (a 1-input one counts 0);
// NOT/BUF/constants/inputs count 0, matching the paper's metric.
func Equiv2Weight(t GateType, fanin int) int {
	switch t {
	case And, Or, Nand, Nor, Xor, Xnor:
		if fanin < 1 {
			return 0
		}
		return fanin - 1
	}
	return 0
}

// Equiv2Count returns the circuit's total equivalent-2-input gate count.
func (c *Circuit) Equiv2Count() int {
	n := 0
	for _, nd := range c.Nodes {
		if nd != nil && nd.Type != dead {
			n += Equiv2Weight(nd.Type, len(nd.Fanin))
		}
	}
	return n
}

// Fanouts returns the consumer node IDs of id, one entry per consuming pin
// in ascending ID order, so a gate reading id on two pins appears twice
// (two fanout branches). Primary-output designations are not included.
func (c *Circuit) Fanouts(id int) []int { return c.Nodes[id].fanout }

// NumPOUses returns how many times node id is designated as a primary output.
func (c *Circuit) NumPOUses(id int) int { return c.Nodes[id].poUses }

// addUse records that gate id reads f on one more pin.
func (c *Circuit) addUse(f, id int) {
	fo := c.Nodes[f].fanout
	i, _ := slices.BinarySearch(fo, id+1)
	c.Nodes[f].fanout = slices.Insert(fo, i, id)
}

// dropUse records that gate id reads f on one pin fewer.
func (c *Circuit) dropUse(f, id int) {
	fo := c.Nodes[f].fanout
	i, _ := slices.BinarySearch(fo, id)
	c.Nodes[f].fanout = slices.Delete(fo, i, i+1)
}

// Topo returns live node IDs in topological order (fanins before consumers).
func (c *Circuit) Topo() []int {
	if c.topoCache != nil {
		return c.topoCache
	}
	indeg := make([]int, len(c.Nodes))
	var queue []int
	for _, nd := range c.Nodes {
		if nd == nil || nd.Type == dead {
			continue
		}
		indeg[nd.ID] = len(nd.Fanin)
		if len(nd.Fanin) == 0 {
			queue = append(queue, nd.ID)
		}
	}
	sort.Ints(queue)
	order := make([]int, 0, c.live)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, f := range c.Nodes[id].fanout {
			indeg[f]--
			if indeg[f] == 0 {
				queue = append(queue, f)
			}
		}
	}
	if len(order) != c.live {
		panic("circuit: cycle detected in Topo")
	}
	c.topoCache = order
	return order
}

// Depth returns the number of gates on the longest PI-to-PO path
// (each gate, including inverters, counts 1). It reads the levels of the
// frozen view, so, like Freeze, it must not run concurrently with other
// Circuit methods.
func (c *Circuit) Depth() int {
	v := c.Freeze()
	d := int32(0)
	for _, o := range v.Out {
		d = max(d, v.Level[o])
	}
	return int(d)
}

// Validate checks structural invariants and returns the first violation.
func (c *Circuit) Validate() error {
	seen := map[string]bool{}
	for i, nd := range c.Nodes {
		if nd == nil {
			continue
		}
		if nd.ID != i {
			return fmt.Errorf("node %d has ID %d", i, nd.ID)
		}
		if nd.Type == dead {
			continue
		}
		if seen[nd.Name] {
			return fmt.Errorf("duplicate name %q", nd.Name)
		}
		seen[nd.Name] = true
		for _, f := range nd.Fanin {
			if !c.Alive(f) {
				return fmt.Errorf("node %s has dead fanin %d", nd.Name, f)
			}
		}
		switch nd.Type {
		case Input, Const0, Const1:
			if len(nd.Fanin) != 0 {
				return fmt.Errorf("node %s: %v with fanin", nd.Name, nd.Type)
			}
		case Buf, Not:
			if len(nd.Fanin) != 1 {
				return fmt.Errorf("node %s: %v with %d fanins", nd.Name, nd.Type, len(nd.Fanin))
			}
		default:
			if len(nd.Fanin) < 1 {
				return fmt.Errorf("node %s: %v without fanin", nd.Name, nd.Type)
			}
		}
	}
	for _, o := range c.Outputs {
		if !c.Alive(o) {
			return fmt.Errorf("dead output %d", o)
		}
	}
	for _, in := range c.Inputs {
		if !c.Alive(in) || c.Nodes[in].Type != Input {
			return fmt.Errorf("input list entry %d is not a live input", in)
		}
	}
	// Acyclicity is established by Topo; recover a panic into an error.
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%v", r)
			}
		}()
		c.Topo()
		return nil
	}()
	return err
}

// Eval evaluates the circuit on a single assignment. pi[i] is the value of
// c.Inputs[i]. It returns the PO values in output order.
func (c *Circuit) Eval(pi []bool) []bool {
	if len(pi) != len(c.Inputs) {
		panic("circuit: assignment length mismatch")
	}
	val := make([]bool, len(c.Nodes))
	for i, id := range c.Inputs {
		val[id] = pi[i]
	}
	in := make([]bool, 0, 8)
	for _, id := range c.Topo() {
		nd := c.Nodes[id]
		if nd.Type == Input {
			continue
		}
		in = in[:0]
		for _, f := range nd.Fanin {
			in = append(in, val[f])
		}
		val[id] = nd.Type.Eval(in)
	}
	out := make([]bool, len(c.Outputs))
	for i, o := range c.Outputs {
		out[i] = val[o]
	}
	return out
}

// Clone returns a deep copy sharing no state with c.
func (c *Circuit) Clone() *Circuit {
	n := New(c.Name)
	n.Nodes = make([]*Node, len(c.Nodes))
	n.live = c.live
	// The copied fanout lists share one backing array, one entry per fanin
	// pin, each list capped so that an append reallocates it.
	pins := 0
	for _, nd := range c.Nodes {
		if nd != nil {
			pins += len(nd.Fanin)
		}
	}
	uses := make([]int, 0, pins)
	for i, nd := range c.Nodes {
		if nd == nil {
			continue
		}
		k := len(uses)
		uses = append(uses, nd.fanout...)
		n.Nodes[i] = &Node{ID: nd.ID, Type: nd.Type, Name: nd.Name, Fanin: append([]int(nil), nd.Fanin...),
			fanout: uses[k:len(uses):len(uses)], poUses: nd.poUses}
		if nd.Type != dead {
			n.byName[nd.Name] = i
		}
	}
	n.Inputs = append([]int(nil), c.Inputs...)
	n.Outputs = append([]int(nil), c.Outputs...)
	return n
}

// Stats is a compact summary of circuit size.
type Stats struct {
	Inputs, Outputs, Gates, Equiv2, Depth int
}

// Stats returns the circuit's summary statistics.
func (c *Circuit) Stats() Stats {
	return Stats{
		Inputs:  len(c.Inputs),
		Outputs: len(c.Outputs),
		Gates:   c.NumGates(),
		Equiv2:  c.Equiv2Count(),
		Depth:   c.Depth(),
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("in=%d out=%d gates=%d equiv2=%d depth=%d",
		s.Inputs, s.Outputs, s.Gates, s.Equiv2, s.Depth)
}
