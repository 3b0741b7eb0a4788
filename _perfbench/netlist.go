package main

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"

	"compsynth/internal/circuit"
)

// netlist is the benchmark's own model of a combinational netlist. It is the
// reference side of every output check, so it shares no code with the
// program's parser, simulators or path counter: a defect in any of those
// cannot hide itself by agreeing with the check.
type netlist struct {
	inputs   []int    // signal index of each INPUT, in declaration order
	outputs  []int    // signal index of each OUTPUT designation, in order
	sigs     []signal // every fanin precedes its gate
	outNames []string
}

type signal struct {
	name string
	op   string // INPUT, AND, OR, NAND, NOR, NOT, BUF, XOR, XNOR, CONST0, CONST1
	in   []int
}

// def is one gate definition before ordering.
type def struct {
	name, op string
	ins      []string
}

// parseBench reads .bench text: INPUT(x), OUTPUT(y) and y = OP(a, b, ...)
// lines, '#' comments, gates in any order.
func parseBench(text string) (*netlist, error) {
	var inputs, outputs []string
	var defs []def
	for i, line := range strings.Split(text, "\n") {
		if j := strings.IndexByte(line, '#'); j >= 0 {
			line = line[:j]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if arg, ok := directive(line, "INPUT"); ok {
			inputs = append(inputs, arg)
			continue
		}
		if arg, ok := directive(line, "OUTPUT"); ok {
			outputs = append(outputs, arg)
			continue
		}
		eq := strings.IndexByte(line, '=')
		open := strings.IndexByte(line, '(')
		if eq < 0 || open < eq || !strings.HasSuffix(line, ")") {
			return nil, fmt.Errorf("line %d: cannot parse %q", i+1, line)
		}
		d := def{
			name: strings.TrimSpace(line[:eq]),
			op:   strings.ToUpper(strings.TrimSpace(line[eq+1 : open])),
		}
		if d.op == "BUFF" {
			d.op = "BUF"
		}
		if args := strings.TrimSpace(line[open+1 : len(line)-1]); args != "" {
			for _, a := range strings.Split(args, ",") {
				d.ins = append(d.ins, strings.TrimSpace(a))
			}
		}
		defs = append(defs, d)
	}
	return build(inputs, outputs, defs)
}

// directive returns x for a line KW(x).
func directive(line, kw string) (string, bool) {
	if !strings.HasPrefix(strings.ToUpper(line), kw+"(") || !strings.HasSuffix(line, ")") {
		return "", false
	}
	return strings.TrimSpace(line[len(kw)+1 : len(line)-1]), true
}

// fromCircuit reads a netlist the program returned. Only exported fields
// and methods are used; node names identify signals.
func fromCircuit(c *circuit.Circuit) (*netlist, error) {
	var inputs, outputs []string
	var defs []def
	for _, id := range c.Inputs {
		inputs = append(inputs, c.Nodes[id].Name)
	}
	for _, id := range c.Outputs {
		outputs = append(outputs, c.Nodes[id].Name)
	}
	for id, nd := range c.Nodes {
		if nd == nil || !c.Alive(id) || nd.Type == circuit.Input {
			continue
		}
		d := def{name: nd.Name, op: nd.Type.String()}
		for _, f := range nd.Fanin {
			d.ins = append(d.ins, c.Nodes[f].Name)
		}
		defs = append(defs, d)
	}
	return build(inputs, outputs, defs)
}

var arity = map[string][2]int{ // min, max fanin; -1 = unbounded
	"AND": {1, -1}, "OR": {1, -1}, "NAND": {1, -1}, "NOR": {1, -1},
	"XOR": {1, -1}, "XNOR": {1, -1}, "NOT": {1, 1}, "BUF": {1, 1},
	"CONST0": {0, 0}, "CONST1": {0, 0},
}

// build orders the gate definitions so every fanin precedes its gate and
// resolves names to signal indices.
func build(inputs, outputs []string, defs []def) (*netlist, error) {
	n := &netlist{outNames: outputs}
	byName := map[string]int{}
	add := func(s signal) error {
		if _, dup := byName[s.name]; dup {
			return fmt.Errorf("signal %q defined twice", s.name)
		}
		byName[s.name] = len(n.sigs)
		n.sigs = append(n.sigs, s)
		return nil
	}
	for _, name := range inputs {
		n.inputs = append(n.inputs, len(n.sigs))
		if err := add(signal{name: name, op: "INPUT"}); err != nil {
			return nil, err
		}
	}
	defOf := map[string]int{}
	for i, d := range defs {
		a, ok := arity[d.op]
		if !ok {
			return nil, fmt.Errorf("gate %q: unknown type %s", d.name, d.op)
		}
		if len(d.ins) < a[0] || (a[1] >= 0 && len(d.ins) > a[1]) {
			return nil, fmt.Errorf("gate %q: %s with %d inputs", d.name, d.op, len(d.ins))
		}
		defOf[d.name] = i
	}
	// Depth-first placement with an explicit stack; state 1 = on the
	// stack (a revisit is a cycle), 2 = placed.
	state := make([]int8, len(defs))
	for root := range defs {
		type frame struct{ d, next int }
		stack := []frame{{root, 0}}
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			d := defs[top.d]
			if top.next == 0 {
				if state[top.d] == 2 {
					stack = stack[:len(stack)-1]
					continue
				}
				state[top.d] = 1
			}
			if top.next < len(d.ins) {
				in := d.ins[top.next]
				top.next++
				if j, ok := defOf[in]; ok {
					switch state[j] {
					case 0:
						stack = append(stack, frame{j, 0})
					case 1:
						return nil, fmt.Errorf("combinational cycle through %q", in)
					}
				} else if _, ok := byName[in]; !ok {
					return nil, fmt.Errorf("gate %q: undefined signal %q", d.name, in)
				}
				continue
			}
			s := signal{name: d.name, op: d.op}
			for _, in := range d.ins {
				s.in = append(s.in, byName[in])
			}
			if err := add(s); err != nil {
				return nil, err
			}
			state[top.d] = 2
			stack = stack[:len(stack)-1]
		}
	}
	for _, name := range outputs {
		id, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("output %q is not driven", name)
		}
		n.outputs = append(n.outputs, id)
	}
	return n, nil
}

// eval computes every signal's 64-pattern word; in holds one word per
// input. val is reused when large enough.
func (n *netlist) eval(in []uint64, val []uint64) []uint64 {
	if cap(val) < len(n.sigs) {
		val = make([]uint64, len(n.sigs))
	}
	val = val[:len(n.sigs)]
	for j, id := range n.inputs {
		val[id] = in[j]
	}
	for id, s := range n.sigs {
		var v uint64
		switch s.op {
		case "INPUT":
			continue
		case "CONST0":
			v = 0
		case "CONST1":
			v = ^uint64(0)
		case "BUF":
			v = val[s.in[0]]
		case "NOT":
			v = ^val[s.in[0]]
		case "AND", "NAND":
			v = ^uint64(0)
			for _, f := range s.in {
				v &= val[f]
			}
		case "OR", "NOR":
			for _, f := range s.in {
				v |= val[f]
			}
		case "XOR", "XNOR":
			for _, f := range s.in {
				v ^= val[f]
			}
		}
		if s.op == "NAND" || s.op == "NOR" || s.op == "XNOR" {
			v = ^v
		}
		val[id] = v
	}
	return val
}

// equiv2 is the paper's equivalent-2-input gate count: a k-input
// AND/OR/NAND/NOR/XOR/XNOR counts k-1; inverters, buffers and constants
// count 0.
func (n *netlist) equiv2() int {
	total := 0
	for _, s := range n.sigs {
		switch s.op {
		case "AND", "OR", "NAND", "NOR", "XOR", "XNOR":
			total += len(s.in) - 1
		}
	}
	return total
}

// paths counts the input-to-output paths (the paper's Procedure 1): an
// input starts one path, a constant none, a gate carries the sum of its
// fanins, and every OUTPUT designation adds the count of the signal it names.
func (n *netlist) paths() (uint64, error) {
	np := make([]uint64, len(n.sigs))
	for id, s := range n.sigs {
		switch s.op {
		case "INPUT":
			np[id] = 1
		case "CONST0", "CONST1":
		default:
			for _, f := range s.in {
				var carry uint64
				np[id], carry = bits.Add64(np[id], np[f], 0)
				if carry != 0 {
					return 0, fmt.Errorf("path count overflows uint64 at %q", s.name)
				}
			}
		}
	}
	var total uint64
	for _, o := range n.outputs {
		var carry uint64
		total, carry = bits.Add64(total, np[o], 0)
		if carry != 0 {
			return 0, fmt.Errorf("path count overflows uint64")
		}
	}
	return total, nil
}

// exhaustiveMax is the input count up to which equivalence is checked on
// every input combination (2^14 patterns = 256 words).
const exhaustiveMax = 14

// randomWords is the number of 64-pattern words applied above exhaustiveMax.
const randomWords = 1024

// mismatch compares got against ref, inputs and outputs matched by
// position: the program keeps both orders but not every output name (two
// outputs that come to share one source node keep one name between them). Up to
// exhaustiveMax inputs every combination is applied; above it, randomWords
// seeded random words. It returns how many of the applied patterns
// disagree on at least one output.
func mismatch(ref, got *netlist, seed int64) (bad, applied int, err error) {
	if len(got.inputs) != len(ref.inputs) || len(got.outputs) != len(ref.outputs) {
		return 0, 0, fmt.Errorf("%d inputs, %d outputs; want %d, %d",
			len(got.inputs), len(got.outputs), len(ref.inputs), len(ref.outputs))
	}
	nin := len(ref.inputs)
	words, last := randomWords, ^uint64(0)
	exhaustive := nin <= exhaustiveMax
	if exhaustive {
		words = 1 << max(nin-6, 0)
		if nin < 6 {
			last = 1<<(1<<nin) - 1
		}
	}
	rng := rand.New(rand.NewSource(seed))
	in := make([]uint64, nin)
	var rv, gv []uint64
	for w := 0; w < words; w++ {
		for j := range in {
			switch {
			case !exhaustive:
				in[j] = rng.Uint64()
			case j < 6:
				in[j] = lanePattern[j]
			case w>>(j-6)&1 == 1:
				in[j] = ^uint64(0)
			default:
				in[j] = 0
			}
		}
		rv = ref.eval(in, rv)
		gv = got.eval(in, gv)
		mask := ^uint64(0)
		if w == words-1 {
			mask = last
		}
		var diff uint64
		for i := range ref.outputs {
			diff |= rv[ref.outputs[i]] ^ gv[got.outputs[i]]
		}
		bad += bits.OnesCount64(diff & mask)
		applied += bits.OnesCount64(mask)
	}
	return bad, applied, nil
}

// lanePattern[j] holds bit j of the lane index in every lane, so the 64
// lanes of one word enumerate the first six inputs.
var lanePattern = [6]uint64{
	0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
}

// writeBench renders n as .bench text with its gates in a random
// topological order drawn from rng. The function, every name and every
// fanin order stay the same; the node IDs the program assigns change.
func (n *netlist) writeBench(rng *rand.Rand) string {
	var b strings.Builder
	for _, id := range n.inputs {
		fmt.Fprintf(&b, "INPUT(%s)\n", n.sigs[id].name)
	}
	for _, name := range n.outNames {
		fmt.Fprintf(&b, "OUTPUT(%s)\n", name)
	}
	pending := make([]int, len(n.sigs)) // unplaced fanins per signal
	users := make([][]int, len(n.sigs))
	var ready []int
	for id, s := range n.sigs {
		if s.op == "INPUT" {
			continue
		}
		for _, f := range s.in {
			if n.sigs[f].op != "INPUT" {
				pending[id]++
				users[f] = append(users[f], id)
			}
		}
		if pending[id] == 0 {
			ready = append(ready, id)
		}
	}
	for len(ready) > 0 {
		k := rng.Intn(len(ready))
		id := ready[k]
		ready[k] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		s := n.sigs[id]
		names := make([]string, len(s.in))
		for i, f := range s.in {
			names[i] = n.sigs[f].name
		}
		fmt.Fprintf(&b, "%s = %s(%s)\n", s.name, s.op, strings.Join(names, ", "))
		for _, u := range users[id] {
			if pending[u]--; pending[u] == 0 {
				ready = append(ready, u)
			}
		}
	}
	return b.String()
}
