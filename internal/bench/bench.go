// Package bench reads and writes combinational netlists in the ISCAS-89
// ".bench" format:
//
//	# comment
//	INPUT(a)
//	OUTPUT(f)
//	u = NAND(a, b)
//	f = NOT(u)
//
// Supported gate keywords: AND, OR, NAND, NOR, NOT, BUF/BUFF, XOR, XNOR,
// CONST0/GND, CONST1/VDD. DFFs are rejected: the paper operates on
// fully-scanned (combinational) circuits, so sequential elements must have
// been cut into PI/PO pairs before this parser sees the netlist.
package bench

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"compsynth/internal/circuit"
)

var gateFromKeyword = map[string]circuit.GateType{
	"AND": circuit.And, "OR": circuit.Or, "NAND": circuit.Nand,
	"NOR": circuit.Nor, "NOT": circuit.Not, "INV": circuit.Not,
	"BUF": circuit.Buf, "BUFF": circuit.Buf,
	"XOR": circuit.Xor, "XNOR": circuit.Xnor,
	"CONST0": circuit.Const0, "GND": circuit.Const0,
	"CONST1": circuit.Const1, "VDD": circuit.Const1,
}

var keywordFromGate = map[circuit.GateType]string{
	circuit.And: "AND", circuit.Or: "OR", circuit.Nand: "NAND",
	circuit.Nor: "NOR", circuit.Not: "NOT", circuit.Buf: "BUFF",
	circuit.Xor: "XOR", circuit.Xnor: "XNOR",
	circuit.Const0: "CONST0", circuit.Const1: "CONST1",
}

// Parse reads a .bench netlist.
func Parse(r io.Reader, name string) (*circuit.Circuit, error) {
	type protoGate struct {
		out, kw string
		ins     []string
		line    int
	}
	var (
		inputs, outputs []string
		gates           []protoGate
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		up := strings.ToUpper(line)
		switch {
		case strings.HasPrefix(up, "INPUT"):
			arg, err := parenArg(line)
			if err != nil {
				return nil, fmt.Errorf("bench:%d: %v", lineNo, err)
			}
			inputs = append(inputs, arg)
		case strings.HasPrefix(up, "OUTPUT"):
			arg, err := parenArg(line)
			if err != nil {
				return nil, fmt.Errorf("bench:%d: %v", lineNo, err)
			}
			outputs = append(outputs, arg)
		default:
			eq := strings.IndexByte(line, '=')
			if eq < 0 {
				return nil, fmt.Errorf("bench:%d: expected assignment: %q", lineNo, line)
			}
			out := strings.TrimSpace(line[:eq])
			rhs := strings.TrimSpace(line[eq+1:])
			op := strings.IndexByte(rhs, '(')
			cp := strings.LastIndexByte(rhs, ')')
			if op < 0 || cp < op {
				return nil, fmt.Errorf("bench:%d: malformed gate: %q", lineNo, line)
			}
			kw := strings.ToUpper(strings.TrimSpace(rhs[:op]))
			if kw == "DFF" {
				return nil, fmt.Errorf("bench:%d: sequential element DFF; scan the circuit first", lineNo)
			}
			var ins []string
			for _, f := range strings.Split(rhs[op+1:cp], ",") {
				f = strings.TrimSpace(f)
				if f != "" {
					ins = append(ins, f)
				}
			}
			gates = append(gates, protoGate{out: out, kw: kw, ins: ins, line: lineNo})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	c := circuit.New(name)
	for _, in := range inputs {
		if c.NodeByName(in) >= 0 {
			return nil, fmt.Errorf("bench: duplicate input %q", in)
		}
		c.AddInput(in)
	}
	// Gates may be declared in any order; resolve iteratively.
	pending := gates
	for len(pending) > 0 {
		progress := false
		var next []protoGate
		for _, g := range pending {
			ready := true
			ids := make([]int, len(g.ins))
			for i, in := range g.ins {
				id := c.NodeByName(in)
				if id < 0 {
					ready = false
					break
				}
				ids[i] = id
			}
			if !ready {
				next = append(next, g)
				continue
			}
			gt, ok := gateFromKeyword[g.kw]
			if !ok {
				return nil, fmt.Errorf("bench:%d: unknown gate type %q", g.line, g.kw)
			}
			// Arity errors must surface as parse errors, not as panics out
			// of AddGate (found by FuzzParseBench: "g = AND()" crashed).
			switch gt {
			case circuit.Const0, circuit.Const1:
				if len(ids) != 0 {
					return nil, fmt.Errorf("bench:%d: %s takes no operands, got %d", g.line, g.kw, len(ids))
				}
			case circuit.Buf, circuit.Not:
				if len(ids) != 1 {
					return nil, fmt.Errorf("bench:%d: %s takes exactly 1 operand, got %d", g.line, g.kw, len(ids))
				}
			default:
				if len(ids) < 1 {
					return nil, fmt.Errorf("bench:%d: %s needs at least 1 operand", g.line, g.kw)
				}
			}
			if c.NodeByName(g.out) >= 0 {
				return nil, fmt.Errorf("bench:%d: signal %q driven twice", g.line, g.out)
			}
			c.AddGate(gt, g.out, ids...)
			progress = true
		}
		if !progress {
			return nil, fmt.Errorf("bench: unresolved signals (cycle or undeclared): %q", next[0].out)
		}
		pending = next
	}
	for _, out := range outputs {
		id := c.NodeByName(out)
		if id < 0 {
			return nil, fmt.Errorf("bench: output %q is undriven", out)
		}
		c.MarkOutput(id)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("bench: invalid circuit: %v", err)
	}
	return c, nil
}

func parenArg(line string) (string, error) {
	op := strings.IndexByte(line, '(')
	cp := strings.LastIndexByte(line, ')')
	if op < 0 || cp < op {
		return "", fmt.Errorf("malformed declaration: %q", line)
	}
	arg := strings.TrimSpace(line[op+1 : cp])
	if arg == "" {
		return "", fmt.Errorf("empty name: %q", line)
	}
	return arg, nil
}

// ParseString is Parse on a string.
func ParseString(s, name string) (*circuit.Circuit, error) {
	return Parse(strings.NewReader(s), name)
}

// Write emits c in .bench format. Node declaration order follows topological
// order, so the output always parses in one pass.
func Write(w io.Writer, c *circuit.Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", c.Name)
	fmt.Fprintf(bw, "# %d inputs, %d outputs, %d gates (%d equiv-2-input)\n",
		len(c.Inputs), len(c.Outputs), c.NumGates(), c.Equiv2Count())
	for _, id := range c.Inputs {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.Nodes[id].Name)
	}
	for _, id := range c.Outputs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", c.Nodes[id].Name)
	}
	for _, id := range c.Topo() {
		nd := c.Nodes[id]
		if nd.Type == circuit.Input {
			continue
		}
		kw, ok := keywordFromGate[nd.Type]
		if !ok {
			return fmt.Errorf("bench: cannot serialize node type %v", nd.Type)
		}
		names := make([]string, len(nd.Fanin))
		for i, f := range nd.Fanin {
			names[i] = c.Nodes[f].Name
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", nd.Name, kw, strings.Join(names, ", "))
	}
	return bw.Flush()
}

// String renders c in .bench format.
func String(c *circuit.Circuit) string {
	var b strings.Builder
	if err := Write(&b, c); err != nil {
		return "# error: " + err.Error()
	}
	return b.String()
}
