package subckt

import (
	"slices"
	"testing"

	"compsynth/internal/bench"
	"compsynth/internal/circuit"
	"compsynth/internal/logic"
)

// candidates returns g's cut-based candidates at K = 5, the pipeline's
// enumeration.
func candidates(c *circuit.Circuit, g int) []*Subcircuit {
	return ComputeCuts(c, 5, 0).EnumerateFromCuts(c, g)
}

func TestExtractSingleGate(t *testing.T) {
	c := circuit.New("t")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g := c.AddGate(circuit.Nand, "g", a, b)
	c.MarkOutput(g)
	subs := candidates(c, g)
	if len(subs) != 1 || len(subs[0].Gates) != 1 {
		t.Fatalf("want the single-gate candidate only, got %d candidates", len(subs))
	}
	tt := subs[0].Extract(c)
	want := logic.Var(2, 1).And(logic.Var(2, 2)).Not()
	// Inputs sorted ascending: a (id 0) is y1, b (id 1) is y2.
	if !tt.Equal(want) {
		t.Fatalf("NAND extract = %s, want %s", tt, want)
	}
}

func TestExtractDeepSubcircuit(t *testing.T) {
	// f = (a AND b) OR (NOT c): the cut {a, b, c} of the OR induces the
	// full 3-gate candidate, which must extract the right 3-input function.
	c := circuit.New("t")
	a := c.AddInput("a")
	b := c.AddInput("b")
	cc := c.AddInput("c")
	g1 := c.AddGate(circuit.And, "", a, b)
	g2 := c.AddGate(circuit.Not, "", cc)
	g3 := c.AddGate(circuit.Or, "", g1, g2)
	c.MarkOutput(g3)
	subs := candidates(c, g3)
	var full *Subcircuit
	for _, s := range subs {
		if len(s.Gates) == 3 {
			full = s
		}
	}
	if full == nil {
		t.Fatal("full candidate not enumerated")
	}
	tt := full.Extract(c)
	want := logic.Var(3, 1).And(logic.Var(3, 2)).Or(logic.Var(3, 3).Not())
	if !tt.Equal(want) {
		t.Fatalf("extract = %s, want %s", tt, want)
	}
}

func TestExtractMatchesHostSimulation(t *testing.T) {
	c, _ := bench.ParseString(bench.C17, "c17")
	for _, gname := range []string{"22", "23", "16", "19"} {
		g := c.NodeByName(gname)
		for _, s := range candidates(c, g) {
			tt := s.Extract(c)
			// Check on concrete patterns: drive the host circuit's PIs with
			// every combination and compare the node value against the TT of
			// the subcircuit inputs.
			for m := 0; m < 32; m++ {
				in := make([]bool, 5)
				for i := range in {
					in[i] = m&(1<<i) != 0
				}
				vals := evalAll(c, in)
				idx := 0
				for j, sin := range s.Inputs {
					if vals[sin] {
						idx |= 1 << (len(s.Inputs) - 1 - j)
					}
				}
				if tt.Get(idx) != vals[g] {
					t.Fatalf("g=%s gates=%v: mismatch at PI %v", gname, s.Gates, in)
				}
			}
		}
	}
}

// evalAll returns the value of every node for one input assignment.
func evalAll(c *circuit.Circuit, pi []bool) []bool {
	val := make([]bool, len(c.Nodes))
	for i, id := range c.Inputs {
		val[id] = pi[i]
	}
	for _, id := range c.Topo() {
		nd := c.Nodes[id]
		if nd.Type == circuit.Input {
			continue
		}
		in := make([]bool, len(nd.Fanin))
		for i, f := range nd.Fanin {
			in[i] = val[f]
		}
		val[id] = nd.Type.Eval(in)
	}
	return val
}

func TestRemovableRespectsFanout(t *testing.T) {
	// g1 fans out to g2 (inside) and g3 (outside): not removable, so its
	// AND weight is not saved.
	c := circuit.New("t")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g1 := c.AddGate(circuit.And, "g1", a, b)
	g2 := c.AddGate(circuit.Not, "g2", g1)
	g3 := c.AddGate(circuit.Or, "g3", g1, a)
	c.MarkOutput(g2)
	c.MarkOutput(g3)
	s := &Subcircuit{Out: g2, Gates: []int{g1, g2}, Inputs: []int{a, b}}
	if s.GateSavings(c) != 0 {
		// g2 is a NOT: weight 0; g1 shared.
		t.Fatalf("savings = %d, want 0", s.GateSavings(c))
	}
	// With the outside consumer gone, g1 becomes removable.
	g4 := c.AddGate(circuit.Or, "g4", a, b)
	c.ReplaceUses(g3, g4)
	c.SweepDead()
	if s.GateSavings(c) != 1 {
		t.Fatalf("savings without the outside consumer = %d, want 1", s.GateSavings(c))
	}
}

func TestRemovableChain(t *testing.T) {
	// Chain entirely inside the candidate: everything removable.
	c := circuit.New("t")
	a := c.AddInput("a")
	b := c.AddInput("b")
	d := c.AddInput("d")
	g1 := c.AddGate(circuit.And, "g1", a, b)
	g2 := c.AddGate(circuit.Or, "g2", g1, d)
	c.MarkOutput(g2)
	s := &Subcircuit{Out: g2, Gates: []int{g1, g2}, Inputs: []int{a, b, d}}
	if s.GateSavings(c) != 2 {
		t.Fatalf("savings = %d, want 2", s.GateSavings(c))
	}
}

func TestRemovablePODriverInside(t *testing.T) {
	// An internal gate that drives a PO must not be removable.
	c := circuit.New("t")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g1 := c.AddGate(circuit.And, "g1", a, b)
	g2 := c.AddGate(circuit.Not, "g2", g1)
	c.MarkOutput(g1)
	c.MarkOutput(g2)
	s := &Subcircuit{Out: g2, Gates: []int{g1, g2}, Inputs: []int{a, b}}
	if n := s.GateSavings(c); n != 0 {
		t.Fatalf("savings = %d, want 0: the PO driver g1 was counted", n)
	}
}

// TestRemovableDeepChain needs the decision to propagate through several
// levels: g1 is removable only because g2 is, which is removable only
// because g3 (the output) is.
func TestRemovableDeepChain(t *testing.T) {
	c := circuit.New("t")
	a := c.AddInput("a")
	b := c.AddInput("b")
	d := c.AddInput("d")
	g1 := c.AddGate(circuit.And, "g1", a, b)
	g2 := c.AddGate(circuit.Nand, "g2", g1, d)
	g3 := c.AddGate(circuit.Or, "g3", g2, g1)
	c.MarkOutput(g3)
	s := &Subcircuit{Out: g3, Gates: []int{g1, g2, g3}, Inputs: []int{a, b, d}}
	if n := s.GateSavings(c); n != 3 {
		t.Fatalf("savings = %d, want 3", n)
	}
}

func TestConstantAbsorption(t *testing.T) {
	c := circuit.New("t")
	a := c.AddInput("a")
	k := c.AddGate(circuit.Const1, "")
	g := c.AddGate(circuit.Xor, "g", a, k)
	c.MarkOutput(g)
	subs := candidates(c, g)
	if len(subs) != 1 {
		t.Fatalf("want one candidate, got %d", len(subs))
	}
	s := subs[0]
	if len(s.Inputs) != 1 || s.Inputs[0] != a || !slices.Contains(s.Gates, k) {
		t.Fatalf("constant not absorbed: inputs %v", s.Inputs)
	}
	tt := s.Extract(c)
	if !tt.Equal(logic.Var(1, 1).Not()) {
		t.Fatalf("extract with absorbed const = %s", tt)
	}
}
