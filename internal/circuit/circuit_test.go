package circuit

import (
	"math/rand"
	"testing"
)

// buildMux builds a 2:1 mux: out = (a AND !s) OR (b AND s).
func buildMux() (*Circuit, int, int, int) {
	c := New("mux")
	a := c.AddInput("a")
	b := c.AddInput("b")
	s := c.AddInput("s")
	ns := c.AddGate(Not, "ns", s)
	t0 := c.AddGate(And, "t0", a, ns)
	t1 := c.AddGate(And, "t1", b, s)
	o := c.AddGate(Or, "o", t0, t1)
	c.MarkOutput(o)
	return c, a, b, s
}

func TestEvalMux(t *testing.T) {
	c, _, _, _ := buildMux()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		a, b, s bool
		want    bool
	}{
		{false, true, false, false},
		{true, false, false, true},
		{false, true, true, true},
		{true, false, true, false},
	}
	for _, cse := range cases {
		got := c.Eval([]bool{cse.a, cse.b, cse.s})[0]
		if got != cse.want {
			t.Errorf("mux(%v,%v,%v) = %v, want %v", cse.a, cse.b, cse.s, got, cse.want)
		}
	}
}

func TestGateTypeEval(t *testing.T) {
	cases := []struct {
		t    GateType
		in   []bool
		want bool
	}{
		{And, []bool{true, true, true}, true},
		{And, []bool{true, false, true}, false},
		{Nand, []bool{true, true}, false},
		{Or, []bool{false, false}, false},
		{Or, []bool{false, true}, true},
		{Nor, []bool{false, false}, true},
		{Xor, []bool{true, true, true}, true},
		{Xor, []bool{true, true}, false},
		{Xnor, []bool{true, false}, false},
		{Not, []bool{true}, false},
		{Buf, []bool{true}, true},
		{Const0, nil, false},
		{Const1, nil, true},
	}
	for _, c := range cases {
		if got := c.t.Eval(c.in); got != c.want {
			t.Errorf("%v%v = %v, want %v", c.t, c.in, got, c.want)
		}
	}
}

func TestEvalWordsMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	types := []GateType{And, Or, Nand, Nor, Xor, Xnor, Not, Buf}
	for _, gt := range types {
		n := 1
		if gt != Not && gt != Buf {
			n = 1 + rng.Intn(4)
		}
		words := make([]uint64, n)
		for i := range words {
			words[i] = rng.Uint64()
		}
		out := gt.EvalWords(words)
		for b := 0; b < 64; b++ {
			in := make([]bool, n)
			for i := range in {
				in[i] = words[i]&(1<<b) != 0
			}
			want := gt.Eval(in)
			if (out&(1<<b) != 0) != want {
				t.Fatalf("%v: bit %d mismatch", gt, b)
			}
		}
	}
}

func TestEquiv2Count(t *testing.T) {
	c := New("t")
	a := c.AddInput("a")
	b := c.AddInput("b")
	d := c.AddInput("d")
	g1 := c.AddGate(And, "", a, b, d) // 3-input: weight 2
	g2 := c.AddGate(Not, "", g1)      // weight 0
	g3 := c.AddGate(Or, "", g2, a)    // weight 1
	c.MarkOutput(g3)
	if got := c.Equiv2Count(); got != 3 {
		t.Fatalf("Equiv2Count = %d, want 3", got)
	}
	if Equiv2Weight(Nand, 4) != 3 || Equiv2Weight(Buf, 1) != 0 || Equiv2Weight(Xor, 2) != 1 {
		t.Fatal("Equiv2Weight wrong")
	}
}

func TestTopoAndLevels(t *testing.T) {
	c, _, _, _ := buildMux()
	order := c.Topo()
	pos := make(map[int]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, nd := range c.Nodes {
		for _, f := range nd.Fanin {
			if pos[f] >= pos[nd.ID] {
				t.Fatalf("topo violation: %d before %d", nd.ID, f)
			}
		}
	}
	if c.Depth() != 3 {
		t.Fatalf("mux depth = %d, want 3", c.Depth())
	}
}

func TestFanoutBranches(t *testing.T) {
	c := New("t")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g := c.AddGate(And, "", a, b)
	h := c.AddGate(Or, "", a, g)
	// a feeds both g and h: two fanout branches.
	c.MarkOutput(h)
	fo := c.Fanouts(a)
	if len(fo) != 2 {
		t.Fatalf("fanouts of a = %v, want 2 branches", fo)
	}
	// A node feeding two pins of one gate has two branches.
	c2 := New("t2")
	x := c2.AddInput("x")
	g2 := c2.AddGate(Xor, "", x, x)
	c2.MarkOutput(g2)
	if len(c2.Fanouts(x)) != 2 {
		t.Fatalf("double-pin fanout = %v", c2.Fanouts(x))
	}
}

func TestReplaceUsesAndSweep(t *testing.T) {
	c, a, b, _ := buildMux()
	// Replace output driver cone with a fresh AND(a,b).
	g := c.AddGate(And, "newg", a, b)
	o := c.Outputs[0]
	c.ReplaceUses(o, g)
	removed := c.SweepDead()
	if removed == 0 {
		t.Fatal("expected dead gates removed")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, in := range [][]bool{{true, true, false}, {true, false, true}, {false, true, true}} {
		want := in[0] && in[1]
		if got := c.Eval(in)[0]; got != want {
			t.Fatalf("after rewire Eval(%v) = %v, want %v", in, got, want)
		}
	}
}

func TestSimplifyConstants(t *testing.T) {
	c := New("t")
	a := c.AddInput("a")
	one := c.AddGate(Const1, "")
	zero := c.AddGate(Const0, "")
	g1 := c.AddGate(And, "", a, one)  // = a
	g2 := c.AddGate(Or, "", g1, zero) // = a
	g3 := c.AddGate(Not, "", g2)      // = !a
	g4 := c.AddGate(Not, "", g3)      // = a
	c.MarkOutput(g4)
	c.Simplify()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, v := range []bool{false, true} {
		if got := c.Eval([]bool{v})[0]; got != v {
			t.Fatalf("simplified identity Eval(%v) = %v", v, got)
		}
	}
	if c.Equiv2Count() != 0 {
		t.Fatalf("equiv2 after simplify = %d, want 0", c.Equiv2Count())
	}
}

func TestSimplifyControllingConstant(t *testing.T) {
	c := New("t")
	a := c.AddInput("a")
	zero := c.AddGate(Const0, "")
	g := c.AddGate(And, "", a, zero) // = 0
	h := c.AddGate(Nor, "", g, a)    // = !a
	c.MarkOutput(h)
	c.Simplify()
	for _, v := range []bool{false, true} {
		if got := c.Eval([]bool{v})[0]; got != !v {
			t.Fatalf("Eval(%v) = %v, want %v", v, got, !v)
		}
	}
}

func TestSimplifyDuplicateFanin(t *testing.T) {
	c := New("t")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g := c.AddGate(And, "", a, a, b)
	c.MarkOutput(g)
	c.Simplify()
	nd := c.Nodes[g]
	if len(nd.Fanin) != 2 {
		t.Fatalf("duplicate fanin not removed: %v", nd.Fanin)
	}
}

func TestSimplifyXorConstants(t *testing.T) {
	c := New("t")
	a := c.AddInput("a")
	one := c.AddGate(Const1, "")
	g := c.AddGate(Xor, "", a, one) // = !a
	c.MarkOutput(g)
	c.Simplify()
	for _, v := range []bool{false, true} {
		if got := c.Eval([]bool{v})[0]; got != !v {
			t.Fatalf("xor-const Eval(%v) = %v", v, got)
		}
	}
}

func TestSetConstantOnInput(t *testing.T) {
	c, _, _, _ := buildMux()
	// Force s = 0: mux becomes a.
	s := c.NodeByName("s")
	c.SetConstant(s, false)
	c.Simplify()
	for _, in := range [][]bool{{true, false, true}, {false, true, false}} {
		if got := c.Eval(in)[0]; got != in[0] {
			t.Fatalf("Eval(%v) = %v, want %v", in, got, in[0])
		}
	}
}

func TestCompact(t *testing.T) {
	c, a, b, _ := buildMux()
	g := c.AddGate(And, "", a, b)
	c.ReplaceUses(c.Outputs[0], g)
	c.SweepDead()
	n, remap := c.Compact()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	// Check audits every fanout list: consumer IDs ascending, one entry
	// per pin. Each list is capped at its length, so an edit that appends
	// reallocates it instead of writing into its neighbor's.
	if err := Check(n); err != nil {
		t.Fatal(err)
	}
	for _, nd := range n.Nodes {
		if fo := n.Fanouts(nd.ID); cap(fo) != len(fo) || cap(nd.Fanin) != len(nd.Fanin) {
			t.Fatalf("node %s: fanout len %d cap %d, fanin len %d cap %d", nd.Name, len(fo), cap(fo), len(nd.Fanin), cap(nd.Fanin))
		}
	}
	if n.NumLive() != len(n.Nodes) {
		t.Fatal("compact left holes")
	}
	if len(n.Inputs) != 3 {
		t.Fatalf("inputs lost: %d", len(n.Inputs))
	}
	if remap[g] < 0 {
		t.Fatal("live node unmapped")
	}
	for _, in := range [][]bool{{true, true, true}, {true, false, false}} {
		if n.Eval(in)[0] != c.Eval(in)[0] {
			t.Fatal("compact changed function")
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	c, _, _, _ := buildMux()
	d := c.Clone()
	d.Nodes[d.NodeByName("o")].Type = And
	if c.Nodes[c.NodeByName("o")].Type != Or {
		t.Fatal("clone shares nodes")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCycle(t *testing.T) {
	c := New("t")
	a := c.AddInput("a")
	g1 := c.AddGate(And, "", a, a)
	g2 := c.AddGate(Or, "", g1, a)
	c.MarkOutput(g2)
	// Close the cycle g1 -> g2 -> g1 through a mutator, so the fanout
	// lists Topo walks carry it too.
	c.SetFanin(g1, 1, g2)
	if err := c.Validate(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestControllingValue(t *testing.T) {
	if v, ok := And.ControllingValue(); !ok || v {
		t.Fatal("AND controlling value should be 0")
	}
	if v, ok := Nor.ControllingValue(); !ok || !v {
		t.Fatal("NOR controlling value should be 1")
	}
	if _, ok := Xor.ControllingValue(); ok {
		t.Fatal("XOR has no controlling value")
	}
}

func TestDuplicateNameGetsUniqued(t *testing.T) {
	c := New("t")
	c.AddInput("a")
	id := c.AddGate(Const1, "a")
	if c.Nodes[id].Name == "a" {
		t.Fatal("duplicate name not uniqued")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}
