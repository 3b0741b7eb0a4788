package faultsim

import (
	"math/rand"
	"testing"

	"compsynth/internal/bench"
	"compsynth/internal/circuit"
	"compsynth/internal/faults"
	"compsynth/internal/gen"
)

// naiveDetect checks detection by brute-force: rebuild the circuit with the
// fault hard-wired and compare outputs.
func naiveDetect(c *circuit.Circuit, f faults.Fault, pi []bool) bool {
	good := c.Eval(pi)
	bad := evalFaulty(c, f, pi)
	for i := range good {
		if good[i] != bad[i] {
			return true
		}
	}
	return false
}

func evalFaulty(c *circuit.Circuit, f faults.Fault, pi []bool) []bool {
	val := make([]bool, len(c.Nodes))
	for i, id := range c.Inputs {
		val[id] = pi[i]
	}
	for _, id := range c.Topo() {
		nd := c.Nodes[id]
		if nd.Type != circuit.Input {
			in := make([]bool, len(nd.Fanin))
			for i, fn := range nd.Fanin {
				in[i] = val[fn]
				if f.Pin == i && f.Node == id {
					in[i] = f.Stuck
				}
			}
			val[id] = nd.Type.Eval(in)
		}
		if f.Pin < 0 && f.Node == id {
			val[id] = f.Stuck
		}
	}
	out := make([]bool, len(c.Outputs))
	for i, o := range c.Outputs {
		out[i] = val[o]
	}
	return out
}

// edgeCircuit packs the structures FFR tracing must get right into one
// netlist: a net on two pins of one gate, a PO driver that also feeds a
// gate, a dangling gate, a PI that is a PO, a doubly designated output, a
// 3-input XOR and an XNOR, BUF/NOT chains, and constant fanins.
func edgeCircuit() *circuit.Circuit {
	c := circuit.New("edges")
	a := c.AddInput("a")
	b := c.AddInput("b")
	x := c.AddInput("x")
	y := c.AddInput("y")
	e := c.AddInput("e")
	k0 := c.AddGate(circuit.Const0, "k0")
	k1 := c.AddGate(circuit.Const1, "k1")
	g1 := c.AddGate(circuit.And, "g1", a, a, b) // a on two pins
	g2 := c.AddGate(circuit.Xor, "g2", g1, x, y)
	n1 := c.AddGate(circuit.Not, "n1", g2)
	b1 := c.AddGate(circuit.Buf, "b1", n1)
	n2 := c.AddGate(circuit.Not, "n2", b1)
	g3 := c.AddGate(circuit.Xnor, "g3", n2, e)
	g4 := c.AddGate(circuit.Or, "g4", k0, g3) // g3 is a PO and feeds g4
	g5 := c.AddGate(circuit.Nand, "g5", k1, b, g4)
	g6 := c.AddGate(circuit.Nor, "g6", g5, y)
	c.AddGate(circuit.And, "dangling", x, y)
	b2 := c.AddGate(circuit.Buf, "b2", g1)
	g7 := c.AddGate(circuit.Nand, "g7", b2, g5)
	c.MarkOutput(g3)
	c.MarkOutput(g6)
	c.MarkOutput(g6) // doubly designated
	c.MarkOutput(e)  // a PI that is a PO
	c.MarkOutput(g7)
	return c
}

// TestDetectWordMatchesNaive checks every fault of the full (uncollapsed)
// list on all 64 lanes of several blocks against the brute-force model,
// on c17 and on the edge-case circuit.
func TestDetectWordMatchesNaive(t *testing.T) {
	c17, _ := bench.ParseString(bench.C17, "c17")
	for _, c := range []*circuit.Circuit{c17, edgeCircuit()} {
		fl := faults.All(c)
		s := New(c)
		rng := rand.New(rand.NewSource(3))
		words := make([]uint64, len(c.Inputs))
		pi := make([]bool, len(c.Inputs))
		for round := 0; round < 4; round++ {
			for j := range words {
				words[j] = rng.Uint64()
			}
			s.SetInputs(words)
			s.RunGood()
			for _, f := range fl {
				d := s.DetectWord(f)
				for b := 0; b < 64; b++ {
					for j := range pi {
						pi[j] = words[j]&(1<<b) != 0
					}
					if want := naiveDetect(c, f, pi); (d&(1<<b) != 0) != want {
						t.Fatalf("%s round %d fault %v bit %d: sim=%v naive=%v", c.Name, round, f, b, !want, want)
					}
				}
			}
		}
	}
}

func TestDetectWordRandomCircuits(t *testing.T) {
	for _, b := range gen.SmallSuite()[:2] {
		c := b.Build()
		fl := faults.Collapse(c)
		s := New(c)
		rng := rand.New(rand.NewSource(11))
		words := make([]uint64, len(c.Inputs))
		for j := range words {
			words[j] = rng.Uint64()
		}
		s.SetInputs(words)
		s.RunGood()
		for _, f := range fl {
			d := s.DetectWord(f)
			// Verify two sampled bits against the naive model.
			for _, bit := range []int{0, 37} {
				pi := make([]bool, len(c.Inputs))
				for j := range pi {
					pi[j] = words[j]&(1<<bit) != 0
				}
				if (d&(1<<bit) != 0) != naiveDetect(c, f, pi) {
					t.Fatalf("%s fault %v bit %d mismatch", b.Name, f, bit)
				}
			}
		}
	}
}

func TestRunRandomC17FullCoverage(t *testing.T) {
	c, _ := bench.ParseString(bench.C17, "c17")
	fl := faults.Collapse(c)
	res := RunRandom(c, fl, 1024, 1)
	if len(res.Remaining) != 0 {
		t.Fatalf("c17 has undetected faults after 1024 random patterns: %v", res.Remaining)
	}
	if res.Detected != res.TotalFaults {
		t.Fatalf("detected %d of %d", res.Detected, res.TotalFaults)
	}
	if res.LastEffective < 1 || res.LastEffective > 1024 {
		t.Fatalf("last effective pattern = %d", res.LastEffective)
	}
	if res.Coverage() != 1 {
		t.Fatalf("coverage = %v", res.Coverage())
	}
}

func TestRunRandomDetectsRedundantAsUndetected(t *testing.T) {
	// f = a OR (a AND b): the AND is redundant; its "AND output sa0" fault
	// is undetectable and must remain.
	c := circuit.New("red")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g1 := c.AddGate(circuit.And, "g1", a, b)
	g2 := c.AddGate(circuit.Or, "g2", a, g1)
	c.MarkOutput(g2)
	fl := []faults.Fault{{Node: g1, Pin: -1, Stuck: false}}
	res := RunRandom(c, fl, 4096, 2)
	if len(res.Remaining) != 1 {
		t.Fatalf("redundant fault detected?! %+v", res)
	}
}

func TestRunRandomDeterministicAcrossRuns(t *testing.T) {
	c, _ := bench.ParseString(bench.C17, "c17")
	fl := faults.Collapse(c)
	r1 := RunRandom(c, fl, 512, 9)
	r2 := RunRandom(c, fl, 512, 9)
	if r1.Detected != r2.Detected || r1.LastEffective != r2.LastEffective {
		t.Fatal("non-deterministic campaign")
	}
}

func TestDetectedBySinglePattern(t *testing.T) {
	// AND(a,b) output sa0 is detected exactly by (1,1).
	c := circuit.New("t")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g := c.AddGate(circuit.And, "", a, b)
	c.MarkOutput(g)
	f := faults.Fault{Node: g, Pin: -1, Stuck: false}
	cases := []struct {
		pi   []bool
		want bool
	}{
		{[]bool{true, true}, true},
		{[]bool{true, false}, false},
		{[]bool{false, true}, false},
		{[]bool{false, false}, false},
	}
	for _, cse := range cases {
		if got := DetectedBy(c, f, cse.pi); got != cse.want {
			t.Errorf("DetectedBy(%v) = %v, want %v", cse.pi, got, cse.want)
		}
	}
}

func TestBranchVsStemFaultDiffer(t *testing.T) {
	// a fans out to AND(a,b) and NOT(a); branch fault a->AND sa1 is only
	// visible through the AND, stem fault a sa1 also flips the NOT.
	c := circuit.New("t")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g := c.AddGate(circuit.And, "g", a, b)
	n := c.AddGate(circuit.Not, "n", a)
	c.MarkOutput(g)
	c.MarkOutput(n)
	branch := faults.Fault{Node: g, Pin: 0, Stuck: true}
	stem := faults.Fault{Node: a, Pin: -1, Stuck: true}
	pi := []bool{false, false} // a=0, b=0
	// Branch sa1: AND(1,0)=0 = good -> undetected. Stem sa1: NOT flips.
	if DetectedBy(c, branch, pi) {
		t.Fatal("branch fault should be masked at b=0")
	}
	if !DetectedBy(c, stem, pi) {
		t.Fatal("stem fault should be seen through the inverter")
	}
}
