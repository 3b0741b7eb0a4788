package simulate

import (
	"math/rand"
	"testing"

	"compsynth/internal/bench"
	"compsynth/internal/circuit"
	"compsynth/internal/gen"
)

func TestSimMatchesEval(t *testing.T) {
	c, err := bench.ParseString(bench.C17, "c17")
	if err != nil {
		t.Fatal(err)
	}
	s := New(c)
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 10; round++ {
		words := make([]uint64, 5)
		for j := range words {
			words[j] = rng.Uint64()
			s.SetInput(j, words[j])
		}
		s.Run()
		for b := 0; b < 64; b++ {
			in := make([]bool, 5)
			for j := range in {
				in[j] = words[j]&(1<<b) != 0
			}
			want := c.Eval(in)
			for o := range c.Outputs {
				if (s.Output(o)&(1<<b) != 0) != want[o] {
					t.Fatalf("round %d bit %d output %d mismatch", round, b, o)
				}
			}
		}
	}
}

// swapFirstNandForNor replaces the first NAND with a NOR over the same
// fanins, going through the edit-stamping mutators (a direct Node.Type
// write would bypass edit tracking and leave any frozen view stale).
func swapFirstNandForNor(c *circuit.Circuit) {
	for _, nd := range c.Nodes {
		if nd.Type == circuit.Nand {
			g := c.AddGate(circuit.Nor, "", nd.Fanin...)
			c.ReplaceUses(nd.ID, g)
			return
		}
	}
}

func TestEquivalentRandomDetectsDifference(t *testing.T) {
	a, _ := bench.ParseString(bench.C17, "a")
	b, _ := bench.ParseString(bench.C17, "b")
	if !EquivalentRandom(a, b, 8, 10, 1) {
		t.Fatal("identical circuits reported different")
	}
	swapFirstNandForNor(b)
	if EquivalentRandom(a, b, 8, 10, 1) {
		t.Fatal("mutated circuit reported equivalent")
	}
}

func TestEquivalentExhaustiveSmall(t *testing.T) {
	// Two equivalent implementations of XOR.
	a := circuit.New("a")
	x := a.AddInput("x")
	y := a.AddInput("y")
	a.MarkOutput(a.AddGate(circuit.Xor, "", x, y))

	b := circuit.New("b")
	x2 := b.AddInput("x")
	y2 := b.AddInput("y")
	nx := b.AddGate(circuit.Not, "", x2)
	ny := b.AddGate(circuit.Not, "", y2)
	t1 := b.AddGate(circuit.And, "", x2, ny)
	t2 := b.AddGate(circuit.And, "", nx, y2)
	b.MarkOutput(b.AddGate(circuit.Or, "", t1, t2))

	if !EquivalentRandom(a, b, 1, 10, 1) {
		t.Fatal("XOR implementations reported different")
	}
}

func TestEquivalentMismatchedInterfaces(t *testing.T) {
	a := circuit.New("a")
	a.MarkOutput(a.AddGate(circuit.Const1, ""))
	b := circuit.New("b")
	b.AddInput("x")
	b.MarkOutput(b.AddGate(circuit.Const1, ""))
	if EquivalentRandom(a, b, 1, 10, 1) {
		t.Fatal("different interfaces reported equivalent")
	}
}

// Exhaustive check exercises the tail-mask path (n=7 gives 128 patterns = 2
// words exactly; n=3 gives a partial word).
func TestEquivalentExhaustiveTailMask(t *testing.T) {
	mk := func() *circuit.Circuit {
		c := circuit.New("m")
		var ins []int
		for i := 0; i < 3; i++ {
			ins = append(ins, c.AddInput(string(rune('a'+i))))
		}
		g := c.AddGate(circuit.And, "", ins...)
		c.MarkOutput(g)
		return c
	}
	if !EquivalentRandom(mk(), mk(), 1, 10, 1) {
		t.Fatal("3-input AND pair reported different")
	}
}

func TestRandomPatternsAndOutputs(t *testing.T) {
	c, _ := bench.ParseString(bench.C17, "c17")
	s := New(c)
	rng := rand.New(rand.NewSource(3))
	s.RandomPatterns(rng)
	s.Run()
	out := s.Outputs(nil)
	if len(out) != 2 {
		t.Fatalf("outputs = %d", len(out))
	}
	// Reusing a destination slice works too.
	dst := make([]uint64, 2)
	got := s.Outputs(dst)
	if &got[0] != &dst[0] {
		t.Fatal("destination not reused")
	}
	if got[0] != out[0] || got[1] != out[1] {
		t.Fatal("outputs differ between calls")
	}
}

func TestEquivalentRandomLargeInputPath(t *testing.T) {
	// Above maxExhaustive the random path runs; equal circuits stay equal
	// and a mutation is still caught with high probability.
	p := gen.Params{Name: "r", Inputs: 18, Outputs: 6, Gates: 80, Layers: 6,
		MaxFanin: 3, Locality: 0.7, Seed: 12}
	a := gen.Random(p)
	b := gen.Random(p)
	if !EquivalentRandom(a, b, 16, 8, 5) {
		t.Fatal("identical large circuits reported different")
	}
	swapFirstNandForNor(b)
	if EquivalentRandom(a, b, 16, 8, 5) {
		t.Fatal("mutated large circuit reported equivalent")
	}
}

func TestEquivalentExhaustiveSevenInputs(t *testing.T) {
	// n=7 crosses the 64-pattern word boundary (exactly 2 words).
	mk := func(mut bool) *circuit.Circuit {
		c := circuit.New("seven")
		var ins []int
		for i := 0; i < 7; i++ {
			ins = append(ins, c.AddInput(string(rune('a'+i))))
		}
		g1 := c.AddGate(circuit.And, "", ins[0], ins[1], ins[2])
		g2 := c.AddGate(circuit.Or, "", ins[3], ins[4])
		g3 := c.AddGate(circuit.Xor, "", g1, g2, ins[5])
		t := circuit.Nand
		if mut {
			t = circuit.Nor
		}
		g4 := c.AddGate(t, "", g3, ins[6])
		c.MarkOutput(g4)
		return c
	}
	if !EquivalentRandom(mk(false), mk(false), 1, 10, 1) {
		t.Fatal("equal 7-input circuits reported different")
	}
	if EquivalentRandom(mk(false), mk(true), 1, 10, 1) {
		t.Fatal("different 7-input circuits reported equivalent")
	}
}
