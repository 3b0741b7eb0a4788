package gen

import (
	"testing"

	"compsynth/internal/circuit"
	"compsynth/internal/paths"
	"compsynth/internal/simulate"
)

func TestRandomValidAndDeterministic(t *testing.T) {
	p := Params{Name: "r", Inputs: 10, Outputs: 6, Gates: 80,
		Layers: 8, MaxFanin: 3, Locality: 0.7, InvProb: 0.2, Seed: 5}
	a := Random(p)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(a.Inputs) != 10 || len(a.Outputs) != 6 {
		t.Fatalf("interface: %v", a.Stats())
	}
	b := Random(p)
	if !simulate.EquivalentRandom(a, b, 16, 12, 1) {
		t.Fatal("same seed produced different circuits")
	}
	p.Seed = 6
	cOther := Random(p)
	if simulate.EquivalentRandom(a, cOther, 16, 12, 1) {
		t.Fatal("different seeds produced identical functions (suspicious)")
	}
}

func TestRandomAllGatesLive(t *testing.T) {
	c := Random(Params{Name: "r", Inputs: 8, Outputs: 4, Gates: 60,
		Layers: 8, MaxFanin: 3, Locality: 0.8, Seed: 9})
	// After sweep+compact every non-PO gate must have fanout.
	po := map[int]bool{}
	for _, o := range c.Outputs {
		po[o] = true
	}
	for _, nd := range c.Nodes {
		if nd == nil || !c.Alive(nd.ID) {
			continue
		}
		if nd.Type != circuit.Input && len(c.Fanouts(nd.ID)) == 0 && !po[nd.ID] {
			t.Fatalf("dangling gate %s", nd.Name)
		}
	}
}

func TestSuiteShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("suite generation in -short mode")
	}
	for _, b := range Suite(0.25) {
		c := b.Build()
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if c.Equiv2Count() < 20 {
			t.Fatalf("%s: degenerate size %d", b.Name, c.Equiv2Count())
		}
		if _, err := paths.Count(c); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
	}
}

func TestMacroInjection(t *testing.T) {
	p := Params{Name: "m", Inputs: 12, Outputs: 8, Gates: 150, Layers: 8,
		MaxFanin: 3, Locality: 0.7, InvProb: 0.1, MacroProb: 0.3, Seed: 21}
	c := Random(p)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Macros produce multi-input AND/OR cones; verify some wide gate exists.
	wide := false
	for _, nd := range c.Nodes {
		if nd != nil && c.Alive(nd.ID) && len(nd.Fanin) >= 3 {
			wide = true
		}
	}
	if !wide {
		t.Fatal("no macro cones generated at MacroProb=0.3")
	}
	// Determinism still holds with macros.
	d := Random(p)
	if !simulate.EquivalentRandom(c, d, 16, 12, 1) {
		t.Fatal("macro generation not deterministic")
	}
}

func TestSmallSuite(t *testing.T) {
	for _, b := range SmallSuite() {
		c := b.Build()
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if paths.MustCount(c) < 10 {
			t.Fatalf("%s: too few paths", b.Name)
		}
	}
}
