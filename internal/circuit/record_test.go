package circuit

import (
	"slices"
	"testing"
)

// Tests of the edit recorder (record.go), the circuit's journal of edits.

func TestJournalRecordsEdits(t *testing.T) {
	c := New("j")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g := c.AddGate(And, "g", a, b)
	h := c.AddGate(Or, "h", g, b)
	c.MarkOutput(h)

	gen := c.Gen()
	if got := c.TouchedSince(gen, nil); len(got) != 0 {
		t.Fatalf("nothing edited since the current generation, got %v", got)
	}

	c.SetFanin(h, 0, a)
	got := c.TouchedSince(gen, nil)
	if !slices.Contains(got, h) || !slices.Contains(got, a) {
		t.Fatalf("SetFanin missing endpoints: %v", got)
	}

	// g lost its last consumer; SweepDead must record it.
	gen = c.Gen()
	c.SweepDead()
	if got := c.TouchedSince(gen, nil); !slices.Contains(got, g) {
		t.Fatalf("SweepDead missing removed node: %v", got)
	}

	gen = c.Gen()
	k := c.AddGate(Nand, "k", a, b)
	c.ReplaceUses(h, k)
	got = c.TouchedSince(gen, nil)
	if !slices.Contains(got, k) || !slices.Contains(got, h) {
		t.Fatalf("AddGate+ReplaceUses incomplete: %v", got)
	}
	if !slices.IsSorted(got) {
		t.Fatalf("TouchedSince not ascending: %v", got)
	}
}

func TestJournalCoversSimplify(t *testing.T) {
	c := New("s")
	a := c.AddInput("a")
	one := c.AddGate(Const1, "one")
	g := c.AddGate(And, "g", a, one) // AND with identity constant: pin dropped
	h := c.AddGate(And, "h", g, g)   // duplicate fanin, then 1-input -> Buf
	c.MarkOutput(h)

	gen := c.Gen()
	c.Simplify()
	got := c.TouchedSince(gen, nil)
	if !slices.Contains(got, g) {
		t.Fatalf("Simplify missing rewritten gate g: %v", got)
	}
	if !slices.Contains(got, h) {
		t.Fatalf("Simplify missing rewritten gate h: %v", got)
	}
}

// TestJournalOffByDefault: only edits record. A new circuit starts at
// generation 0; reads — TouchedSince, Freeze — neither advance the generation
// nor touch a node; a clone starts with nothing recorded.
func TestJournalOffByDefault(t *testing.T) {
	c := New("off")
	if g := c.Gen(); g != 0 {
		t.Fatalf("new circuit at generation %d, want 0", g)
	}
	a := c.AddInput("a")
	g := c.AddGate(Not, "g", a)
	c.MarkOutput(g)

	gen := c.Gen()
	c.TouchedSince(0, nil)
	c.Freeze()
	if c.Gen() != gen {
		t.Fatalf("reads advanced the generation: %d -> %d", gen, c.Gen())
	}
	if got := c.TouchedSince(gen, nil); len(got) != 0 {
		t.Fatalf("reads touched nodes: %v", got)
	}

	cl := c.Clone()
	if cl.Gen() != 0 {
		t.Fatalf("clone at generation %d, want 0", cl.Gen())
	}
	if got := cl.TouchedSince(0, nil); len(got) != 0 {
		t.Fatalf("clone records edits it never made: %v", got)
	}
}
