package circuit

import (
	"strings"
	"testing"
)

// Internal corruption tests: Check must catch a mutator that forgot to
// maintain the unexported derived state (name index, topo order, levels).
// The corruption here pokes the caches directly, simulating such a bug.

func buildInternal() *Circuit {
	c := New("internal")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g := c.AddGate(And, "g", a, b)
	o := c.AddGate(Or, "o", g, b)
	c.MarkOutput(o)
	return c
}

func TestCheckStaleNameIndex(t *testing.T) {
	c := buildInternal()
	c.byName["g"] = 0 // g is not node 0
	err := Check(c)
	if err == nil || !strings.Contains(err.Error(), "name index stale") {
		t.Fatalf("stale name index not caught: %v", err)
	}
}

func TestCheckStaleTopoCache(t *testing.T) {
	c := buildInternal()
	c.Topo() // warm the cache
	c.topoCache = c.topoCache[:len(c.topoCache)-1]
	err := Check(c)
	if err == nil || !strings.Contains(err.Error(), "stale topo cache") {
		t.Fatalf("truncated topo cache not caught: %v", err)
	}

	c = buildInternal()
	c.Topo()
	// Swap a producer after its consumer.
	last := len(c.topoCache) - 1
	c.topoCache[last], c.topoCache[last-1] = c.topoCache[last-1], c.topoCache[last]
	err = Check(c)
	if err == nil || !strings.Contains(err.Error(), "stale topo cache") {
		t.Fatalf("misordered topo cache not caught: %v", err)
	}
}

// TestCheckAfterMutators runs the real mutator sequence resynthesis uses and
// verifies Check stays green at every step: the mutators themselves must
// maintain every invariant Check audits.
func TestCheckAfterMutators(t *testing.T) {
	c := buildInternal()
	step := func(label string) {
		t.Helper()
		if err := CheckWith(c, CheckOptions{AllowUnreachable: true}); err != nil {
			t.Fatalf("after %s: %v", label, err)
		}
	}
	step("build")
	n := c.AddGate(Nand, "n", c.NodeByName("a"), c.NodeByName("b"))
	step("AddGate")
	c.ReplaceUses(c.NodeByName("g"), n)
	step("ReplaceUses")
	c.SetFanin(c.NodeByName("o"), 1, c.NodeByName("a"))
	step("SetFanin")
	c.SweepDead()
	step("SweepDead")
	c.Simplify()
	step("Simplify")
	cc, _ := c.Compact()
	if err := Check(cc); err != nil {
		t.Fatalf("after Compact: %v", err)
	}
}

// TestCheckStaleUseCounts: Check recounts the fanout lists, PO-use counts
// and live count that every mutator maintains, so a mutator that forgot one
// of them is caught even when the netlist itself is sound.
func TestCheckStaleUseCounts(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(c *Circuit)
		want    string
	}{
		{"fanout order", func(c *Circuit) {
			fo := c.Nodes[c.NodeByName("b")].fanout
			fo[0], fo[1] = fo[1], fo[0]
		}, "stale fanout list"},
		{"po uses", func(c *Circuit) { c.Nodes[c.NodeByName("g")].poUses++ }, "stale primary-output use count"},
		{"live count", func(c *Circuit) { c.live-- }, "stale live count"},
	} {
		c := buildInternal()
		tc.corrupt(c)
		if err := Check(c); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Check = %v, want %q", tc.name, err, tc.want)
		}
	}
}
