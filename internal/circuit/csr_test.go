package circuit

import (
	"fmt"
	"slices"
	"testing"
)

// refFreeze builds a reference view into fresh storage, bypassing the
// circuit's cached view and its retained arrays.
func refFreeze(c *Circuit) *CSR {
	ref := &CSR{}
	lv := make([]int32, len(c.Nodes))
	csrLevels(c, lv)
	repackCSR(ref, c, lv)
	return ref
}

// mustMatchRef freezes c and fails the test unless the view is
// array-for-array identical to a build into fresh storage, and unless
// Check's csr_stale audit agrees. An edit that changed the netlist without
// marking the view stale would have Freeze return the old view, which
// diverges here.
func mustMatchRef(t *testing.T, c *Circuit, step string) *CSR {
	t.Helper()
	v := c.Freeze()
	if err := csrEqual(v, refFreeze(c)); err != nil {
		t.Fatalf("%s: frozen CSR diverges from reference: %v", step, err)
	}
	if err := CheckWith(c, CheckOptions{AllowUnreachable: true}); err != nil {
		t.Fatalf("%s: Check after Freeze: %v", step, err)
	}
	return v
}

func buildCSRTestCircuit() *Circuit {
	c := New("csrtest")
	a := c.AddInput("a")
	b := c.AddInput("b")
	ci := c.AddInput("cin")
	x1 := c.AddGate(Xor, "x1", a, b)
	s := c.AddGate(Xor, "sum", x1, ci)
	a1 := c.AddGate(And, "a1", a, b)
	a2 := c.AddGate(And, "a2", x1, ci)
	co := c.AddGate(Or, "cout", a1, a2)
	c.MarkOutput(s)
	c.MarkOutput(co)
	return c
}

func TestCSRBasicShape(t *testing.T) {
	c := buildCSRTestCircuit()
	v := c.Freeze()
	if v.N() != c.NumLive() {
		t.Fatalf("N() = %d, want %d", v.N(), c.NumLive())
	}
	if len(v.In) != len(c.Inputs) || len(v.Out) != len(c.Outputs) {
		t.Fatalf("In/Out sizes %d/%d, want %d/%d", len(v.In), len(v.Out), len(c.Inputs), len(c.Outputs))
	}
	// Dense order must be a valid topological order: every fanin dense id is
	// smaller than its consumer's.
	for d := int32(0); int(d) < v.N(); d++ {
		for _, f := range v.FaninOf(d) {
			if f >= d {
				t.Fatalf("dense order not topological: fanin %d of node %d", f, d)
			}
		}
	}
	// Level-major: levels are non-decreasing in dense order, ids ascend
	// within a level.
	for d := 1; d < v.N(); d++ {
		if v.Level[d] < v.Level[d-1] {
			t.Fatalf("levels not sorted at dense %d", d)
		}
		if v.Level[d] == v.Level[d-1] && v.NodeID[d] <= v.NodeID[d-1] {
			t.Fatalf("ids not ascending within level at dense %d", d)
		}
	}
	// Round trip dense <-> sparse.
	for d := 0; d < v.N(); d++ {
		if v.DenseOf[v.NodeID[d]] != int32(d) {
			t.Fatalf("DenseOf(NodeID[%d]) = %d", d, v.DenseOf[v.NodeID[d]])
		}
	}
	// Fanout is the transpose of fanin.
	for d := int32(0); int(d) < v.N(); d++ {
		for _, f := range v.FaninOf(d) {
			found := false
			for _, o := range v.FanoutOf(f) {
				if o == d {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("fanout of %d missing consumer %d", f, d)
			}
		}
	}
	// Each level meets its definition: 0 without fanin, else one above the
	// deepest fanin.
	for d := int32(0); int(d) < v.N(); d++ {
		want := int32(0)
		for _, f := range v.FaninOf(d) {
			want = max(want, v.Level[f]+1)
		}
		if v.Level[d] != want {
			t.Fatalf("level of node %d: %d, want %d", v.NodeID[d], v.Level[d], want)
		}
	}
}

func TestFreezeCachesUntilMutation(t *testing.T) {
	c := buildCSRTestCircuit()
	v1 := c.Freeze()
	if v2 := c.Freeze(); v2 != v1 {
		t.Fatal("Freeze without mutation returned a new view")
	}
	// Read-only derived-state calls must not age the view.
	c.Topo()
	c.Depth()
	if v2 := c.Freeze(); v2 != v1 {
		t.Fatal("cache queries aged the frozen view")
	}
	g := v1.gen
	c.Rename(c.NodeByName("x1"), "x1r")
	if v1.gen != g {
		t.Fatal("old view's generation changed")
	}
	v3 := c.Freeze()
	if v3.gen == g {
		t.Fatal("rename did not advance the generation")
	}
	if v3.Name[v3.DenseOf[c.NodeByName("x1r")]] != "x1r" {
		t.Fatal("rename not reflected in refrozen view")
	}
}

// TestCSRMutatorSequence drives every mutator through a freeze-after-each-
// edit sequence and requires the view to equal a fresh build at every step:
// every edit must mark the view stale, so Freeze rebuilds it.
func TestCSRMutatorSequence(t *testing.T) {
	c := buildCSRTestCircuit()
	mustMatchRef(t, c, "initial")

	d := c.AddInput("d")
	mustMatchRef(t, c, "AddInput")

	n1 := c.AddGate(Nand, "n1", d, c.NodeByName("x1"))
	mustMatchRef(t, c, "AddGate")

	c.MarkOutput(n1)
	mustMatchRef(t, c, "MarkOutput")

	c.SetFanin(n1, 0, c.NodeByName("a1"))
	mustMatchRef(t, c, "SetFanin")

	c.AddFaninFront(n1, d)
	mustMatchRef(t, c, "AddFaninFront")

	if !c.Rename(n1, "n1r") {
		t.Fatal("Rename failed")
	}
	mustMatchRef(t, c, "Rename")

	// Splice a gate between x1 and its consumers.
	buf := c.AddGate(Buf, "x1buf", c.NodeByName("x1"))
	mustMatchRef(t, c, "AddGate buf")
	for _, id := range append([]int(nil), c.Fanouts(c.NodeByName("x1"))...) {
		if id == buf {
			continue
		}
		nd := c.Nodes[id]
		for pin, f := range nd.Fanin {
			if f == c.NodeByName("x1") {
				c.SetFanin(id, pin, buf)
			}
		}
		mustMatchRef(t, c, fmt.Sprintf("rewire consumer %d", id))
	}

	k := c.AddGate(And, "island", d, d)
	mustMatchRef(t, c, "AddGate island")
	c.Kill(k)
	mustMatchRef(t, c, "Kill")

	c.SetConstant(c.NodeByName("a2"), false)
	mustMatchRef(t, c, "SetConstant")

	c.Simplify()
	mustMatchRef(t, c, "Simplify")

	c.Strash()
	mustMatchRef(t, c, "Strash")

	rep := c.NodeByName("a1")
	tgt := c.NodeByName("sum")
	if rep >= 0 && tgt >= 0 && rep != tgt {
		c.ReplaceUses(rep, tgt)
		mustMatchRef(t, c, "ReplaceUses")
		c.SweepDead()
		mustMatchRef(t, c, "SweepDead")
	}

	cc, _ := c.Compact()
	mustMatchRef(t, cc, "Compact")
}

// TestTouchedSinceSurvivesFreeze: a holder of an older generation
// (resynthesis pass state) must still see every edit after a Freeze in
// between has rebuilt the view — a list that Freeze reset on read would
// lose the first edit here — and each edit must still mark the view stale.
func TestTouchedSinceSurvivesFreeze(t *testing.T) {
	c := buildCSRTestCircuit()
	mustMatchRef(t, c, "initial")
	a2, a1 := c.NodeByName("a2"), c.NodeByName("a1")
	gen := c.Gen()
	c.SetFanin(a2, 0, c.NodeByName("a"))
	mustMatchRef(t, c, "first edit")
	c.SetFanin(a1, 1, c.NodeByName("cin"))
	got := c.TouchedSince(gen, nil)
	if !slices.Contains(got, a2) || !slices.Contains(got, a1) {
		t.Fatalf("TouchedSince(%d) = %v, want both edited gates", gen, got)
	}
	mustMatchRef(t, c, "second edit")
}

// TestCSRChurnMatchesRef: many edits between two freezes, 10x the node
// count, touching the same few nodes over and over, still leave the view
// stale, and the rebuild equals the reference view.
func TestCSRChurnMatchesRef(t *testing.T) {
	c := buildCSRTestCircuit()
	c.Freeze()
	a2 := c.NodeByName("a2")
	x1 := c.NodeByName("x1")
	ci := c.NodeByName("cin")
	for i := 0; i < 10*len(c.Nodes); i++ {
		if i%2 == 0 {
			c.SetFanin(a2, 0, ci)
		} else {
			c.SetFanin(a2, 0, x1)
		}
	}
	mustMatchRef(t, c, "post-churn")
}

func TestCheckCatchesCorruptedCSR(t *testing.T) {
	c := buildCSRTestCircuit()
	v := c.Freeze()
	if err := Check(c); err != nil {
		t.Fatalf("clean circuit: %v", err)
	}
	v.Kind[v.DenseOf[c.NodeByName("a1")]] = Or // corrupt the frozen view
	err := Check(c)
	if err == nil {
		t.Fatal("Check accepted a corrupted current-generation view")
	}
	c.fz.view = nil
	if err := Check(c); err != nil {
		t.Fatalf("dropping the view did not clear the corruption: %v", err)
	}
	// A view merely behind the circuit is not an error.
	c.Freeze()
	c.Rename(c.NodeByName("a1"), "a1r")
	if err := Check(c); err != nil {
		t.Fatalf("stale-but-honest view rejected: %v", err)
	}
	// A view claiming a future generation is always an error.
	c2 := buildCSRTestCircuit()
	c2.Freeze().gen = c2.gen + 1
	if err := Check(c2); err == nil {
		t.Fatal("Check accepted a view from the future")
	}
}

func TestCloneDoesNotShareFrozenView(t *testing.T) {
	c := buildCSRTestCircuit()
	v := c.Freeze()
	cp := c.Clone()
	v2 := cp.Freeze()
	if v2 == v {
		t.Fatal("clone shares the original's frozen view")
	}
	if err := csrEqual(v, v2); err != nil {
		t.Fatalf("clone's view differs: %v", err)
	}
	cp.SetConstant(cp.NodeByName("a1"), true)
	if err := Check(c); err != nil {
		t.Fatalf("mutating the clone corrupted the original: %v", err)
	}
}

// BenchmarkCSRRebuild times the rebuild after a local edit: a wide layered
// circuit, one output gate's pin swapped between two deep nodes, then
// Freeze, which relevels the whole circuit and repacks into the view's
// retained storage without allocating.
func BenchmarkCSRRebuild(b *testing.B) {
	c := buildWideCircuit(64, 40)
	c.Freeze()
	tgt := c.Outputs[0]
	pin := c.Nodes[tgt].Fanin[0]
	alt := c.Nodes[c.Outputs[1]].Fanin[0]
	// Warm-up cycle: the first rebuilds pay one-time costs (scratch
	// growth) that would distort per-op numbers at the low -benchtime the
	// CI gate uses.
	c.SetFanin(tgt, 0, alt)
	c.Freeze()
	c.SetFanin(tgt, 0, pin)
	c.Freeze()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			c.SetFanin(tgt, 0, pin)
		} else {
			c.SetFanin(tgt, 0, alt)
		}
		c.Freeze()
	}
}

// BenchmarkCSRFullRebuild times a build into fresh storage: the view is
// dropped before each Freeze, so every array is allocated anew.
func BenchmarkCSRFullRebuild(b *testing.B) {
	c := buildWideCircuit(64, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.fz.view = nil
		c.Freeze()
	}
}

func buildWideCircuit(width, depth int) *Circuit {
	c := New("bench")
	prev := make([]int, 0, width)
	for i := 0; i < width; i++ {
		prev = append(prev, c.AddInput(fmt.Sprintf("i%d", i)))
	}
	for l := 0; l < depth; l++ {
		cur := make([]int, 0, width)
		for g := 0; g < width; g++ {
			t := And
			if g%3 == 1 {
				t = Or
			} else if g%3 == 2 {
				t = Xor
			}
			cur = append(cur, c.AddGate(t, "", prev[g], prev[(g+7)%width]))
		}
		prev = cur
	}
	for _, id := range prev {
		c.MarkOutput(id)
	}
	return c
}
