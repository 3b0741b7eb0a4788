package circuit

import (
	"testing"
	"time"
)

func TestRename(t *testing.T) {
	c := New("t")
	a := c.AddInput("a")
	g := c.AddGate(Not, "g", a)
	c.MarkOutput(g)
	if !c.Rename(g, "out") {
		t.Fatal("rename failed")
	}
	if c.NodeByName("out") != g || c.NodeByName("g") >= 0 {
		t.Fatal("name map stale after rename")
	}
	// Renaming to an existing other name fails.
	if c.Rename(g, "a") {
		t.Fatal("rename onto existing name succeeded")
	}
	// Renaming to own name is a no-op success.
	if !c.Rename(g, "out") {
		t.Fatal("self-rename failed")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPreservePONames(t *testing.T) {
	c := New("t")
	a := c.AddInput("a")
	g1 := c.AddGate(Not, "f", a)
	c.MarkOutput(g1)
	names := c.PONames()
	// Replace the PO driver by new logic.
	g2 := c.AddGate(Buf, "tmp", a)
	c.ReplaceUses(g1, g2)
	c.SweepDead()
	c.PreservePONames(names)
	if got := c.Nodes[c.Outputs[0]].Name; got != "f" {
		t.Fatalf("PO name = %q, want f", got)
	}
}

func TestSetFanin(t *testing.T) {
	c := New("t")
	a := c.AddInput("a")
	b := c.AddInput("b")
	d := c.AddInput("d")
	g := c.AddGate(And, "", a, b)
	c.MarkOutput(g)
	c.SetFanin(g, 1, d)
	if got := c.Eval([]bool{true, false, true})[0]; !got {
		t.Fatal("SetFanin did not rewire")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddFaninFront(t *testing.T) {
	c := New("t")
	a := c.AddInput("a")
	b := c.AddInput("b")
	d := c.AddInput("d")
	g := c.AddGate(And, "", a, b)
	c.MarkOutput(g)
	c.AddFaninFront(g, d)
	if len(c.Nodes[g].Fanin) != 3 || c.Nodes[g].Fanin[0] != d {
		t.Fatalf("fanin = %v", c.Nodes[g].Fanin)
	}
	if got := c.Eval([]bool{true, true, false})[0]; got {
		t.Fatal("new fanin not effective")
	}
}

func TestSweepDeadKeepsSharedLogic(t *testing.T) {
	c := New("t")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g1 := c.AddGate(And, "", a, b)
	g2 := c.AddGate(Not, "", g1)
	g3 := c.AddGate(Or, "", g1, a)
	c.MarkOutput(g3)
	// g2 is dead, g1 is shared and must stay.
	if n := c.SweepDead(); n != 1 {
		t.Fatalf("swept %d nodes, want 1", n)
	}
	if !c.Alive(g1) || c.Alive(g2) {
		t.Fatal("wrong nodes swept")
	}
}

// TestKillRemovesOnlyUnusedLogic: Kill leaves inputs, PO drivers and gates
// with a consumer in place, and removes an unused gate together with each
// fanin whose last use it held.
func TestKillRemovesOnlyUnusedLogic(t *testing.T) {
	c := New("t")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g := c.AddGate(Not, "", a)
	c.MarkOutput(g)
	shared := c.AddGate(And, "", a, b)
	user := c.AddGate(Or, "", shared, g)
	c.MarkOutput(user)
	n1 := c.AddGate(Nand, "", b, b)
	n2 := c.AddGate(Xor, "", n1, shared, n1)
	for _, id := range []int{a, g, shared, n1} {
		if n := c.Kill(id); n != 0 || !c.Alive(id) {
			t.Fatalf("Kill(%s) removed %d nodes", c.Nodes[id].Name, n)
		}
	}
	if n := c.Kill(n2); n != 2 || c.Alive(n2) || c.Alive(n1) || !c.Alive(shared) || !c.Alive(b) {
		t.Fatalf("Kill(n2) removed %d nodes, want n2 and n1", n)
	}
	if err := Check(c); err != nil {
		t.Fatal(err)
	}
	if n := c.SweepDead(); n != 0 {
		t.Fatalf("SweepDead after Kill removed %d nodes", n)
	}
}

func TestSimplifyNestedBuffers(t *testing.T) {
	c := New("t")
	a := c.AddInput("a")
	b1 := c.AddGate(Buf, "", a)
	b2 := c.AddGate(Buf, "", b1)
	b3 := c.AddGate(Buf, "", b2)
	c.MarkOutput(b3)
	c.Simplify()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, v := range []bool{false, true} {
		if c.Eval([]bool{v})[0] != v {
			t.Fatal("buffer chain broken")
		}
	}
	// At most the PO buffer remains.
	if c.NumGates() > 1 {
		t.Fatalf("%d gates remain after simplifying buffer chain", c.NumGates())
	}
}

func TestSimplifyTerminates(t *testing.T) {
	// Regression: a dead buffer must not keep Simplify spinning.
	c := New("t")
	a := c.AddInput("a")
	buf := c.AddGate(Buf, "", a)
	g := c.AddGate(Not, "", a)
	_ = buf
	c.MarkOutput(g)
	done := make(chan struct{})
	go func() {
		c.Simplify()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Simplify did not terminate")
	}
}

// TestEditCostIndependentOfSize pins that an edit costs what it touches:
// rewiring a node's uses, sweeping what that leaves unused and reading the
// PO-use and live counts allocate the same on a circuit 100 times larger,
// where a whole-circuit scan or rebuild would grow with it.
func TestEditCostIndependentOfSize(t *testing.T) {
	const runs = 50
	allocs := func(bulk int) float64 {
		c := New("t")
		a := c.AddInput("a")
		b := c.AddInput("b")
		// Unrelated logic that only sets the circuit's size.
		prev := c.AddInput("z")
		for i := 0; i < bulk; i++ {
			prev = c.AddGate(Not, "", prev)
		}
		c.MarkOutput(prev)
		// The edit site: cur and its private fanin t die at each edit, and
		// the next spare takes over cur's two consumers and PO designation.
		mk := func() int { return c.AddGate(Xor, "", c.AddGate(And, "", a, b), b) }
		cur := mk()
		c.MarkOutput(cur)
		c.MarkOutput(c.AddGate(And, "", cur, a))
		c.MarkOutput(c.AddGate(Or, "", cur, b))
		spares := make([]int, runs+1)
		for i := range spares {
			spares[i] = mk()
		}
		live := c.NumLive()
		next := 0
		n := testing.AllocsPerRun(runs, func() {
			s := spares[next]
			next++
			if c.ReplaceUses(cur, s) != 3 || c.Kill(cur) != 2 || c.NumPOUses(s) != 1 {
				t.Fatal("edit did not move three uses and kill two nodes")
			}
			live -= 2
			if c.NumLive() != live {
				t.Fatalf("NumLive = %d, want %d", c.NumLive(), live)
			}
			cur = s
		})
		if err := Check(c); err != nil {
			t.Fatal(err)
		}
		return n
	}
	small, large := allocs(1000), allocs(100000)
	if small != large {
		t.Fatalf("an edit allocates %v times on 1e3 nodes and %v on 1e5", small, large)
	}
}
