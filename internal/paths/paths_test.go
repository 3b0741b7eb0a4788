package paths

import (
	"fmt"
	"math/big"
	"testing"
	"testing/quick"

	"compsynth/internal/bench"
	"compsynth/internal/circuit"
	"compsynth/internal/gen"
)

func mustParse(t *testing.T, src, name string) *circuit.Circuit {
	t.Helper()
	c, err := bench.ParseString(src, name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCountChain(t *testing.T) {
	// a -> NOT -> NOT -> o : exactly one path.
	c := circuit.New("chain")
	a := c.AddInput("a")
	g1 := c.AddGate(circuit.Not, "", a)
	g2 := c.AddGate(circuit.Not, "", g1)
	c.MarkOutput(g2)
	if n := MustCount(c); n != 1 {
		t.Fatalf("chain paths = %d, want 1", n)
	}
}

func TestCountReconvergence(t *testing.T) {
	// a fans out to two gates that reconverge: 2 paths from a, 1 from b, 1
	// from d; total at output = 2+1+1 = 4? Structure:
	// g1 = AND(a,b); g2 = OR(a,d); o = AND(g1,g2).
	c := circuit.New("reconv")
	a := c.AddInput("a")
	b := c.AddInput("b")
	d := c.AddInput("d")
	g1 := c.AddGate(circuit.And, "", a, b)
	g2 := c.AddGate(circuit.Or, "", a, d)
	o := c.AddGate(circuit.And, "", g1, g2)
	c.MarkOutput(o)
	if n := MustCount(c); n != 4 {
		t.Fatalf("reconv paths = %d, want 4", n)
	}
}

func TestCountC17(t *testing.T) {
	c := mustParse(t, bench.C17, "c17")
	// Hand count: Np(10)=2, Np(11)=2, Np(16)=3, Np(19)=3,
	// Np(22)=2+3=5, Np(23)=3+3=6, total=11.
	if n := MustCount(c); n != 11 {
		t.Fatalf("c17 paths = %d, want 11", n)
	}
}

func TestPaperExampleKp(t *testing.T) {
	// Section 2 example: f_{1,1} = x1'x2x4 + x1x2'x3' + x2x3'x4 as a
	// two-level circuit. K_p(x_i) equals the number of literal occurrences
	// of x_i: 2, 3, 2, 2. We verify both the K_p mechanism (the paths
	// through each input, whose label is 1) and that the output label is
	// sum of K_p under unit PI labels.
	c := circuit.New("f11")
	x1 := c.AddInput("x1")
	x2 := c.AddInput("x2")
	x3 := c.AddInput("x3")
	x4 := c.AddInput("x4")
	n1 := c.AddGate(circuit.Not, "", x1)
	n2 := c.AddGate(circuit.Not, "", x2)
	n3 := c.AddGate(circuit.Not, "", x3)
	p1 := c.AddGate(circuit.And, "", n1, x2, x4)
	p2 := c.AddGate(circuit.And, "", x1, n2, n3)
	p3 := c.AddGate(circuit.And, "", x2, n3, x4)
	o := c.AddGate(circuit.Or, "", p1, p2, p3)
	c.MarkOutput(o)
	np, ok := Labels(c)
	if !ok {
		t.Fatal("overflow")
	}
	// Kp per input = number of literal occurrences: x1:2 x2:3 x3:2 x4:2.
	if np[o] != 2+3+2+2 {
		t.Fatalf("Np(out) = %d, want 9 (unit PI labels)", np[o])
	}
	for i, want := range []int64{2, 3, 2, 2} {
		if got := Through(c, c.Inputs[i]); got.Cmp(big.NewInt(want)) != 0 {
			t.Fatalf("Kp(x%d) = %v, want %d", i+1, got, want)
		}
	}
}

// TestThroughPast64Bits: on a 70-stage ladder x_i = AND(x_{i-1}, y_{i-1}),
// y_i = OR(x_{i-1}, y_{i-1}) with output x70, which has 2^70 paths, 2^69 of
// them pass through x35 (2^35 paths in, 2^34 out) and through x69 (2^69
// in, one out). Neither label nor weight alone overflows at x35, but their
// product does.
func TestThroughPast64Bits(t *testing.T) {
	c := circuit.New("ladder70")
	x, y := c.AddInput("x0"), c.AddInput("y0")
	for i := 1; i <= 70; i++ {
		x, y = c.AddGate(circuit.And, fmt.Sprintf("x%d", i), x, y), c.AddGate(circuit.Or, fmt.Sprintf("y%d", i), x, y)
	}
	c.MarkOutput(x)
	if got, want := CountBig(c), new(big.Int).Lsh(big.NewInt(1), 70); got.Cmp(want) != 0 {
		t.Fatalf("CountBig = %v, want 2^70", got)
	}
	want := new(big.Int).Lsh(big.NewInt(1), 69)
	for _, name := range []string{"x35", "x69"} {
		if got := Through(c, c.NodeByName(name)); got.Cmp(want) != 0 {
			t.Errorf("Through(%s) = %v, want 2^69 = %v", name, got, want)
		}
	}
}

func TestBigMatchesUint64(t *testing.T) {
	c := mustParse(t, bench.C17, "c17")
	b := CountBig(c)
	if b.Cmp(big.NewInt(11)) != 0 {
		t.Fatalf("big count = %v", b)
	}
}

func TestOverflowDetection(t *testing.T) {
	// Chain of doubling gates: 70 stages of XOR(x,x) doubles Np each stage,
	// exceeding 2^64.
	c := circuit.New("boom")
	prev := c.AddInput("a")
	for i := 0; i < 70; i++ {
		prev = c.AddGate(circuit.Xor, "", prev, prev)
	}
	c.MarkOutput(prev)
	if _, err := Count(c); err == nil {
		t.Fatal("expected overflow")
	}
	want := new(big.Int).Lsh(big.NewInt(1), 70)
	if got := CountBig(c); got.Cmp(want) != 0 {
		t.Fatalf("big count = %v, want 2^70", got)
	}
}

func TestConstantsStartNoPaths(t *testing.T) {
	c := circuit.New("k")
	a := c.AddInput("a")
	one := c.AddGate(circuit.Const1, "")
	g := c.AddGate(circuit.And, "", a, one)
	c.MarkOutput(g)
	if n := MustCount(c); n != 1 {
		t.Fatalf("const contributes paths: %d", n)
	}
}

func TestMultiplePODesignations(t *testing.T) {
	// The same line designated as two outputs counts twice (two PO lines).
	c := circuit.New("dup")
	a := c.AddInput("a")
	g := c.AddGate(circuit.Not, "", a)
	c.MarkOutput(g)
	c.MarkOutput(g)
	if n := MustCount(c); n != 2 {
		t.Fatalf("dual PO count = %d, want 2", n)
	}
}

// Property: for any random circuit, the total path count decomposes as
// sum over primary inputs of the paths through each, Np(pi) * Kp(pi).
func TestQuickDecomposition(t *testing.T) {
	f := func(seed int64) bool {
		p := gen.Params{Name: "q", Inputs: 6, Outputs: 4, Gates: 40, Layers: 6,
			MaxFanin: 3, Locality: 0.7, InvProb: 0.2, Seed: seed}
		c := gen.Random(p)
		sum := new(big.Int)
		for _, in := range c.Inputs {
			sum.Add(sum, Through(c, in))
		}
		return sum.Cmp(CountBig(c)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
