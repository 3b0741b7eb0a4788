package compsynth

import (
	"errors"
	"strings"
	"testing"

	"compsynth/internal/bench"
	"compsynth/internal/circuit"
	"compsynth/internal/delay"
	"compsynth/internal/logic"
)

func parse(t *testing.T, src string) *Circuit {
	t.Helper()
	c, err := ParseBench(strings.NewReader(src), "t")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPublicFlowEndToEnd(t *testing.T) {
	c := parse(t, bench.C17)
	n, err := CountPaths(c)
	if err != nil || n != 11 {
		t.Fatalf("CountPaths = %d, %v", n, err)
	}
	if CountPathsBig(c).Int64() != 11 {
		t.Fatal("big count mismatch")
	}
	res, err := OptimizeGates(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !Equivalent(c, res.Circuit) {
		t.Fatal("OptimizeGates broke equivalence")
	}
	res3, err := OptimizePaths(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !Equivalent(c, res3.Circuit) {
		t.Fatal("OptimizePaths broke equivalence")
	}
	rr, err := RemoveRedundancy(res.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if !Equivalent(c, rr.Circuit) {
		t.Fatal("RemoveRedundancy broke equivalence")
	}
	sa := StuckAtCampaign(rr.Circuit, 2048, 1)
	if sa.Coverage() != 1 {
		t.Fatalf("c17 flow result not fully stuck-at testable: %+v", sa)
	}
	pd, err := PathDelayCampaign(rr.Circuit, 2000, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pd.TotalFaults == 0 || uint64(pd.Detected) > pd.TotalFaults {
		t.Fatalf("PDF campaign inconsistent: %+v", pd)
	}
	tm := TechMap(rr.Circuit)
	if tm.Literals <= 0 {
		t.Fatalf("TechMap: %v", tm)
	}
}

func TestPublicBenchRoundTrip(t *testing.T) {
	c := parse(t, bench.C17)
	var sb strings.Builder
	if err := WriteBench(&sb, c); err != nil {
		t.Fatal(err)
	}
	c2, err := ParseBench(strings.NewReader(sb.String()), "rt")
	if err != nil {
		t.Fatal(err)
	}
	if !Equivalent(c, c2) {
		t.Fatal("round trip changed function")
	}
}

func TestPublicIdentify(t *testing.T) {
	f := logic.FromMinterms(4, []int{1, 5, 6, 9, 10, 14})
	spec, ok := IdentifyComparison(f)
	if !ok {
		t.Fatal("paper example not identified via public API")
	}
	if !spec.Table().Equal(f) {
		t.Fatal("spec table mismatch")
	}
}

func TestPublicBaseline(t *testing.T) {
	c := parse(t, bench.C17)
	res, err := OptimizeBaseline(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !Equivalent(c, res.Circuit) {
		t.Fatal("baseline broke equivalence")
	}
}

func TestPublicCircuitConstruction(t *testing.T) {
	c := NewCircuit("api")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g := c.AddGate(Nand, "g", a, b)
	c.MarkOutput(g)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	out := c.Eval([]bool{true, true})
	if out[0] != false {
		t.Fatal("NAND(1,1) != 0")
	}
}

func TestPONamePreservation(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(f)
na = NOT(a)
t1 = AND(na, b)
t2 = AND(a, b)
f = OR(t1, t2, c)
`
	c := parse(t, src)
	res, err := OptimizeGates(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	name := res.Circuit.Nodes[res.Circuit.Outputs[0]].Name
	if name != "f" {
		t.Fatalf("output name not preserved: %q", name)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	c := parse(t, bench.C17)
	path := t.TempDir() + "/c17.bench"
	if err := SaveBench(c, path); err != nil {
		t.Fatal(err)
	}
	c2, err := LoadBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if !Equivalent(c, c2) {
		t.Fatal("file round trip changed function")
	}
	if _, err := LoadBench(path + ".missing"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestDefaultOptimizeOptions(t *testing.T) {
	opt := DefaultOptimizeOptions()
	if opt.K != 5 || opt.MaxPasses <= 0 {
		t.Fatalf("unexpected defaults: %+v", opt)
	}
	c := parse(t, bench.Adder4)
	res, err := Optimize(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !Equivalent(c, res.Circuit) {
		t.Fatal("defaults broke equivalence")
	}
}

// TestPathDelayCampaignTooManyPaths: a 63-stage AND(x, x) ladder has 2^63
// paths, whose 2^64 path delay faults do not fit in a uint64. The campaign
// returns an error naming the circuit instead of a wrapped fault count.
func TestPathDelayCampaignTooManyPaths(t *testing.T) {
	c := circuit.New("ladder63")
	x := c.AddInput("x")
	for i := 0; i < 63; i++ {
		x = c.AddGate(circuit.And, "", x, x)
	}
	c.MarkOutput(x)
	_, err := PathDelayCampaign(c, 64, 0, 1)
	if !errors.Is(err, delay.ErrTooManyFaults) || !strings.Contains(err.Error(), "ladder63") {
		t.Fatalf("PathDelayCampaign on 2^63 paths: %v, want delay.ErrTooManyFaults naming ladder63", err)
	}
}
