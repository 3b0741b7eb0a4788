package redundancy

import (
	"testing"

	"compsynth/internal/bench"
	"compsynth/internal/circuit"
	"compsynth/internal/gen"
	"compsynth/internal/metric"
	"compsynth/internal/simulate"
)

func TestRemoveKnownRedundancy(t *testing.T) {
	// f = a OR (a AND b): collapses to f = a after redundancy removal.
	c := circuit.New("red")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g1 := c.AddGate(circuit.And, "g1", a, b)
	g2 := c.AddGate(circuit.Or, "g2", a, g1)
	c.MarkOutput(g2)
	res, err := Remove(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed == 0 {
		t.Fatal("no redundancy removed")
	}
	if res.GatesAfter != 0 {
		t.Fatalf("gates after = %d, want 0 (f = a)", res.GatesAfter)
	}
	if !simulate.EquivalentRandom(c, res.Circuit, 4, 6, 1) {
		t.Fatal("function changed")
	}
}

func TestRemoveOnIrredundantCircuit(t *testing.T) {
	c, _ := bench.ParseString(bench.C17, "c17")
	res, err := Remove(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 0 {
		t.Fatalf("c17 is irredundant; removed %d", res.Removed)
	}
	if res.GatesAfter != res.GatesBefore {
		t.Fatalf("c17 size changed %d -> %d", res.GatesBefore, res.GatesAfter)
	}
}

func TestRemoveProducesIrredundant(t *testing.T) {
	for _, bn := range gen.SmallSuite()[:2] {
		c := bn.Build()
		res, err := Remove(c, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", bn.Name, err)
		}
		if !simulate.EquivalentRandom(c, res.Circuit, 32, 12, 3) {
			t.Fatalf("%s: function changed", bn.Name)
		}
		red, aborted := CheckIrredundant(res.Circuit, 20000)
		if len(red) != 0 {
			t.Fatalf("%s: still redundant: %v", bn.Name, red)
		}
		if len(aborted) != 0 {
			t.Logf("%s: %d aborted faults (acceptable)", bn.Name, len(aborted))
		}
	}
}

func TestRemoveChainedRedundancies(t *testing.T) {
	// Stack two interacting redundancies: f = a OR (a AND b) OR (a AND b).
	c := circuit.New("red2")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g1 := c.AddGate(circuit.And, "g1", a, b)
	g2 := c.AddGate(circuit.And, "g2", a, b)
	g3 := c.AddGate(circuit.Or, "g3", a, g1, g2)
	c.MarkOutput(g3)
	res, err := Remove(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.GatesAfter != 0 {
		t.Fatalf("gates after = %d, want 0", res.GatesAfter)
	}
	if !simulate.EquivalentRandom(c, res.Circuit, 4, 6, 1) {
		t.Fatal("function changed")
	}
}

func TestRemoveDoesNotMutateInput(t *testing.T) {
	c, _ := bench.ParseString(bench.C17, "c17")
	before := bench.String(c)
	if _, err := Remove(c, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if bench.String(c) != before {
		t.Fatal("input circuit mutated")
	}
}

func TestRemoveRedundantInverterPin(t *testing.T) {
	// f = AND(a, NOT(AND(a, b)), b) is constant 0 (a & !(ab) & b = 0);
	// redundancy removal must collapse the cone to a constant.
	c := circuit.New("inv")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g1 := c.AddGate(circuit.And, "g1", a, b)
	n1 := c.AddGate(circuit.Not, "n1", g1)
	g2 := c.AddGate(circuit.And, "g2", a, n1, b)
	o := c.AddGate(circuit.Or, "o", g2, a)
	c.MarkOutput(o)
	res, err := Remove(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !simulate.EquivalentRandom(c, res.Circuit, 4, 6, 1) {
		t.Fatal("function changed")
	}
	if res.GatesAfter != 0 {
		t.Fatalf("expected collapse to f=a, gates=%d", res.GatesAfter)
	}
}

func TestCheckIrredundantReportsRedundancy(t *testing.T) {
	c := circuit.New("red")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g1 := c.AddGate(circuit.And, "g1", a, b)
	g2 := c.AddGate(circuit.Or, "g2", a, g1)
	c.MarkOutput(g2)
	red, _ := CheckIrredundant(c, 20000)
	if len(red) == 0 {
		t.Fatal("known redundancy not reported")
	}
}

func TestRemoveWorkers(t *testing.T) {
	// Workers reaches the filter campaign: a serial removal starts no
	// parallel run, and every worker count gives the same netlist and
	// Result.
	c := gen.SmallSuite()[0].Build()
	runs := metric.C("par.parallel_runs")
	remove := func(workers int) (*Result, int64) {
		t.Helper()
		opt := DefaultOptions()
		opt.Workers = workers
		before := runs.Value()
		res, err := Remove(c, opt)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		return res, runs.Value() - before
	}
	serial, serialRuns := remove(1)
	parallel, parallelRuns := remove(2)
	if serialRuns != 0 {
		t.Errorf("workers 1 started %d parallel runs", serialRuns)
	}
	if parallelRuns == 0 {
		t.Error("workers 2 started no parallel run: the option does not reach the filter")
	}
	if serial.String() != parallel.String() {
		t.Errorf("results differ: %v at 1 worker, %v at 2", serial, parallel)
	}
	if bench.String(serial.Circuit) != bench.String(parallel.Circuit) {
		t.Error("netlists differ between 1 and 2 workers")
	}
}
