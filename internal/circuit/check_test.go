package circuit_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compsynth/internal/bench"
	"compsynth/internal/circuit"
)

// base builds a small clean circuit:
//
//	g1 = AND(a, b), g2 = OR(a, b), out = AND(g1, g2)
func base() (*circuit.Circuit, map[string]int) {
	c := circuit.New("base")
	ids := map[string]int{}
	ids["a"] = c.AddInput("a")
	ids["b"] = c.AddInput("b")
	ids["g1"] = c.AddGate(circuit.And, "g1", ids["a"], ids["b"])
	ids["g2"] = c.AddGate(circuit.Or, "g2", ids["a"], ids["b"])
	ids["out"] = c.AddGate(circuit.And, "out", ids["g1"], ids["g2"])
	c.MarkOutput(ids["out"])
	return c, ids
}

// TestCheckNegative drives Check over deliberately broken circuits. The
// corruption writes exported fields directly — exactly the mutation pattern
// the nodemut lint rule forbids in non-test code, used here to simulate the
// bugs Check exists to catch.
func TestCheckNegative(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) *circuit.Circuit
		want  string // substring of the expected error
	}{
		{
			name: "cycle",
			build: func(t *testing.T) *circuit.Circuit {
				c, ids := base()
				// g1 <- out closes a cycle g1 -> out -> g1.
				c.Nodes[ids["g1"]].Fanin[1] = ids["out"]
				return c
			},
			want: "cycle",
		},
		{
			name: "arity",
			build: func(t *testing.T) *circuit.Circuit {
				c, ids := base()
				c.Nodes[ids["g1"]].Type = circuit.Not // Not with 2 fanins
				return c
			},
			want: "must have exactly 1 fanin",
		},
		{
			name: "no-fanin-gate",
			build: func(t *testing.T) *circuit.Circuit {
				c, ids := base()
				c.Nodes[ids["g2"]].Fanin = nil
				return c
			},
			want: "must have fanin",
		},
		{
			name: "dangling-fanin",
			build: func(t *testing.T) *circuit.Circuit {
				c, ids := base()
				c.Nodes[ids["g1"]].Fanin[0] = 99 // no such node
				return c
			},
			want: "dangles",
		},
		{
			name: "dead-fanin",
			build: func(t *testing.T) *circuit.Circuit {
				c, ids := base()
				orphan := c.AddGate(circuit.Nand, "orphan", ids["a"], ids["b"])
				c.Kill(orphan)
				c.Nodes[ids["g2"]].Fanin[0] = orphan
				return c
			},
			want: "dangles",
		},
		{
			name: "input-missing-from-list",
			build: func(t *testing.T) *circuit.Circuit {
				c, _ := base()
				c.Inputs = c.Inputs[:1]
				return c
			},
			want: "missing from the input list",
		},
		{
			name: "duplicate-input-entry",
			build: func(t *testing.T) *circuit.Circuit {
				c, _ := base()
				c.Inputs = append(c.Inputs, c.Inputs[0])
				return c
			},
			want: "listed twice",
		},
		{
			name: "fanout-fanin-mismatch",
			build: func(t *testing.T) *circuit.Circuit {
				c, ids := base()
				// Rewire g1's first pin a -> b behind the mutators' back.
				// Levels and arity stay valid; only the transpose breaks.
				c.Nodes[ids["g1"]].Fanin[0] = ids["b"]
				return c
			},
			want: "stale fanout list",
		},
		{
			name: "unreachable-gate",
			build: func(t *testing.T) *circuit.Circuit {
				c, ids := base()
				c.AddGate(circuit.Nand, "orphan", ids["a"], ids["b"])
				return c
			},
			want: "unreachable",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build(t)
			err := circuit.Check(c)
			if err == nil {
				t.Fatalf("Check accepted a circuit with a %s defect", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Check error = %q, want substring %q", err, tc.want)
			}
		})
	}
}

// TestCheckPositive re-audits the base circuit and each committed netlist.
func TestCheckPositive(t *testing.T) {
	c, _ := base()
	if err := circuit.Check(c); err != nil {
		t.Fatalf("Check rejected a clean circuit: %v", err)
	}
	// Warm every cache, then re-check: the caches must agree with fresh
	// recomputation.
	c.Topo()
	c.Depth()
	if err := circuit.Check(c); err != nil {
		t.Fatalf("Check rejected a clean circuit with warm caches: %v", err)
	}
}

// TestDepthAfterKill: Depth reads the frozen view, whose levels cover live
// nodes only, so a tombstone left by Kill does not trip Check afterwards.
func TestDepthAfterKill(t *testing.T) {
	c, ids := base()
	x := c.AddGate(circuit.Xor, "x", ids["a"], ids["b"])
	y := c.AddGate(circuit.Not, "y", x)
	c.MarkOutput(x)
	c.Kill(y)
	if d := c.Depth(); d != 2 {
		t.Fatalf("Depth = %d, want 2", d)
	}
	if err := circuit.Check(c); err != nil {
		t.Fatalf("Check after Kill and Depth: %v", err)
	}
}

// TestCheckNetlists sweeps every committed .bench netlist through the strict
// check and the comparison-unit bound.
func TestCheckNetlists(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "circuits", "*.bench"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no committed netlists found")
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			c, err := bench.ParseString(string(data), filepath.Base(f))
			if err != nil {
				t.Fatal(err)
			}
			if err := circuit.Check(c); err != nil {
				t.Errorf("Check(%s): %v", f, err)
			}
			if err := circuit.CheckComparisonUnits(c); err != nil {
				t.Errorf("CheckComparisonUnits(%s): %v", f, err)
			}
		})
	}
}

// TestCheckAllowUnreachable pins the option split: parsed netlists may carry
// unused gates, optimizer outputs may not.
func TestCheckAllowUnreachable(t *testing.T) {
	c, ids := base()
	c.AddGate(circuit.Nand, "orphan", ids["a"], ids["b"])
	if err := circuit.Check(c); err == nil {
		t.Error("strict Check accepted an unreachable gate")
	}
	if err := circuit.CheckWith(c, circuit.CheckOptions{AllowUnreachable: true}); err != nil {
		t.Errorf("AllowUnreachable rejected the circuit: %v", err)
	}
}

func TestCheckNil(t *testing.T) {
	if err := circuit.Check(nil); err == nil {
		t.Error("Check accepted a nil circuit")
	}
}

// unitCircuit builds a fake resynthesized cone: nPaths parallel buffers from
// input x into an OR named with the optimizer's cu<id>_ prefix.
func unitCircuit(nPaths int) *circuit.Circuit {
	c := circuit.New("unit")
	x := c.AddInput("x")
	fan := make([]int, nPaths)
	for i := range fan {
		fan[i] = c.AddGate(circuit.Buf, "cu7_b"+string(rune('0'+i)), x)
	}
	out := c.AddGate(circuit.Or, "cu7_or", fan...)
	c.MarkOutput(out)
	return c
}

// TestComparisonUnitBound checks the paper's <=2-paths-per-input property:
// two parallel paths pass, three fail.
func TestComparisonUnitBound(t *testing.T) {
	if err := circuit.CheckComparisonUnits(unitCircuit(2)); err != nil {
		t.Errorf("2-path unit rejected: %v", err)
	}
	err := circuit.CheckComparisonUnits(unitCircuit(3))
	if err == nil {
		t.Fatal("3-path unit accepted; the bound is 2")
	}
	if !strings.Contains(err.Error(), "3 paths") || !strings.Contains(err.Error(), "bound is 2") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestComparisonUnitSubgroups checks multi-unit (Section 6) grouping: each
// cu<id>_u<i>_ sub-unit is audited on its own, so two sub-units that each
// hold the bound pass even though the whole realization has more paths.
func TestComparisonUnitSubgroups(t *testing.T) {
	c := circuit.New("multi")
	x := c.AddInput("x")
	u0a := c.AddGate(circuit.Buf, "cu9_u0_a", x)
	u0b := c.AddGate(circuit.Buf, "cu9_u0_b", x)
	u0 := c.AddGate(circuit.Or, "cu9_u0_out", u0a, u0b)
	u1a := c.AddGate(circuit.Buf, "cu9_u1_a", x)
	u1b := c.AddGate(circuit.Buf, "cu9_u1_b", x)
	u1 := c.AddGate(circuit.Or, "cu9_u1_out", u1a, u1b)
	or := c.AddGate(circuit.Or, "cu9_mor", u0, u1)
	c.MarkOutput(or)
	if err := circuit.Check(c); err != nil {
		t.Fatalf("multi-unit circuit invalid: %v", err)
	}
	if err := circuit.CheckComparisonUnits(c); err != nil {
		t.Errorf("per-sub-unit bound rejected a valid multi-unit realization: %v", err)
	}
}
