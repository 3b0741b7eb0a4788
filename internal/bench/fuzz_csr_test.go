package bench_test

import (
	"os"
	"path/filepath"
	"testing"

	"compsynth/internal/bench"
	"compsynth/internal/circuit"
)

// FuzzCSRFreeze drives Freeze over every circuit the parser accepts,
// reusing FuzzParseBench's seed corpus. After each step of a deterministic
// mutation sequence it freezes and runs circuit.Check, whose csr_stale
// audit deep-compares the view against a build into fresh storage — so an
// edit that fails to mark the view stale, leaving Freeze to return the old
// one, is a failure on any fuzz-discovered netlist — and which recounts the
// fanout lists, PO-use counts and live count that every mutator maintains.
func FuzzCSRFreeze(f *testing.F) {
	f.Add(bench.C17)
	f.Add(bench.Adder4)
	files, err := filepath.Glob(filepath.Join("..", "..", "circuits", "*.bench"))
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}

	f.Fuzz(func(t *testing.T, src string) {
		c, err := bench.ParseString(src, "fuzz")
		if err != nil {
			return // not a circuit; FuzzParseBench owns parser robustness
		}
		opts := circuit.CheckOptions{AllowUnreachable: true}
		step := func(what string) {
			t.Helper()
			c.Freeze()
			if err := circuit.CheckWith(c, opts); err != nil {
				t.Fatalf("after %s: %v\ninput:\n%s", what, err, src)
			}
		}
		step("parse")

		// A deterministic edit script covering the interesting transitions:
		// pure additions, output designation, local rewiring, global
		// simplification and sweeps. Every op goes through the edit-stamping
		// mutators, so each must age the view and each Freeze rebuilds it.
		in := c.AddInput("fz_in")
		step("AddInput")
		g := c.AddGate(circuit.Not, "fz_not", in)
		step("AddGate")
		c.MarkOutput(g)
		step("MarkOutput")
		if len(c.Outputs) > 1 {
			o := c.Outputs[0]
			g2 := c.AddGate(circuit.And, "fz_and", o, g)
			c.MarkOutput(g2)
			step("AddGate over PO")
			c.SetFanin(g2, 1, o)
			step("SetFanin")
		}
		c.Rename(g, "fz_not_renamed")
		step("Rename")
		c.ReplaceUses(g, in)
		step("ReplaceUses")
		c.Kill(g)
		step("Kill")
		c.SetConstant(c.Outputs[0], false)
		step("SetConstant")
		c.Simplify()
		step("Simplify")
		c.Strash()
		step("Strash")
		c.SweepDead()
		step("SweepDead")
		cc, _ := c.Compact()
		cc.Freeze()
		if err := circuit.CheckWith(cc, opts); err != nil {
			t.Fatalf("after Compact: %v\ninput:\n%s", err, src)
		}
	})
}
