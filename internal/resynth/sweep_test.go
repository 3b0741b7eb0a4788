package resynth

import (
	"fmt"
	"testing"

	"compsynth/internal/circuit"
	"compsynth/internal/gen"
	"compsynth/internal/obs/dtrace"
)

// TestApplyLeavesNothingToSweep pins apply's edit-local sweep (Kill on the
// replaced node and the unit's new nodes) against the whole-circuit one: on
// every circuit of the quick suite (gen.Suite at the tables -quick scale),
// after every accepted replacement of Procedures 2 and 3, SweepDead finds
// nothing left to remove, and the strict Check (which recounts reachability,
// fanout lists, PO uses and the live count from scratch) passes.
func TestApplyLeavesNothingToSweep(t *testing.T) {
	suite := gen.Suite(0.15)
	if testing.Short() {
		suite = suite[:2]
	}
	for _, b := range suite {
		for _, obj := range []Objective{MinGates, MinPaths} {
			name := fmt.Sprintf("%s/%v", b.Name, obj)
			opt := DefaultOptions()
			opt.Objective = obj
			work := b.Build()
			work.Simplify()
			work, _ = work.Compact()
			o := newOptimizer(opt)
			applied, replacements := false, 0
			audit := func() {
				if !applied {
					return
				}
				applied = false
				if n := work.Clone().SweepDead(); n != 0 {
					t.Fatalf("%s: SweepDead removed %d nodes after replacement %d", name, n, replacements)
				}
				if err := circuit.Check(work); err != nil {
					t.Fatalf("%s: after replacement %d: %v", name, replacements, err)
				}
			}
			// Each replacement is traced just before apply runs, so the
			// record after it, or the end of the pass, follows the apply.
			o.dt = dtrace.New(dtrace.Mode{Level: dtrace.LevelFull}, func(r *dtrace.Record) {
				audit()
				if r.Kind == "gate" && r.Outcome == dtrace.Replaced {
					applied = true
					replacements++
				}
			})
			for pass := 0; pass < opt.MaxPasses; pass++ {
				o.passNo = pass + 1
				n := o.pass(work)
				audit()
				if n == 0 {
					break
				}
				work.Simplify()
			}
			if replacements == 0 {
				t.Errorf("%s: no replacement; the pin checked nothing", name)
			}
		}
	}
}
