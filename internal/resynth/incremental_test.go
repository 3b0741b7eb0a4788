package resynth

import (
	"fmt"
	"testing"

	"compsynth/internal/bench"
	"compsynth/internal/circuit"
	"compsynth/internal/gen"
)

// TestIncrementalMatchesFull is the determinism contract of the incremental
// per-pass refresh: for every objective, identification mode, SDC setting
// and unit count, optimizing with the incremental dirty-cone refresh must
// produce a circuit bit-identical (same netlist text, same statistics) to
// optimizing with a full per-pass rebuild.
func TestIncrementalMatchesFull(t *testing.T) {
	suite := gen.SmallSuite()
	if testing.Short() {
		suite = suite[:1]
	}
	for _, b := range suite {
		c := b.Build()
		for _, obj := range []Objective{MinGates, MinPaths, Combined} {
			for _, sampling := range []bool{false, true} {
				for _, sdc := range []bool{false, true} {
					for _, units := range []int{1, 2} {
						opt := DefaultOptions()
						opt.Objective = obj
						opt.UseSampling = sampling
						opt.UseSDC = sdc
						opt.MaxUnits = units
						opt.Verify = false // the row below covers it; keep the matrix fast
						incrementalMatchesFull(t, fmt.Sprintf("%s/%v/sampling=%v/sdc=%v/units=%d",
							b.Name, obj, sampling, sdc, units), c, opt)
					}
				}
			}
		}
	}
	// Verify's EquivalentRandom freezes the circuit between passes, so the
	// view is rebuilt before the next pass's refresh reads the edits the
	// recorder kept.
	opt := DefaultOptions()
	opt.Verify = true
	if r := incrementalMatchesFull(t, suite[0].Name+"/verify", suite[0].Build(), opt); r.Passes < 2 {
		t.Errorf("verify row ran %d pass(es); it needs several to cross a freeze", r.Passes)
	}
}

// incrementalMatchesFull optimizes c incrementally and with forceFull, fails
// the test unless both agree, and returns the incremental result.
func incrementalMatchesFull(t *testing.T, name string, c *circuit.Circuit, opt Options) *Result {
	t.Helper()
	full := opt
	full.forceFull = true
	rFull, err := Optimize(c, full)
	if err != nil {
		t.Fatalf("%s: full: %v", name, err)
	}
	dirtyBefore := mDirty.Value()
	rInc, err := Optimize(c, opt)
	if err != nil {
		t.Fatalf("%s: incremental: %v", name, err)
	}
	if rInc.Passes > 1 && mDirty.Value() == dirtyBefore {
		t.Errorf("%s: multi-pass run never took the incremental refresh path", name)
	}
	if got, want := rInc.String(), rFull.String(); got != want {
		t.Errorf("%s: stats diverge:\nincremental %s\nfull        %s", name, got, want)
	}
	if got, want := bench.String(rInc.Circuit), bench.String(rFull.Circuit); got != want {
		t.Errorf("%s: netlists diverge:\nincremental:\n%s\nfull:\n%s", name, got, want)
	}
	return rInc
}
