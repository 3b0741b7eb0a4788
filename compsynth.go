// Package compsynth is a synthesis-for-testability toolkit for
// combinational logic circuits, reproducing Pomeranz & Reddy,
// "On Synthesis-for-Testability of Combinational Logic Circuits"
// (32nd DAC, 1995).
//
// The toolkit rewrites gate-level circuits by replacing subcircuits that
// implement comparison functions — functions whose onset is a consecutive
// interval [L, U] of minterm values under some input permutation — with
// comparison units: compact structures with at most two paths per input
// that are fully robustly testable for path delay faults. Two optimization
// objectives are provided: minimize equivalent-2-input gate count
// (Procedure 2) and minimize path count (Procedure 3).
//
// Around the core transformation the module provides the full experimental
// substrate of the paper: .bench netlist I/O, path counting, stuck-at fault
// simulation and PODEM ATPG, redundancy removal, robust path-delay-fault
// analysis, a RAMBO_C-style baseline optimizer, and SIS-style technology
// mapping.
//
// Quick start:
//
//	c, err := compsynth.LoadBench("circuit.bench")
//	res, err := compsynth.OptimizeGates(c, 6)   // Procedure 2, K=6
//	fmt.Println(res)                            // gates/paths before & after
//	compsynth.SaveBench(res.Circuit, "out.bench")
package compsynth

import (
	"fmt"
	"io"
	"math/big"
	"os"

	"compsynth/internal/bench"
	"compsynth/internal/circuit"
	"compsynth/internal/compare"
	"compsynth/internal/delay"
	"compsynth/internal/faults"
	"compsynth/internal/faultsim"
	"compsynth/internal/logic"
	"compsynth/internal/paths"
	"compsynth/internal/rambo"
	"compsynth/internal/redundancy"
	"compsynth/internal/resynth"
	"compsynth/internal/simulate"
	"compsynth/internal/techmap"
)

// Circuit is a combinational gate-level netlist.
type Circuit = circuit.Circuit

// GateType enumerates the supported gate kinds.
type GateType = circuit.GateType

// Re-exported gate kinds.
const (
	Input  = circuit.Input
	Const0 = circuit.Const0
	Const1 = circuit.Const1
	Buf    = circuit.Buf
	Not    = circuit.Not
	And    = circuit.And
	Or     = circuit.Or
	Nand   = circuit.Nand
	Nor    = circuit.Nor
	Xor    = circuit.Xor
	Xnor   = circuit.Xnor
)

// NewCircuit returns an empty circuit.
func NewCircuit(name string) *Circuit { return circuit.New(name) }

// ParseBench reads an ISCAS-89 .bench netlist.
func ParseBench(r io.Reader, name string) (*Circuit, error) { return bench.Parse(r, name) }

// LoadBench reads a .bench file.
func LoadBench(path string) (*Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return bench.Parse(f, path)
}

// WriteBench emits a circuit in .bench format.
func WriteBench(w io.Writer, c *Circuit) error { return bench.Write(w, c) }

// SaveBench writes a .bench file.
func SaveBench(c *Circuit, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return bench.Write(f, c)
}

// CountPaths runs the paper's Procedure 1: the number of PI-to-PO paths.
func CountPaths(c *Circuit) (uint64, error) { return paths.Count(c) }

// CountPathsBig is CountPaths with arbitrary precision.
func CountPathsBig(c *Circuit) *big.Int { return paths.CountBig(c) }

// OptimizeResult reports an optimization run.
type OptimizeResult = resynth.Result

// OptimizeOptions configures the resynthesis procedures.
type OptimizeOptions = resynth.Options

// DefaultOptimizeOptions returns the paper's configuration (K = 5,
// Procedure 2).
func DefaultOptimizeOptions() OptimizeOptions { return resynth.DefaultOptions() }

// Optimize runs a resynthesis procedure with explicit options.
func Optimize(c *Circuit, opt OptimizeOptions) (*OptimizeResult, error) {
	return resynth.Optimize(c, opt)
}

// OptimizeGates runs Procedure 2 (gate-count reduction) with input limit K.
func OptimizeGates(c *Circuit, k int) (*OptimizeResult, error) {
	opt := resynth.DefaultOptions()
	opt.K = k
	opt.Objective = resynth.MinGates
	return resynth.Optimize(c, opt)
}

// OptimizePaths runs Procedure 3 (path-count reduction) with input limit K.
func OptimizePaths(c *Circuit, k int) (*OptimizeResult, error) {
	opt := resynth.DefaultOptions()
	opt.K = k
	opt.Objective = resynth.MinPaths
	return resynth.Optimize(c, opt)
}

// RedundancyResult reports a redundancy-removal run.
type RedundancyResult = redundancy.Result

// RemoveRedundancy returns an irredundant equivalent of c (the paper's
// post-pass, after [15]).
func RemoveRedundancy(c *Circuit) (*RedundancyResult, error) {
	return redundancy.Remove(c, redundancy.DefaultOptions())
}

// StuckAtResult reports a random-pattern stuck-at campaign.
type StuckAtResult = faultsim.CampaignResult

// StuckAtCampaign applies maxPatterns random patterns to the collapsed
// stuck-at fault list (Table 6 methodology).
func StuckAtCampaign(c *Circuit, maxPatterns int, seed int64) StuckAtResult {
	return faultsim.RunRandom(c, faults.Collapse(c), maxPatterns, seed)
}

// PathDelayResult reports a robust path-delay-fault campaign.
type PathDelayResult = delay.CampaignResult

// PathDelayCampaign applies random two-pattern tests and counts robustly
// detected path delay faults (Table 7 methodology). A circuit with 2^63 or
// more paths, whose fault count does not fit in a uint64, is an error.
func PathDelayCampaign(c *Circuit, maxPairs, quietPairs int, seed int64) (PathDelayResult, error) {
	res := delay.RunRandom(c, delay.CampaignOptions{
		MaxPairs: maxPairs, QuietPairs: quietPairs, Seed: seed,
	})
	if res.Err != nil {
		return res, fmt.Errorf("path delay campaign on %s: %w", c.Name, res.Err)
	}
	return res, nil
}

// TechMapResult reports a technology mapping (Table 4 columns).
type TechMapResult = techmap.Result

// TechMap maps c onto the built-in cell library and reports literal count
// and mapped depth.
func TechMap(c *Circuit) TechMapResult { return techmap.Map(c) }

// BaselineResult reports a run of the RAMBO_C-style baseline optimizer.
type BaselineResult = rambo.Result

// OptimizeBaseline runs the redundancy-addition-and-removal-style baseline
// of Table 3 (cut resubstitution with two-level minimization and factoring).
func OptimizeBaseline(c *Circuit, k int) (*BaselineResult, error) {
	opt := rambo.DefaultOptions()
	opt.K = k
	return rambo.Optimize(c, opt)
}

// Equivalent checks functional equivalence by exhaustive simulation for
// small input counts and 64-bit random simulation otherwise.
func Equivalent(a, b *Circuit) bool {
	return simulate.EquivalentRandom(a, b, 64, 16, 12345)
}

// ComparisonSpec describes a comparison-function realization.
type ComparisonSpec = compare.Spec

// TruthTable is a bit-parallel truth table over up to 16 variables.
type TruthTable = logic.TT

// IdentifyComparison reports whether f is realizable as a single comparison
// unit (possibly with a complemented output) and returns the realization.
func IdentifyComparison(f TruthTable) (ComparisonSpec, bool) {
	return compare.IdentifyBest(f)
}
