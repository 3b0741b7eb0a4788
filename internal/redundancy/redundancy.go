// Package redundancy removes stuck-at redundancies from combinational
// circuits, in the spirit of Kajihara/Shiba/Kinoshita [15] as used by the
// paper: any line with an undetectable stuck-at-v fault can be replaced by
// the constant v without changing the circuit function; constant propagation
// and dead-logic sweeping then shrink the netlist. The pass iterates until
// the collapsed fault list is fully testable (or the ATPG aborts).
package redundancy

import (
	"encoding/json"
	"fmt"

	"compsynth/internal/atpg"
	"compsynth/internal/circuit"
	"compsynth/internal/faults"
	"compsynth/internal/faultsim"
	"compsynth/internal/metric"
	"compsynth/internal/obs"
	"compsynth/internal/simulate"
)

// Removal metrics.
var (
	mRounds    = metric.C("redundancy.rounds")
	mRedundant = metric.C("redundancy.faults_proven_redundant")
	mAborted   = metric.C("redundancy.faults_aborted")
)

// Fixed limits of every run.
const (
	maxRounds = 20 // remove-and-recheck iterations
	seed      = 15 // round 0's filter seed, and the equivalence check's
)

// Options configures the removal pass.
type Options struct {
	// FilterPatterns random patterns drop obviously-testable faults before
	// ATPG runs (0 = default 2048).
	FilterPatterns int
	// BacktrackLimit bounds each PODEM call.
	BacktrackLimit int
	// Verify checks every round's output against the input circuit.
	Verify bool
	// Workers bounds the goroutines of the random-pattern filter
	// (0 = runtime.GOMAXPROCS(0), 1 = serial). Results are identical for
	// every value.
	Workers int

	// Tracer records per-round spans when non-nil; nil (the default) keeps
	// the zero-overhead fast path.
	Tracer *obs.Tracer
}

// DefaultOptions returns a configuration suited to the benchmark suite.
func DefaultOptions() Options {
	return Options{FilterPatterns: 2048, BacktrackLimit: 20000, Verify: true}
}

// Result reports a removal run.
type Result struct {
	Circuit     *circuit.Circuit
	Rounds      int
	Removed     int // redundant faults rewritten
	Aborted     int // faults the ATPG gave up on (left in place)
	GatesBefore int
	GatesAfter  int
}

func (r *Result) String() string {
	return fmt.Sprintf("rounds=%d removed=%d aborted=%d gates %d->%d",
		r.Rounds, r.Removed, r.Aborted, r.GatesBefore, r.GatesAfter)
}

// MarshalJSON serializes the run statistics (the circuit itself is omitted;
// reports carry circuit summaries separately). Field names mirror String().
func (r *Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Rounds      int `json:"rounds"`
		Removed     int `json:"removed"`
		Aborted     int `json:"aborted"`
		GatesBefore int `json:"gates_before"`
		GatesAfter  int `json:"gates_after"`
	}{r.Rounds, r.Removed, r.Aborted, r.GatesBefore, r.GatesAfter})
}

// Remove returns an irredundant (up to ATPG aborts) equivalent of c.
// The input circuit is not modified; with Verify set, every round's output
// is checked against it.
func Remove(c *circuit.Circuit, opt Options) (*Result, error) {
	if opt.FilterPatterns <= 0 {
		opt.FilterPatterns = 2048
	}
	sp := opt.Tracer.StartSpan("redundancy.remove")
	defer sp.End()
	poNames := c.PONames()
	work := c.Clone()
	work.Simplify()
	work.Strash()
	work, _ = work.Compact()
	res := &Result{GatesBefore: c.Equiv2Count()}
	for round := 0; round < maxRounds; round++ {
		rsp := opt.Tracer.StartSpan("redundancy.round")
		rsp.SetInt("round", int64(round))
		res.Rounds++
		mRounds.Inc()
		fl := faults.Collapse(work)
		sim := faultsim.Campaign(work, fl, faultsim.CampaignOptions{
			Patterns: opt.FilterPatterns,
			Seed:     seed + int64(round),
			Workers:  opt.Workers,
			Tracer:   opt.Tracer,
		})
		removedThisRound := 0
		res.Aborted = 0
		// Each fault is (re-)proved against the live circuit, so removals
		// within the round stay sound even though they interact. Rewrites
		// only fold lines to constants, which keeps the remaining fault
		// sites structurally valid until the end-of-round simplification.
		asp := opt.Tracer.StartSpan("redundancy.atpg")
		asp.SetInt("hard_faults", int64(len(sim.Remaining)))
		for _, f := range sim.Remaining {
			if !work.Alive(f.Node) || (f.Pin >= 0 && f.Pin >= len(work.Nodes[f.Node].Fanin)) {
				continue
			}
			r := atpg.Generate(work, f, atpg.Options{BacktrackLimit: opt.BacktrackLimit})
			switch r.Status {
			case atpg.Redundant:
				rewrite(work, f)
				removedThisRound++
				res.Removed++
				mRedundant.Inc()
			case atpg.Aborted:
				res.Aborted++
				mAborted.Inc()
			}
		}
		asp.End()
		rsp.SetInt("removed", int64(removedThisRound))
		rsp.SetInt("aborted", int64(res.Aborted))
		if removedThisRound == 0 {
			rsp.End()
			break
		}
		work.Simplify()
		work.Strash()
		work, _ = work.Compact()
		if opt.Verify && !simulate.EquivalentRandom(c, work, 16, 12, seed) {
			rsp.End()
			return nil, fmt.Errorf("redundancy: round %d broke equivalence", round)
		}
		rsp.End()
	}
	work.PreservePONames(poNames)
	res.Circuit = work
	res.GatesAfter = work.Equiv2Count()
	return res, nil
}

// rewrite replaces the faulty line by the constant it is stuck at.
func rewrite(c *circuit.Circuit, f faults.Fault) {
	constOf := func(v bool) int {
		if v {
			return c.AddGate(circuit.Const1, "")
		}
		return c.AddGate(circuit.Const0, "")
	}
	if f.Pin < 0 {
		c.SetConstant(f.Node, f.Stuck)
		return
	}
	nd := c.Nodes[f.Node]
	switch nd.Type {
	case circuit.Not, circuit.Buf:
		// Fixed-arity gates: fold directly.
		v := f.Stuck
		if nd.Type == circuit.Not {
			v = !v
		}
		c.SetConstant(f.Node, v)
	default:
		c.SetFanin(f.Node, f.Pin, constOf(f.Stuck))
	}
}

// CheckIrredundant verifies that every collapsed fault of c is testable,
// returning the redundant (or aborted) faults found.
func CheckIrredundant(c *circuit.Circuit, backtrackLimit int) (redundant, aborted []faults.Fault) {
	fl := faults.Collapse(c)
	sim := faultsim.RunRandom(c, fl, 2048, 99)
	for _, f := range sim.Remaining {
		r := atpg.Generate(c, f, atpg.Options{BacktrackLimit: backtrackLimit})
		switch r.Status {
		case atpg.Redundant:
			redundant = append(redundant, f)
		case atpg.Aborted:
			aborted = append(aborted, f)
		}
	}
	return redundant, aborted
}
