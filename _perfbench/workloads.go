package main

import (
	"fmt"

	"compsynth/internal/circuit"
	"compsynth/internal/delay"
	"compsynth/internal/faults"
	"compsynth/internal/faultsim"
	"compsynth/internal/obs"
	"compsynth/internal/redundancy"
	"compsynth/internal/resynth"
)

// quickScale is the gen.Suite scale of `tables -quick`; every netlist below
// is a quick-scale analog of a paper circuit.
const quickScale = 0.15

// netSpec names one gen.Suite netlist and records why the workload
// includes it.
type netSpec struct {
	name string
	why  string
}

// pins holds the SHA-256 of each netlist's .bench text at the calibrated
// generator seed. A generator change then fails the run as a changed
// workload instead of passing as a speed-up.
var pins = map[string]string{
	"rs1423":  "8d178d3614f69beef8326cc800770e2aa3a3b9f4414ae15a4d4063279957bd12",
	"rs9234":  "6cf4c37605e657b593e02eeb62a0cb8c822917ff5362f483f12ff7e80e153c48",
	"rs35932": "5cf29cbe20b9c56d1fd47386a75e33dc44554d47d08ffc7f23b46b937117eed4",
	"rs38584": "56e935a199978101d62fe5bdacd66aaa23c319a471001ecb166c3c409e6a7408",
}

// workload is one set of netlists and the top-level calls made on each.
type workload struct {
	name string
	why  string
	nets []netSpec
	run  func(r *runner, in *input)
}

var workloads = []*workload{
	{
		name: "synth",
		why: "Procedures 2 and 3 (resynth.Optimize, K = 5 and 6, per-pass Verify on) without redundancy " +
			"removal: resynth, subckt, compare and simulate do all the work and ATPG none",
		nets: []netSpec{
			{"rs1423", "13 inputs: per-pass verify and the output check are both exhaustive"},
			{"rs9234", "37 inputs, 16 levels: random per-pass verify; Procedure 3 at K = 6 is the longest call"},
			{"rs35932", "264 inputs, random per-pass verify; Procedure 3 at K = 5 returns " +
				"'pass 1 broke equivalence' here, a known defect this workload keeps visible"},
		},
		run: runSynth,
	},
	{
		name: "irredundant",
		why: "redundancy.Remove with DefaultOptions (20 000-backtrack PODEM, 2 048-pattern filter): " +
			"ATPG does almost all the work, PODEM aborts, resynthesis is absent",
		nets: []netSpec{
			{"rs9234", "227 PODEM calls and 1.6e5 backtracks without an abort: long searches that succeed"},
			{"rs35932", "335 PODEM calls, 3.8e5 backtracks, 16 aborts; 5 faults stay aborted after the last round"},
		},
		run: runIrredundant,
	},
	{
		name: "testability",
		why: "faults.Collapse, then faultsim.Campaign at Table 6's 2^20 patterns and delay.RunRandom at " +
			"Table 7's 20 000 pairs (quiet 2 000): a long fault-simulation campaign plus path-delay simulation",
		nets: []netSpec{
			{"rs9234", "16 levels, 2.6e5 path faults; 304 stuck-at faults survive all 2^20 patterns"},
			{"rs38584", "218 inputs, 1 211 gates: the most delay-simulation time per pair"},
		},
		run: runTestability,
	},
}

// Options every workload passes, as the sft and tables defaults give them.
const (
	stuckAtPatterns = 1 << 20 // Table 6
	pdfPairs        = 20000   // Table 7
	pdfQuiet        = 2000    // Table 7
	campaignSeed    = 1995    // sft -seed and tables default
)

func runSynth(r *runner, in *input) {
	for _, proc := range []struct {
		name string
		obj  resynth.Objective
	}{{"proc2", resynth.MinGates}, {"proc3", resynth.MinPaths}} {
		for _, k := range []int{5, 6} {
			opt := resynth.DefaultOptions()
			opt.K = k
			opt.Objective = proc.obj
			name := fmt.Sprintf("%s-k%d", proc.name, k)
			var res *resynth.Result
			var err error
			r.call(in, name, "resynth", "resynth.Optimize", func(tr *obs.Tracer) {
				opt.Tracer = tr
				res, err = resynth.Optimize(in.c, opt)
			})
			var o rewrite
			if err == nil {
				o, err = checkRewrite(in, res.Circuit, res.GatesBefore, res.GatesAfter, res.PathsBefore, res.PathsAfter)
			}
			r.done(in, name, err, func(q *quality) {
				if proc.obj == resynth.MinGates {
					q.gateRatios = append(q.gateRatios, o.gateRatio(err))
				} else {
					q.pathRatios = append(q.pathRatios, o.pathRatio(err))
				}
			})
		}
	}
}

func runIrredundant(r *runner, in *input) {
	opt := redundancy.DefaultOptions()
	var res *redundancy.Result
	var err error
	r.call(in, "remove", "redundancy", "redundancy.Remove", func(tr *obs.Tracer) {
		opt.Tracer = tr
		res, err = redundancy.Remove(in.c, opt)
	})
	var o rewrite
	if err == nil {
		o, err = checkRewrite(in, res.Circuit, res.GatesBefore, res.GatesAfter, 0, 0)
	}
	r.done(in, "remove", err, func(q *quality) {
		q.gateRatios = append(q.gateRatios, o.gateRatio(err))
		q.pathRatios = append(q.pathRatios, o.pathRatio(err))
		aborted := 0
		if err == nil {
			aborted = res.Aborted
		}
		q.addUnproven(len(faults.Collapse(in.c)), aborted, err)
	})
}

// addUnproven adds one removal's collapsed faults to the base of
// unproven_share and its faults left aborted to the count; a failed call
// leaves every fault unproven, so a failure can only raise the share.
func (q *quality) addUnproven(faults, aborted int, err error) {
	if err != nil {
		aborted = faults
	}
	q.faults += float64(faults)
	q.unproven += float64(aborted)
}

func runTestability(r *runner, in *input) {
	var fl []faults.Fault
	r.call(in, "collapse", "faults", "faults.Collapse", func(*obs.Tracer) {
		fl = faults.Collapse(in.c)
	})
	var err error
	if len(fl) == 0 {
		err = fmt.Errorf("empty fault list")
	}
	r.done(in, "collapse", err, nil)

	var sa faultsim.CampaignResult
	r.call(in, "stuck-at", "faultsim", "faultsim.Campaign", func(*obs.Tracer) {
		sa = faultsim.Campaign(in.c, fl, faultsim.CampaignOptions{Patterns: stuckAtPatterns, Seed: campaignSeed})
	})
	err = nil
	switch {
	case sa.TotalFaults != len(fl):
		err = fmt.Errorf("campaign reports %d faults, was given %d", sa.TotalFaults, len(fl))
	case sa.Detected+len(sa.Remaining) != sa.TotalFaults:
		err = fmt.Errorf("detected %d + undetected %d != %d faults", sa.Detected, len(sa.Remaining), sa.TotalFaults)
	case sa.Patterns > stuckAtPatterns || (len(sa.Remaining) > 0 && sa.Patterns != stuckAtPatterns):
		err = fmt.Errorf("applied %d patterns, budget %d", sa.Patterns, stuckAtPatterns)
	}
	r.done(in, "stuck-at", err, func(q *quality) {
		if err == nil {
			q.saDetected += float64(sa.Detected)
		}
		q.saFaults += float64(len(fl))
	})

	var pd delay.CampaignResult
	r.call(in, "pdf", "delay", "delay.RunRandom", func(*obs.Tracer) {
		pd = delay.RunRandom(in.c, delay.CampaignOptions{MaxPairs: pdfPairs, QuietPairs: pdfQuiet, Seed: campaignSeed})
	})
	err = nil
	switch {
	case pd.TotalFaults != 2*in.paths:
		err = fmt.Errorf("campaign reports %d path faults, the netlist has 2 x %d paths", pd.TotalFaults, in.paths)
	case uint64(pd.Detected) > pd.TotalFaults || pd.Pairs > pdfPairs:
		err = fmt.Errorf("detected %d of %d path faults in %d pairs", pd.Detected, pd.TotalFaults, pd.Pairs)
	}
	r.done(in, "pdf", err, func(q *quality) {
		if err == nil {
			q.pdfDetected += float64(pd.Detected)
		}
		q.pdfFaults += float64(2 * in.paths)
	})
}

// mismatchError reports a returned netlist that computes another function
// than its input: the one failure that makes a run incorrect.
type mismatchError struct{ bad, applied int }

func (e *mismatchError) Error() string {
	return fmt.Sprintf("returned netlist differs from its input on %d of %d patterns", e.bad, e.applied)
}

// rewrite holds the benchmark's own counts of a netlist before and after a
// rewriting call.
type rewrite struct {
	gatesBefore, gatesAfter int
	pathsBefore, pathsAfter uint64
}

// gateRatio and pathRatio give after/before, or 1 (no improvement) for a
// failed call.
func (o rewrite) gateRatio(err error) float64 {
	if err != nil || o.gatesBefore == 0 {
		return 1
	}
	return float64(o.gatesAfter) / float64(o.gatesBefore)
}

func (o rewrite) pathRatio(err error) float64 {
	if err != nil || o.pathsBefore == 0 {
		return 1
	}
	return float64(o.pathsAfter) / float64(o.pathsBefore)
}

// checkRewrite compares a returned netlist with the input text it came
// from, using the benchmark's evaluator, and compares the gate and path
// counts the program reports with the benchmark's own (a zero reported
// path count is not compared: redundancy.Result carries none).
func checkRewrite(in *input, out *circuit.Circuit, gatesBefore, gatesAfter int, pathsBefore, pathsAfter uint64) (rewrite, error) {
	got, err := fromCircuit(out)
	if err != nil {
		return rewrite{}, fmt.Errorf("returned netlist: %v", err)
	}
	bad, applied, err := mismatch(in.ref, got, in.checkSeed)
	if err != nil {
		return rewrite{}, fmt.Errorf("returned netlist: %v", err)
	}
	if bad > 0 {
		return rewrite{}, &mismatchError{bad, applied}
	}
	o := rewrite{gatesBefore: in.ref.equiv2(), gatesAfter: got.equiv2(), pathsBefore: in.paths}
	if o.pathsAfter, err = got.paths(); err != nil {
		return rewrite{}, fmt.Errorf("returned netlist: %v", err)
	}
	switch {
	case gatesBefore != o.gatesBefore || gatesAfter != o.gatesAfter:
		return rewrite{}, fmt.Errorf("reports gates %d->%d, benchmark counts %d->%d",
			gatesBefore, gatesAfter, o.gatesBefore, o.gatesAfter)
	case pathsBefore != 0 && (pathsBefore != o.pathsBefore || pathsAfter != o.pathsAfter):
		return rewrite{}, fmt.Errorf("reports paths %d->%d, benchmark counts %d->%d",
			pathsBefore, pathsAfter, o.pathsBefore, o.pathsAfter)
	}
	return o, nil
}
