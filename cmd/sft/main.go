// Command sft runs the synthesis-for-testability flow on a .bench netlist:
// optional redundancy removal, Procedure 2 or 3 resynthesis, optional
// post-pass redundancy removal, and a testability report.
//
// Usage:
//
//	sft -in circuit.bench [-out out.bench] [-objective gates|paths|combined]
//	    [-k 5] [-sampling] [-redundancy] [-report] [-workers n]
//	    [-trace] [-metrics-out report.json] [-v] [-listen addr] [-events file]
package main

import (
	"flag"
	"fmt"
	"os"

	"compsynth"
	"compsynth/internal/delay"
	"compsynth/internal/faults"
	"compsynth/internal/faultsim"
	_ "compsynth/internal/ledger" // wires the -events ledger and -cert certifier
	"compsynth/internal/obs"
	_ "compsynth/internal/obs/telemetry" // wires the -listen telemetry server
	"compsynth/internal/redundancy"
	"compsynth/internal/resynth"
)

func main() {
	var (
		in        = flag.String("in", "", "input .bench netlist (required)")
		out       = flag.String("out", "", "output .bench netlist (optional)")
		objective = flag.String("objective", "gates", "gates (Procedure 2), paths (Procedure 3) or combined")
		k         = flag.Int("k", 5, "subcircuit input limit K")
		sampling  = flag.Bool("sampling", false, "use the paper's 200-permutation identification")
		redund    = flag.Bool("redundancy", true, "apply redundancy removal after resynthesis")
		maxUnits  = flag.Int("max-units", 1, "allow ORs of up to this many comparison units (Sec. 6 ext.)")
		useSDC    = flag.Bool("sdc", false, "use reachability don't-cares during identification (Sec. 6 ext.)")
		report    = flag.Bool("report", false, "print a testability report (stuck-at + path delay)")
		seed      = flag.Int64("seed", 1995, "seed for campaigns")
	)
	oflags := obs.AddFlags(flag.CommandLine)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	// Validate the objective before any work happens, so a typo cannot
	// waste a long resynthesis run (and so every parse failure exits
	// non-zero with a clear message, never mid-flow).
	var obj resynth.Objective
	switch *objective {
	case "gates":
		obj = resynth.MinGates
	case "paths":
		obj = resynth.MinPaths
	case "combined":
		obj = resynth.Combined
	default:
		fmt.Fprintf(os.Stderr, "sft: unknown -objective %q (want gates, paths or combined)\n", *objective)
		os.Exit(2)
	}

	run := oflags.Start("sft")
	if err := sft(run, *in, *out, obj, *k, *sampling, *redund, *maxUnits, *useSDC, *report, *seed, oflags.Workers); err != nil {
		os.Exit(run.Fail(err))
	}
	if err := run.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "sft: %v\n", err)
		os.Exit(1)
	}
}

func sft(run *obs.Run, in, out string, obj resynth.Objective, k int,
	sampling, redund bool, maxUnits int, useSDC, report bool, seed int64, workers int) error {
	lg := run.Log

	sp := run.Tracer.StartSpan("load")
	c, err := compsynth.LoadBench(in)
	sp.End()
	if err != nil {
		return err
	}
	run.CircuitBefore(c)
	if err := run.CheckCircuit("input", c); err != nil {
		return err
	}
	// The semantic options that determine the output, for the certificate
	// (machine knobs like -workers are deliberately excluded: they do not
	// change the result, and certificates must not depend on the host).
	run.SetCertOptions(struct {
		Objective  string `json:"objective"`
		K          int    `json:"k"`
		Sampling   bool   `json:"sampling"`
		Redundancy bool   `json:"redundancy"`
		MaxUnits   int    `json:"max_units"`
		SDC        bool   `json:"sdc"`
		Seed       int64  `json:"seed"`
	}{obj.String(), k, sampling, redund, maxUnits, useSDC, seed})
	lg.Printf("loaded %s: %v", in, c.Stats())
	p0, err := compsynth.CountPaths(c)
	if err != nil {
		return fmt.Errorf("path count: %v (use smaller circuits; count exceeds uint64)", err)
	}
	lg.Printf("paths: %d", p0)

	opt := resynth.DefaultOptions()
	opt.K = k
	opt.Objective = obj
	opt.UseSampling = sampling
	opt.MaxUnits = maxUnits
	opt.UseSDC = useSDC
	opt.Seed = seed
	opt.Tracer = run.Tracer
	opt.Dtrace = run.Dtrace()
	opt.Check = run.CheckEnabled()
	opt.Certify = run.CertEnabled()
	lg.Verbosef("resynthesis starting (objective=%v K=%d sampling=%v)", obj, k, sampling)
	res, err := compsynth.Optimize(c, opt)
	if err != nil {
		return err
	}
	run.Report.AddResult("resynth", res)
	for _, ev := range res.Evidence {
		run.AddEvidence(ev)
	}
	lg.Printf("resynthesis (%v, K=%d): %v", obj, k, res)

	final := res.Circuit
	if redund {
		ropt := redundancy.DefaultOptions()
		ropt.Workers = workers
		ropt.Tracer = run.Tracer
		lg.Verbosef("redundancy removal starting")
		rr, err := redundancy.Remove(final, ropt)
		if err != nil {
			return err
		}
		run.Report.AddResult("redundancy", rr)
		lg.Printf("redundancy removal: %v", rr)
		final = rr.Circuit
	}
	vsp := run.Tracer.StartSpan("verify")
	equiv := compsynth.Equivalent(c, final)
	vsp.End()
	if !equiv {
		return fmt.Errorf("internal error: result not equivalent to input")
	}
	run.CircuitAfter(final)
	if err := run.CheckCircuit("final", final); err != nil {
		return err
	}
	lg.Printf("final: %v, paths %d", final.Stats(), mustPaths(final))

	if report {
		ssp := run.Tracer.StartSpan("stuckat.campaign")
		sa := faultsim.Campaign(final, faults.Collapse(final), faultsim.CampaignOptions{
			Patterns: 1 << 16, Seed: seed, Workers: workers,
		})
		ssp.End()
		run.Report.AddResult("stuck_at", sa)
		lg.Printf("stuck-at: %d faults, %d undetected after %d random patterns (eff. %d)",
			sa.TotalFaults, len(sa.Remaining), sa.Patterns, sa.LastEffective)
		psp := run.Tracer.StartSpan("pathdelay.campaign")
		pd := delay.RunRandom(final, delay.CampaignOptions{
			MaxPairs: 10000, QuietPairs: 1000, Seed: seed,
		})
		psp.End()
		run.Report.AddResult("path_delay", pd)
		lg.Printf("robust PDF: %d/%d detected (%.2f%%), eff. pair %d",
			pd.Detected, pd.TotalFaults, 100*pd.Coverage(), pd.LastEffective)
	}
	if out != "" {
		if err := compsynth.SaveBench(final, out); err != nil {
			return err
		}
		lg.Printf("wrote %s", out)
	}
	return nil
}

func mustPaths(c *compsynth.Circuit) uint64 {
	n, err := compsynth.CountPaths(c)
	if err != nil {
		return 0
	}
	return n
}
