// Command faultsim runs a random-pattern stuck-at fault simulation campaign
// on a .bench netlist (the Table 6 measurement for a single circuit).
//
// Usage:
//
//	faultsim [-patterns n] [-seed n] [-list-remaining] [-workers n]
//	         [-trace] [-metrics-out report.json] [-v] [-listen addr]
//	         [-events file] circuit.bench
package main

import (
	"flag"
	"fmt"
	"os"

	"compsynth"
	"compsynth/internal/faults"
	"compsynth/internal/faultsim"
	_ "compsynth/internal/ledger" // wires the -events ledger and -cert certifier
	"compsynth/internal/obs"
	_ "compsynth/internal/obs/telemetry" // wires the -listen telemetry server
)

func main() {
	patterns := flag.Int("patterns", 1<<20, "random patterns to apply")
	seed := flag.Int64("seed", 1, "pattern generator seed")
	list := flag.Bool("list-remaining", false, "list undetected faults")
	oflags := obs.AddFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: faultsim [-patterns n] [-seed n] circuit.bench")
		os.Exit(2)
	}
	run := oflags.Start("faultsim")
	lg := run.Log
	if *patterns < 1 {
		os.Exit(run.Fail(fmt.Errorf("-patterns %d: want at least 1 pattern", *patterns)))
	}
	c, err := compsynth.LoadBench(flag.Arg(0))
	if err != nil {
		os.Exit(run.Fail(err))
	}
	run.CircuitBefore(c)
	if err := run.CheckCircuit("input", c); err != nil {
		os.Exit(run.Fail(err))
	}
	run.SetCertOptions(struct {
		Patterns int   `json:"patterns"`
		Seed     int64 `json:"seed"`
	}{*patterns, *seed})
	fl := faults.Collapse(c)
	res := faultsim.Campaign(c, fl, faultsim.CampaignOptions{
		Patterns: *patterns, Seed: *seed, Workers: oflags.Workers, Tracer: run.Tracer,
	})
	lg.Printf("%s: %v", c.Name, c.Stats())
	lg.Printf("collapsed faults: %d", len(fl))
	lg.Printf("detected: %d (%.3f%%), remaining: %d",
		res.Detected, 100*res.Coverage(), len(res.Remaining))
	lg.Printf("last effective pattern: %d of %d applied", res.LastEffective, res.Patterns)
	if *list {
		for _, f := range res.Remaining {
			lg.Printf("  undetected: %v", f)
		}
	}
	run.Report.AddResult("stuck_at", map[string]any{
		"total_faults":   res.TotalFaults,
		"detected":       res.Detected,
		"remaining":      len(res.Remaining),
		"coverage":       res.Coverage(),
		"last_effective": res.LastEffective,
		"patterns":       res.Patterns,
	})
	if err := run.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "faultsim: %v\n", err)
		os.Exit(1)
	}
}
