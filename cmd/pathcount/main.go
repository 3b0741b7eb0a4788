// Command pathcount labels a .bench netlist with Procedure 1 and prints the
// number of PI-to-PO paths, optionally per output.
//
// Usage:
//
//	pathcount [-per-output] [-through line]
//	          [-trace] [-metrics-out report.json] [-v]
//	          [-events file] circuit.bench
package main

import (
	"flag"
	"fmt"
	"os"

	"compsynth"
	_ "compsynth/internal/ledger" // wires the -cert certifier
	"compsynth/internal/obs"
	"compsynth/internal/paths"
)

func main() {
	perOutput := flag.Bool("per-output", false, "print one line per primary output")
	through := flag.String("through", "", "also print the number of paths through this line")
	oflags := obs.AddFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pathcount [-per-output] [-through line] circuit.bench")
		os.Exit(2)
	}
	run := oflags.Start("pathcount")
	lg := run.Log
	c, err := compsynth.LoadBench(flag.Arg(0))
	if err != nil {
		os.Exit(run.Fail(err))
	}
	run.CircuitBefore(c)
	if err := run.CheckCircuit("input", c); err != nil {
		os.Exit(run.Fail(err))
	}
	run.SetCertOptions(struct {
		PerOutput bool   `json:"per_output"`
		Through   string `json:"through,omitempty"`
	}{*perOutput, *through})
	sp := run.Tracer.StartSpan("pathcount.label")
	total := compsynth.CountPathsBig(c)
	sp.End()
	lg.Printf("%s: %v paths (%v)", c.Name, total, c.Stats())
	run.Report.AddResult("paths", total.String())
	if *perOutput {
		np := paths.LabelsBig(c)
		for _, o := range c.Outputs {
			lg.Printf("  %-12s %v", c.Nodes[o].Name, np[o])
		}
	}
	if *through != "" {
		id := c.NodeByName(*through)
		if id < 0 {
			os.Exit(run.Fail(fmt.Errorf("no line named %q", *through)))
		}
		n := paths.Through(c, id)
		lg.Printf("  through %s: %d", *through, n)
		run.Report.AddResult("paths_through", map[string]any{"line": *through, "paths": n})
	}
	if err := run.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "pathcount: %v\n", err)
		os.Exit(1)
	}
}
