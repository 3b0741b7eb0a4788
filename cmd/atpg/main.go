// Command atpg runs PODEM on every collapsed stuck-at fault of a .bench
// netlist and classifies the circuit's faults as testable, redundant or
// aborted.
//
// Usage:
//
//	atpg [-backtracks n] [-filter n] [-tests]
//	     [-trace] [-metrics-out report.json] [-v] [-listen addr]
//	     [-events file] circuit.bench
package main

import (
	"flag"
	"fmt"
	"os"

	"compsynth"
	"compsynth/internal/atpg"
	"compsynth/internal/faults"
	"compsynth/internal/faultsim"
	_ "compsynth/internal/ledger" // wires the -events ledger and -cert certifier
	"compsynth/internal/obs"
	_ "compsynth/internal/obs/telemetry" // wires the -listen telemetry server
)

func main() {
	backtracks := flag.Int("backtracks", 20000, "PODEM backtrack limit")
	filter := flag.Int("filter", 2048, "random patterns to drop easy faults first (0 = none)")
	showTests := flag.Bool("tests", false, "print a test per hard testable fault")
	oflags := obs.AddFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: atpg [-backtracks n] circuit.bench")
		os.Exit(2)
	}
	run := oflags.Start("atpg")
	lg := run.Log
	if *filter < 0 {
		os.Exit(run.Fail(fmt.Errorf("-filter %d: want a pattern count, or 0 for no filter", *filter)))
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
		Backtracks int `json:"backtracks"`
		Filter     int `json:"filter"`
	}{*backtracks, *filter})
	fl := faults.Collapse(c)
	lg.Printf("%s: %v, %d collapsed faults", c.Name, c.Stats(), len(fl))

	hard := fl
	easy := 0
	if *filter > 0 {
		res := faultsim.Campaign(c, fl, faultsim.CampaignOptions{
			Patterns: *filter, Seed: 7, Workers: oflags.Workers, Tracer: run.Tracer,
		})
		hard = res.Remaining
		easy = res.Detected
		lg.Verbosef("random filter: %d of %d faults detected, %d left for PODEM",
			easy, len(fl), len(hard))
	}
	psp := run.Tracer.StartSpan("atpg.podem")
	testable, redundant, aborted := easy, 0, 0
	for _, f := range hard {
		r := atpg.Generate(c, f, atpg.Options{BacktrackLimit: *backtracks, Tracer: run.Tracer})
		switch r.Status {
		case atpg.Testable:
			testable++
			if *showTests {
				lg.Printf("  %v: test %v (%d backtracks)", f, asBits(r.Test), r.Backtracks)
			}
		case atpg.Redundant:
			redundant++
			lg.Printf("  %v: redundant", f)
		case atpg.Aborted:
			aborted++
			lg.Printf("  %v: aborted after %d backtracks", f, r.Backtracks)
		}
	}
	psp.End()
	lg.Printf("testable: %d (random: %d, podem: %d), redundant: %d, aborted: %d",
		testable, easy, testable-easy, redundant, aborted)
	if redundant == 0 && aborted == 0 {
		lg.Printf("circuit is fully testable for single stuck-at faults")
	}
	run.Report.AddResult("classification", map[string]int{
		"testable": testable, "random": easy, "podem": testable - easy,
		"redundant": redundant, "aborted": aborted,
	})
	if err := run.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "atpg: %v\n", err)
		os.Exit(1)
	}
}

func asBits(t []bool) string {
	b := make([]byte, len(t))
	for i, v := range t {
		if v {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}
