// Command figures regenerates the structures of the paper's Figures 1-6 and
// the robust test set of Table 1, printing each as a .bench netlist plus
// commentary.
//
// Usage:
//
//	figures [-trace] [-metrics-out report.json] [-v] [-events file]
package main

import (
	"flag"
	"fmt"
	"os"

	"compsynth/internal/bench"
	"compsynth/internal/compare"
	"compsynth/internal/delay"
	_ "compsynth/internal/ledger" // wires the -cert certifier
	"compsynth/internal/obs"
	"compsynth/internal/paths"
)

func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

func show(run *obs.Run, title string, s compare.Spec, merge bool) {
	sp := run.Tracer.StartSpan("figures.build")
	sp.SetStr("title", title)
	defer sp.End()
	lg := run.Log
	lg.Printf("== %s ==", title)
	lg.Printf("spec: %v, free=%d, geq=%v, leq=%v, gate cost=%d equiv-2-input",
		s, s.FreeCount(), s.GeqPresent(), s.LeqPresent(), s.GateCost())
	c := s.BuildStandalone("fig", compare.BuildOptions{Merge: merge})
	if err := run.CheckCircuit(title, c); err != nil {
		os.Exit(run.Fail(err))
	}
	fmt.Print(bench.String(c))
	total := paths.MustCount(c)
	lg.Printf("paths through unit: %d (bound: 2 per input)\n", total)
}

func main() {
	oflags := obs.AddFlags(flag.CommandLine)
	flag.Parse()
	run := oflags.Start("figures")
	lg := run.Log
	run.SetCertOptions(struct {
		Figures string `json:"figures"`
	}{"1-6"})

	// Figure 1: the comparison unit for the Section 3.1 example
	// (L=5, U=10 after permuting f2's inputs).
	show(run, "Figure 1: comparison unit, L=5, U=10",
		compare.Spec{N: 4, Perm: identity(4), L: 5, U: 10}, false)

	// Figure 3: the four example blocks. A block alone corresponds to a
	// one-sided interval.
	show(run, "Figure 3(a): >=3 block", compare.Spec{N: 4, Perm: identity(4), L: 3, U: 15}, false)
	show(run, "Figure 3(b): >=12 block (trailing-zero gates omitted)",
		compare.Spec{N: 4, Perm: identity(4), L: 12, U: 15}, false)
	show(run, "Figure 3(c): <=12 block", compare.Spec{N: 4, Perm: identity(4), L: 0, U: 12}, false)
	show(run, "Figure 3(d): <=3 block (trailing-one gates omitted)",
		compare.Spec{N: 4, Perm: identity(4), L: 0, U: 3}, false)

	// Figure 4: >=7 with same-type gate merging.
	show(run, "Figure 4: >=7 unit with merged AND gates",
		compare.Spec{N: 4, Perm: identity(4), L: 7, U: 15}, true)

	// Figure 5: free variables (L=5, U=7: x1, x2 free).
	show(run, "Figure 5: free-variable unit, L=5, U=7",
		compare.Spec{N: 4, Perm: identity(4), L: 5, U: 7}, false)

	// Figure 6 + Table 1: the L=11, U=12 unit and its robust test set.
	s := compare.Spec{N: 4, Perm: identity(4), L: 11, U: 12}
	show(run, "Figure 6: unit with L=11, U=12 (x1 free, L_F=3, U_F=4)", s, true)

	tsp := run.Tracer.StartSpan("figures.table1")
	lg.Printf("== Table 1: robust test set for the Figure 6 unit ==")
	lg.Printf("%-14s %-10s %-10s %-10s %-10s", "fault", "x1", "x2", "x3", "x4")
	c := s.BuildStandalone("f6", compare.BuildOptions{Merge: true})
	for _, ut := range s.TestSet() {
		cols := make([]string, 4)
		for j := 0; j < 4; j++ {
			v1, v2 := ut.V1[j], ut.V2[j]
			switch {
			case v1 == v2 && v1:
				cols[j] = "111"
			case v1 == v2:
				cols[j] = "000"
			case !v1:
				cols[j] = "0x1"
			default:
				cols[j] = "1x0"
			}
		}
		// Re-verify robustness through the 5-valued simulation.
		robust := false
		for _, p := range delay.EnumeratePaths(c, 0) {
			if delay.PathRobust(c, p.Nodes, p.Pins, ut.V1, ut.V2) {
				robust = true
				break
			}
		}
		mark := "robust"
		if !robust {
			mark = "NOT ROBUST?!"
		}
		lg.Printf("x%d %-10s %-10s %-10s %-10s %-10s %s",
			ut.Pos, ut.Block, cols[0], cols[1], cols[2], cols[3], mark)
	}
	tsp.End()
	if err := run.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
}
