// Path delay fault testability: the paper's headline result. Procedure 2
// removes mostly untestable paths, so the robust path-delay-fault coverage
// of random two-pattern tests rises sharply while stuck-at testability is
// unchanged.
package main

import (
	"fmt"
	"log"

	"compsynth"
	"compsynth/internal/gen"
)

func main() {
	bench := gen.Bench{Name: "pdfdemo", Params: gen.Params{
		Name: "pdfdemo", Inputs: 20, Outputs: 12, Gates: 180, Layers: 8,
		MaxFanin: 3, Locality: 0.75, InvProb: 0.15, Seed: 777,
	}}
	c := bench.Build()
	rr, err := compsynth.RemoveRedundancy(c)
	if err != nil {
		log.Fatal(err)
	}
	c = rr.Circuit

	res, err := compsynth.OptimizeGates(c, 5)
	if err != nil {
		log.Fatal(err)
	}
	mod := res.Circuit
	if rr2, err := compsynth.RemoveRedundancy(mod); err == nil {
		mod = rr2.Circuit
	}

	const pairs, quiet, seed = 20000, 2000, 7
	before, err := compsynth.PathDelayCampaign(c, pairs, quiet, seed)
	if err != nil {
		log.Fatal(err)
	}
	after, err := compsynth.PathDelayCampaign(mod, pairs, quiet, seed)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-10s %12s %12s %10s\n", "", "detected", "faults", "coverage")
	fmt.Printf("%-10s %12d %12d %9.2f%%\n", "original",
		before.Detected, before.TotalFaults, 100*before.Coverage())
	fmt.Printf("%-10s %12d %12d %9.2f%%\n", "modified",
		after.Detected, after.TotalFaults, 100*after.Coverage())

	removedFaults := int64(before.TotalFaults) - int64(after.TotalFaults)
	removedUndet := (int64(before.TotalFaults) - int64(before.Detected)) -
		(int64(after.TotalFaults) - int64(after.Detected))
	fmt.Printf("\npath delay faults removed:        %d\n", removedFaults)
	fmt.Printf("UNDETECTED faults removed:        %d\n", removedUndet)
	if removedFaults > 0 {
		fmt.Printf("share of removals that were dead: %.1f%%\n",
			100*float64(removedUndet)/float64(removedFaults))
	}

	// Stuck-at testability is unchanged (Table 6's claim).
	saB := compsynth.StuckAtCampaign(c, 1<<16, seed)
	saA := compsynth.StuckAtCampaign(mod, 1<<16, seed)
	fmt.Printf("\nstuck-at: original %d/%d detected; modified %d/%d detected\n",
		saB.Detected, saB.TotalFaults, saA.Detected, saA.TotalFaults)
}
