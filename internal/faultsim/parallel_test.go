package faultsim

import (
	"slices"
	"testing"

	"compsynth/internal/bench"
	"compsynth/internal/circuit"
	"compsynth/internal/faults"
	"compsynth/internal/gen"
)

// campaignWith runs one campaign and returns its result with the blocks
// gauge and every faultsim counter's delta.
func campaignWith(c *circuit.Circuit, fl []faults.Fault, workers int) (CampaignResult, []int64) {
	counters := []interface{ Value() int64 }{mPatterns, mFaultEval, mStemEval, mDetected}
	before := make([]int64, len(counters))
	for i, ctr := range counters {
		before[i] = ctr.Value()
	}
	res := Campaign(c, fl, CampaignOptions{Patterns: 512, Seed: 42, Workers: workers})
	obs := []int64{gBlocks.Value()}
	for i, ctr := range counters {
		obs = append(obs, ctr.Value()-before[i])
	}
	return res, obs
}

// unevenCircuit holds an easy region, a 32-input XOR tree whose faults all
// fall in the first block, and a hard one, a 12-input AND whose faults
// each need 12 specific input values. The deal puts them on different
// workers, which then stop after different blocks.
func unevenCircuit() *circuit.Circuit {
	c := circuit.New("uneven")
	var xs, as []int
	for i := 0; i < 32; i++ {
		xs = append(xs, c.AddInput(""))
	}
	for len(xs) > 1 {
		xs = append(xs[2:], c.AddGate(circuit.Xor, "", xs[0], xs[1]))
	}
	c.MarkOutput(xs[0])
	for i := 0; i < 12; i++ {
		as = append(as, c.AddInput(""))
	}
	c.MarkOutput(c.AddGate(circuit.And, "", as...))
	return c
}

// TestParallelCampaignMatchesSerial is the determinism contract: at 2, 4
// and 8 workers the campaign reports the same detections, the same
// surviving faults in the same order and the same last-effective pattern
// as the serial campaign, and moves every faultsim counter (stem
// evaluations included) and the blocks gauge exactly as it does.
func TestParallelCampaignMatchesSerial(t *testing.T) {
	c17, err := bench.ParseString(bench.C17, "c17")
	if err != nil {
		t.Fatal(err)
	}
	circuits := []*circuit.Circuit{c17, unevenCircuit()}
	for _, b := range gen.SmallSuite() {
		circuits = append(circuits, b.Build())
	}
	for _, c := range circuits {
		fl := faults.Collapse(c)
		serial, serialObs := campaignWith(c, fl, 1)
		if serialObs[3] == 0 {
			t.Fatalf("%s: no stem evaluations counted: %v", c.Name, serialObs)
		}
		for _, workers := range []int{2, 4, 8} {
			parallel, obs := campaignWith(c, fl, workers)
			if !campaignsEqual(serial, parallel) {
				t.Fatalf("%s workers %d:\nserial   %+v\nparallel %+v", c.Name, workers, serial, parallel)
			}
			if !slices.Equal(obs, serialObs) {
				t.Fatalf("%s workers %d: blocks gauge and counter deltas %v, serial %v",
					c.Name, workers, obs, serialObs)
			}
		}
	}
}

// TestCampaignAllocsIndependentOfPatterns pins that a serial campaign's
// allocations do not grow with its length: blocks run on the campaign's
// state bundle. The pin drives one bundle directly rather than through the
// pool, which the race detector empties at random.
func TestCampaignAllocsIndependentOfPatterns(t *testing.T) {
	c, err := bench.ParseString(bench.C17, "c17")
	if err != nil {
		t.Fatal(err)
	}
	// c17's faults all fall within a few blocks; a redundant fault, the
	// AND of x = OR(a, AND(a, b)), keeps every block busy.
	a, b := c.Inputs[0], c.Inputs[1]
	and := c.AddGate(circuit.And, "and", a, b)
	c.MarkOutput(c.AddGate(circuit.Or, "or", a, and))
	fl := faults.Collapse(c)
	if r := Campaign(c, fl, CampaignOptions{Patterns: 1024, Seed: 1, Workers: 1}); len(r.Remaining) == 0 {
		t.Fatal("the redundant fault was detected")
	}
	cs := &campaignState{}
	allocs := func(patterns int) float64 {
		return testing.AllocsPerRun(20, func() {
			cs.campaign(c, fl, CampaignOptions{Patterns: patterns, Seed: 1, Workers: 1})
		})
	}
	if short, long := allocs(1024), allocs(65536); short != long {
		t.Fatalf("allocs/run: %v at 1,024 patterns, %v at 65,536", short, long)
	}
}
