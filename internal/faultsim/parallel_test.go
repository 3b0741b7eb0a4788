package faultsim

import (
	"slices"
	"testing"

	"compsynth/internal/bench"
	"compsynth/internal/circuit"
	"compsynth/internal/faults"
	"compsynth/internal/gen"
)

// campaignWith runs one campaign and returns its result with the deltas of
// every faultsim counter: patterns (64 per block run), fault evaluations,
// stem evaluations and detections.
func campaignWith(c *circuit.Circuit, fl []faults.Fault, opt CampaignOptions) (CampaignResult, []int64) {
	counters := []interface{ Value() int64 }{mPatterns, mFaultEval, mStemEval, mDetected}
	before := make([]int64, len(counters))
	for i, ctr := range counters {
		before[i] = ctr.Value()
	}
	res := Campaign(c, fl, opt)
	obs := make([]int64, len(counters))
	for i, ctr := range counters {
		obs[i] = ctr.Value() - before[i]
	}
	return res, obs
}

// unevenCircuit holds an easy region, a 32-input XOR tree whose faults all
// fall in the first block, and a hard one, a 12-input AND whose faults
// each need 12 specific input values. The first wide block detects the
// easy region's faults, and the hard region's stay live in later blocks.
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

// c17s places k copies of c17 side by side (11k nodes). At 64 patterns and
// up, the first 64-pattern block detects every fault.
func c17s(k int) *circuit.Circuit {
	c := circuit.New("c17s")
	for i := 0; i < k; i++ {
		var in [5]int
		for j := range in {
			in[j] = c.AddInput("")
		}
		g10 := c.AddGate(circuit.Nand, "", in[0], in[2])
		g11 := c.AddGate(circuit.Nand, "", in[2], in[3])
		g16 := c.AddGate(circuit.Nand, "", in[1], g11)
		g19 := c.AddGate(circuit.Nand, "", g11, in[4])
		c.MarkOutput(c.AddGate(circuit.Nand, "", g10, g16))
		c.MarkOutput(c.AddGate(circuit.Nand, "", g16, g19))
	}
	return c
}

// TestParallelCampaignMatchesSerial is the determinism contract: at 2, 3,
// 4 and 8 workers the campaign reports the same detections, the same
// surviving faults in the same order and the same last-effective pattern
// as the serial campaign, and moves every faultsim counter (stem
// evaluations included, and the patterns counter, which counts the blocks
// run) exactly as it does. Four copies of c17 fan out, and their first
// wide block detects every fault, so no later block may run.
func TestParallelCampaignMatchesSerial(t *testing.T) {
	c17, err := bench.ParseString(bench.C17, "c17")
	if err != nil {
		t.Fatal(err)
	}
	circuits := []*circuit.Circuit{c17, unevenCircuit(), c17s(4)}
	for _, b := range gen.SmallSuite() {
		circuits = append(circuits, b.Build())
	}
	if n := c17s(4).Freeze().N(); n < sweepGrain {
		t.Fatalf("c17 x 4 has %d nodes, below the fan-out grain %d", n, sweepGrain)
	}
	for _, c := range circuits {
		fl := faults.Collapse(c)
		for _, patterns := range []int{64, 256, 512, 1024, 4096} {
			opt := CampaignOptions{Patterns: patterns, Seed: 42, Workers: 1}
			serial, serialObs := campaignWith(c, fl, opt)
			if serialObs[2] == 0 {
				t.Fatalf("%s: no stem evaluations counted: %v", c.Name, serialObs)
			}
			if c.Name == "c17s" && (len(serial.Remaining) > 0 || serialObs[0] != 64) {
				t.Fatalf("c17 x 4, %d patterns: %d faults left after %d patterns, want none after 64",
					patterns, len(serial.Remaining), serialObs[0])
			}
			for _, workers := range []int{2, 3, 4, 8} {
				opt.Workers = workers
				parallel, obs := campaignWith(c, fl, opt)
				if !campaignsEqual(serial, parallel) {
					t.Fatalf("%s %d patterns, workers %d:\nserial   %+v\nparallel %+v", c.Name, patterns, workers, serial, parallel)
				}
				if !slices.Equal(obs, serialObs) {
					t.Fatalf("%s %d patterns, workers %d: counter deltas %v, serial %v",
						c.Name, patterns, workers, obs, serialObs)
				}
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

// lateCircuit is unevenCircuit with a 9-input AND for its hard region:
// its faults fall within a few thousand patterns, so a campaign of 8,192
// detects every fault, the last ones in a wide block after the first.
func lateCircuit() *circuit.Circuit {
	c := circuit.New("late")
	var xs, as []int
	for i := 0; i < 32; i++ {
		xs = append(xs, c.AddInput(""))
	}
	for len(xs) > 1 {
		xs = append(xs[2:], c.AddGate(circuit.Xor, "", xs[0], xs[1]))
	}
	c.MarkOutput(xs[0])
	for i := 0; i < 9; i++ {
		as = append(as, c.AddInput(""))
	}
	c.MarkOutput(c.AddGate(circuit.And, "", as...))
	return c
}

// ringCampaign runs the campaign cs.campaign would, but calls the
// pipeline's Claim, Run and Merge itself: after wide block 0, which is
// merged before any other block is claimed, it claims and sweeps a whole
// ring of slots before merging any of them, so every block claimed after
// a detecting one is merged with a stale set whatever the scheduling. It
// returns the result, the deltas of the four faultsim counters and the
// number of stale merges.
func ringCampaign(c *circuit.Circuit, fl []faults.Fault, opt CampaignOptions) (CampaignResult, []int64, int) {
	counters := []interface{ Value() int64 }{mPatterns, mFaultEval, mStemEval, mDetected}
	before := make([]int64, len(counters))
	for i, ctr := range counters {
		before[i] = ctr.Value()
	}
	cs := &campaignState{}
	_, wide := cs.setup(c, fl, opt)
	stale, stop := 0, false
	for b := 0; b < wide && !stop; {
		hi := min(b+len(cs.slots), wide)
		if b == 0 {
			hi = 1
		}
		for k := b; k < hi; k++ {
			cs.Claim(k, 0)
			cs.Run(k, 0)
		}
		for ; b < hi && !stop; b++ {
			if cs.slots[b%len(cs.slots)].set != cs.cur {
				stale++
			}
			stop = cs.Merge(b)
		}
	}
	res := cs.result(fl)
	obs := make([]int64, len(counters))
	for i, ctr := range counters {
		obs[i] = ctr.Value() - before[i]
	}
	return res, obs, stale
}

// TestStaleSnapshotsMatchSerial pins the merge of blocks claimed before an
// earlier block's detections were merged, on circuits whose first wide
// block detects most faults, at budgets from one partial wide block to 32
// wide blocks. At 8 workers, and with a whole ring of slots swept before
// any is merged, the campaign gives the serial campaign's and the
// reference's results and moves all four faultsim counters as the serial
// campaign does, also when a stale block detects the last fault.
func TestStaleSnapshotsMatchSerial(t *testing.T) {
	c17, err := bench.ParseString(bench.C17, "c17")
	if err != nil {
		t.Fatal(err)
	}
	circuits := []*circuit.Circuit{c17, unevenCircuit(), lateCircuit()}
	for _, b := range gen.SmallSuite() {
		circuits = append(circuits, b.Build())
	}
	stale := 0
	for _, c := range circuits {
		fl := faults.Collapse(c)
		for _, patterns := range []int{64, 100, 320, 2112, 8192} {
			want, blocks, evals := RefCampaign(c, fl, patterns, 7)
			opt := CampaignOptions{Patterns: patterns, Seed: 7, Workers: 1}
			serial, serialObs := campaignWith(c, fl, opt)
			if !campaignsEqual(serial, want) {
				t.Fatalf("%s %d patterns serial:\ngot  %+v\nwant %+v", c.Name, patterns, serial, want)
			}
			if c.Name == "late" && patterns == 8192 && (len(want.Remaining) > 0 || blocks <= 4) {
				t.Fatalf("late: %d faults left after %d blocks, want none after the first wide block", len(want.Remaining), blocks)
			}
			if got, ref := []int64{serialObs[0], serialObs[1], serialObs[3]}, []int64{int64(blocks) * 64, int64(evals), int64(want.Detected)}; !slices.Equal(got, ref) {
				t.Fatalf("%s %d patterns serial: patterns, fault evals, detections %v, reference %v", c.Name, patterns, got, ref)
			}
			opt.Workers = 8
			parallel, obs := campaignWith(c, fl, opt)
			ring, ringObs, n := ringCampaign(c, fl, opt)
			stale += n
			for _, run := range []struct {
				name string
				res  CampaignResult
				obs  []int64
			}{{"8 workers", parallel, obs}, {"ring", ring, ringObs}} {
				if !campaignsEqual(run.res, serial) {
					t.Fatalf("%s %d patterns %s:\ngot    %+v\nserial %+v", c.Name, patterns, run.name, run.res, serial)
				}
				if !slices.Equal(run.obs, serialObs) {
					t.Fatalf("%s %d patterns %s: counter deltas %v, serial %v", c.Name, patterns, run.name, run.obs, serialObs)
				}
			}
		}
	}
	if stale == 0 {
		t.Fatal("no block was merged with a stale snapshot")
	}
}

// TestCampaignAllocsIndependentOfPatternsParallel is the allocation pin on
// a campaign that fans out: blocks in flight live in a fixed ring of slots
// sized before the fan-out, so two workers allocate exactly as much for
// 65,536 patterns as for 1,024. A redundant fault keeps every block busy,
// and the pin drives one bundle directly, as the serial pin does.
func TestCampaignAllocsIndependentOfPatternsParallel(t *testing.T) {
	c := unevenCircuit()
	a, b := c.Inputs[0], c.Inputs[1]
	and := c.AddGate(circuit.And, "and", a, b)
	c.MarkOutput(c.AddGate(circuit.Or, "or", a, and))
	if n := c.Freeze().N(); n < sweepGrain {
		t.Fatalf("%d nodes, below the fan-out grain %d", n, sweepGrain)
	}
	fl := faults.Collapse(c)
	if r := Campaign(c, fl, CampaignOptions{Patterns: 1024, Seed: 1, Workers: 2}); len(r.Remaining) == 0 {
		t.Fatal("the redundant fault was detected")
	}
	cs := &campaignState{}
	allocs := func(patterns int) float64 {
		return testing.AllocsPerRun(20, func() {
			cs.campaign(c, fl, CampaignOptions{Patterns: patterns, Seed: 1, Workers: 2})
		})
	}
	if short, long := allocs(1024), allocs(65536); short != long {
		t.Fatalf("allocs/run: %v at 1,024 patterns, %v at 65,536", short, long)
	}
}
