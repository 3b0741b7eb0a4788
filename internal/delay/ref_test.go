package delay

// The robust path-delay campaign this package shipped before the
// word-parallel one, kept as the test oracle: it simulates one pair at a
// time with Sim5 and walks the robustly sensitized paths with EdgeRobust.
// TestRunRandomMatchesRef pins RunRandom to it (CampaignResult and the
// delay.* counter deltas). Apart from the ref prefix on its names and
// reading the visitCap constant in place of the removed
// CampaignOptions.VisitCap, the code below is unchanged.

import (
	"math/rand"

	"compsynth/internal/circuit"
	"compsynth/internal/paths"
)

func refRunRandom(c *circuit.Circuit, opt CampaignOptions) CampaignResult {
	if opt.MaxPairs <= 0 {
		opt.MaxPairs = 20000
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	res := CampaignResult{TotalFaults: 2 * paths.MustCount(c)}
	detected := map[uint64]bool{}
	es := outEdges(c)
	poUses := map[int]int{}
	for _, o := range c.Outputs {
		poUses[o]++
	}
	v1 := make([]bool, len(c.Inputs))
	v2 := make([]bool, len(c.Inputs))
	quiet := 0
	for pair := 1; pair <= opt.MaxPairs; pair++ {
		mPairs.Inc()
		for j := range v1 {
			v1[j] = rng.Intn(2) == 1
			v2[j] = rng.Intn(2) == 1
		}
		val := Sim5(c, v1, v2)
		newFound := 0
		visits := 0
		// DFS over robustly sensitized edges only; every trail reaching a
		// PO line is a robustly detected path fault. The signature mixes
		// the launch direction, the node sequence, the pin index of each
		// edge (distinguishing parallel edges) and the PO-use index
		// (distinguishing multiply-designated output lines).
		var dfs func(id int, sig uint64)
		dfs = func(id int, sig uint64) {
			if visits >= visitCap {
				return
			}
			visits++
			sig = fnvMix(sig, uint64(id))
			for i := 0; i < poUses[id]; i++ {
				k := fnvMix(sig, uint64(1_000_000_007+i))
				if !detected[k] {
					detected[k] = true
					newFound++
				}
			}
			for _, e := range es[id] {
				if EdgeRobust(c, val, e.To, e.Pin) {
					dfs(e.To, fnvMix(sig, uint64(e.Pin)))
				}
			}
		}
		for _, in := range c.Inputs {
			if val[in] == R || val[in] == F {
				dfs(in, fnvMix(fnvBasis, uint64(refLaunchBit(val, in))))
			}
		}
		if newFound > 0 {
			res.Detected += newFound
			mPDFDetected.Add(int64(newFound))
			res.LastEffective = pair
			quiet = 0
		} else {
			quiet++
			if opt.QuietPairs > 0 && quiet >= opt.QuietPairs {
				res.Pairs = pair
				return res
			}
		}
	}
	res.Pairs = opt.MaxPairs
	return res
}

func refLaunchBit(val []V5, id int) int {
	if val[id] == F {
		return 1
	}
	return 0
}
