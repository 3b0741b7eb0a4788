package rambo

import (
	"fmt"

	"compsynth/internal/circuit"
	"compsynth/internal/logic"
	"compsynth/internal/paths"
	"compsynth/internal/simulate"
	"compsynth/internal/subckt"
)

// Fixed limits of every run. Each candidate function is minimized both as
// given and complemented (the offset, inverted at the output).
const (
	maxCandidates = 24   // cuts per node
	maxPasses     = 12   // fixpoint cap
	verifySeed    = 1993 // seed of pass 0's equivalence check
)

// Options configures the baseline optimizer.
type Options struct {
	K      int  // cut input limit
	Verify bool // check every pass's output against the input circuit
}

// DefaultOptions mirrors the paper's comparison setup (K = 6 in Table 3).
func DefaultOptions() Options {
	return Options{K: 6, Verify: true}
}

// Result reports an optimization run.
type Result struct {
	Circuit      *circuit.Circuit
	Passes       int
	Replacements int
	GatesBefore  int
	GatesAfter   int
	PathsBefore  uint64
	PathsAfter   uint64
}

func (r *Result) String() string {
	return fmt.Sprintf("passes=%d repl=%d gates %d->%d paths %d->%d",
		r.Passes, r.Replacements, r.GatesBefore, r.GatesAfter, r.PathsBefore, r.PathsAfter)
}

// Optimize resubstitutes K-input cones by minimized factored realizations
// whenever that reduces the equivalent-2-input gate count. The input circuit
// is not modified; with Verify set, every pass's output is checked against
// it.
func Optimize(c *circuit.Circuit, opt Options) (*Result, error) {
	if opt.K <= 0 {
		return nil, fmt.Errorf("rambo: invalid options")
	}
	poNames := c.PONames()
	work := c.Clone()
	work.Simplify()
	work, _ = work.Compact()
	res := &Result{GatesBefore: c.Equiv2Count(), PathsBefore: paths.MustCount(c)}
	cache := map[string][]Cube{}
	for pass := 0; pass < maxPasses; pass++ {
		n := onePass(work, opt.K, cache)
		res.Passes++
		res.Replacements += n
		work.Simplify()
		work, _ = work.Compact()
		if opt.Verify && !simulate.EquivalentRandom(c, work, 32, 14, verifySeed+int64(pass)) {
			return nil, fmt.Errorf("rambo: pass %d broke equivalence", pass)
		}
		if n == 0 {
			break
		}
	}
	work.PreservePONames(poNames)
	res.Circuit = work
	res.GatesAfter = work.Equiv2Count()
	res.PathsAfter = paths.MustCount(work)
	return res, nil
}

func onePass(c *circuit.Circuit, k int, cache map[string][]Cube) int {
	db := subckt.ComputeCuts(c, k, maxCandidates)
	topo := c.Topo()
	replaced := 0
	// Candidate storage and tables, reused from gate to gate.
	var sc subckt.Scratch
	var tt, stt logic.TT
	var kept []int
	for i := len(topo) - 1; i >= 0; i-- {
		g := topo[i]
		if !c.Alive(g) {
			continue
		}
		nd := c.Nodes[g]
		if nd.Type == circuit.Input || nd.Type == circuit.Const0 || nd.Type == circuit.Const1 {
			continue
		}
		type plan struct {
			sub        *subckt.Subcircuit
			cubes      []Cube
			complement bool
			keepInputs []int
			save       int
		}
		var best *plan
		subs := db.EnumerateFromCuts(c, g, &sc)
		for i := range subs {
			sub := &subs[i]
			sc.Extract(sub, c, &tt)
			if kept = tt.Shrink(&stt, kept); stt.Vars() == 0 {
				continue
			}
			keepInputs := make([]int, len(kept))
			for j, v := range kept {
				keepInputs[j] = sub.Inputs[v-1]
			}
			for _, compl := range []bool{false, true} {
				f := stt
				if compl {
					f = stt.Not()
				}
				cubes := minimizeCached(cache, f)
				cost, _ := FactoredCost(f.Vars(), cubes)
				save := sc.GateSavings(sub, c) - cost
				if best == nil || save > best.save {
					best = &plan{sub: sub, cubes: cubes, complement: compl,
						keepInputs: keepInputs, save: save}
				}
			}
		}
		if best == nil || best.save <= 0 {
			continue
		}
		n := len(best.keepInputs)
		first := len(c.Nodes)
		out := BuildFactored(c, n, best.cubes, best.keepInputs, fmt.Sprintf("rb%d_", g))
		if best.complement {
			out = c.AddGate(circuit.Not, fmt.Sprintf("rb%d_inv", g), out)
		}
		if out == g {
			continue
		}
		c.ReplaceUses(g, out)
		// Only g's cone and the nodes just built can have lost their
		// last use.
		c.Kill(g)
		for id := first; id < len(c.Nodes); id++ {
			c.Kill(id)
		}
		replaced++
	}
	return replaced
}

func minimizeCached(cache map[string][]Cube, tt logic.TT) []Cube {
	key := fmt.Sprintf("%d:%x", tt.Vars(), tt.Words())
	if c, ok := cache[key]; ok {
		return c
	}
	c := Minimize(tt)
	cache[key] = c
	return c
}
