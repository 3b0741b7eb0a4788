package delay

import (
	"errors"
	"math"

	"compsynth/internal/circuit"
	"compsynth/internal/metric"
	"compsynth/internal/paths"
)

// Campaign metrics.
var (
	mPairs       = metric.C("delay.pairs_simulated")
	mPDFDetected = metric.C("delay.path_faults_detected")
)

// Robust sensitization (Lin-Reddy conditions): an on-path transition
// propagates robustly through a gate iff
//
//   - when the transition moves TOWARD the gate's controlling value, every
//     side input holds the steady non-controlling value (S1 for AND/NAND,
//     S0 for OR/NOR);
//   - when it moves AWAY from the controlling value, every side input
//     settles at the non-controlling value, possibly with a same-direction
//     transition (S1 or R for AND/NAND, S0 or F for OR/NOR);
//   - NOT/BUF propagate unconditionally; XOR/XNOR require all side inputs
//     steady.

// sideOK reports whether side-input value s permits robust propagation of
// on-input value t (R or F) through a gate of type gt.
func sideOK(gt circuit.GateType, t, s V5) bool {
	switch gt {
	case circuit.Not, circuit.Buf:
		return true
	case circuit.And, circuit.Nand:
		if t == F { // toward controlling 0
			return s == S1
		}
		return s == S1 || s == R
	case circuit.Or, circuit.Nor:
		if t == R { // toward controlling 1
			return s == S0
		}
		return s == S0 || s == F
	case circuit.Xor, circuit.Xnor:
		return s == S0 || s == S1
	}
	return false
}

// EdgeRobust reports whether the fanin edge (pin `pin` of gate id) is
// robustly sensitized under the node values val: the on-input carries a
// transition, the gate output carries the corresponding transition, and all
// side inputs satisfy the robust conditions.
func EdgeRobust(c *circuit.Circuit, val []V5, id, pin int) bool {
	nd := c.Nodes[id]
	t := val[nd.Fanin[pin]]
	if t != R && t != F {
		return false
	}
	out := val[id]
	if out != R && out != F {
		return false
	}
	for i, f := range nd.Fanin {
		if i == pin {
			continue
		}
		if !sideOK(nd.Type, t, val[f]) {
			return false
		}
	}
	return true
}

// PathRobust reports whether the structural path (a PI-to-PO node sequence
// with per-step pin indices) is robustly tested by the pair (v1, v2). The
// launch transition is val[path[0]].
func PathRobust(c *circuit.Circuit, nodesOnPath []int, pins []int, v1, v2 []bool) bool {
	if len(nodesOnPath) < 1 || len(pins) != len(nodesOnPath)-1 {
		return false
	}
	val := Sim5(c, v1, v2)
	t := val[nodesOnPath[0]]
	if t != R && t != F {
		return false
	}
	for i := 1; i < len(nodesOnPath); i++ {
		if !EdgeRobust(c, val, nodesOnPath[i], pins[i-1]) {
			return false
		}
	}
	return true
}

// Path is a structural PI-to-PO path.
type Path struct {
	Nodes []int // node IDs from PI (or constant-free source) to PO driver
	Pins  []int // Pins[i] is the fanin pin of Nodes[i+1] fed by Nodes[i]
}

// edge is one fanout connection: pin `Pin` of gate `To`.
type edge struct {
	To, Pin int
}

// outEdges builds, for every node, the list of (consumer, pin) connections.
func outEdges(c *circuit.Circuit) [][]edge {
	es := make([][]edge, len(c.Nodes))
	for _, nd := range c.Nodes {
		if nd == nil || !c.Alive(nd.ID) {
			continue
		}
		for pin, f := range nd.Fanin {
			es[f] = append(es[f], edge{To: nd.ID, Pin: pin})
		}
	}
	return es
}

// EnumeratePaths lists all PI-to-PO paths, up to limit (0 = unlimited).
// Intended for small circuits (units, examples, tests); campaigns never
// enumerate.
func EnumeratePaths(c *circuit.Circuit, limit int) []Path {
	poUses := map[int]int{}
	for _, o := range c.Outputs {
		poUses[o]++
	}
	es := outEdges(c)
	var out []Path
	var nodesOnPath []int
	var pins []int
	var dfs func(id int)
	dfs = func(id int) {
		if limit > 0 && len(out) >= limit {
			return
		}
		nodesOnPath = append(nodesOnPath, id)
		defer func() { nodesOnPath = nodesOnPath[:len(nodesOnPath)-1] }()
		for i := 0; i < poUses[id]; i++ {
			out = append(out, Path{
				Nodes: append([]int(nil), nodesOnPath...),
				Pins:  append([]int(nil), pins...),
			})
		}
		for _, e := range es[id] {
			pins = append(pins, e.Pin)
			dfs(e.To)
			pins = pins[:len(pins)-1]
		}
	}
	for _, in := range c.Inputs {
		dfs(in)
	}
	return out
}

// CampaignOptions configures a random-pattern robust PDF campaign.
type CampaignOptions struct {
	MaxPairs   int   // budget of two-pattern tests (0 = 20000)
	QuietPairs int   // stop after this many pairs with no new detection (0 = off)
	Seed       int64 // pattern generator seed

	// Workers bounds the goroutines of the campaign (0 =
	// runtime.GOMAXPROCS(0), 1 = serial). The 64-pair blocks run through
	// par.Ordered: workers walk them concurrently, and their detections are
	// merged in block order, so the result and every counter are the same
	// for every worker count.
	Workers int
}

// CampaignResult summarizes a campaign (Table 7 columns).
type CampaignResult struct {
	TotalFaults   uint64 // 2 * number of structural paths
	Detected      int    // distinct robustly detected path delay faults
	Pairs         int    // pairs applied
	LastEffective int    // 1-based index of the last pair detecting a new fault

	// Err is ErrTooManyFaults when the campaign did not run because its
	// fault count does not fit in TotalFaults; every other field is then
	// zero.
	Err error `json:"-"`
}

// ErrTooManyFaults reports a circuit with 2^63 or more structural paths:
// its two path delay faults per path number more than 2^64-1.
var ErrTooManyFaults = errors.New("delay: 2^63 or more paths; 2 faults per path exceed 2^64-1")

// Coverage returns detected / total.
func (r CampaignResult) Coverage() float64 {
	if r.TotalFaults == 0 {
		return 1
	}
	return float64(r.Detected) / float64(r.TotalFaults)
}

// RunRandom applies random two-pattern tests and counts the distinct path
// delay faults detected robustly. Detected faults are identified by a 64-bit
// FNV signature of the path's node sequence plus the launch direction, so no
// path enumeration or storage is needed; the denominator comes from
// Procedure 1. Pairs are simulated 64 at a time, and blocks of 64 are
// walked on opt.Workers workers (see lanes.go). One pair's search stops
// after 2^20 path-prefix visits: faults it would reach past that point are
// not counted for it. A circuit with 2^63 or more paths is not simulated:
// the result carries ErrTooManyFaults in Err.
func RunRandom(c *circuit.Circuit, opt CampaignOptions) CampaignResult {
	if opt.MaxPairs <= 0 {
		opt.MaxPairs = 20000
	}
	n, err := paths.Count(c)
	if err != nil || n > math.MaxUint64/2 {
		return CampaignResult{Err: ErrTooManyFaults}
	}
	res := runPairs(c, opt)
	res.TotalFaults = 2 * n
	return res
}

const fnvBasis = 14695981039346656037

func fnvMix(h, v uint64) uint64 {
	h ^= v
	h *= 1099511628211
	return h
}
