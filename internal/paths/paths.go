// Package paths implements Procedure 1 of the paper: counting the paths of a
// combinational circuit by labeling every line g with N_p(g), the number of
// paths from the primary inputs to g.
//
// Primary inputs get N_p = 1, a gate output gets the sum of its fanin labels,
// and a fanout branch carries its stem's label (implicit in the node model:
// each gate-input edge reads the driving node's label directly). The total
// path count is the sum over primary outputs — counted once per OUTPUT
// designation, matching the paper's line-based accounting.
package paths

import (
	"errors"
	"math/big"
	"sync"

	"compsynth/internal/circuit"
)

// ErrOverflow is reported by Count when the path count exceeds uint64.
var ErrOverflow = errors.New("paths: count overflows uint64; use CountBig")

// Labels computes N_p for every live node, as uint64 with saturation: if any
// label overflows, ok is false (use LabelsBig then).
func Labels(c *circuit.Circuit) (np []uint64, ok bool) {
	np = make([]uint64, len(c.Nodes))
	ok = true
	for _, id := range c.Topo() {
		v, nodeOK := LabelNode(c, np, id)
		np[id] = v
		ok = ok && nodeOK
	}
	return np, ok
}

// LabelNode computes N_p for a single node from the labels of its fanins
// (which must be up to date in np) and reports whether the label stayed in
// range (false = saturated to MaxUint64). It is the per-node step of Labels,
// exposed so incremental recomputation after a local rewiring can relabel
// just the affected cone: a node's label is a pure function of its fanin
// cone, so relabeling any superset of the changed cone in topological order
// reproduces exactly what a full Labels pass would compute.
func LabelNode(c *circuit.Circuit, np []uint64, id int) (uint64, bool) {
	nd := c.Nodes[id]
	switch nd.Type {
	case circuit.Input:
		return 1, true
	case circuit.Const0, circuit.Const1:
		// A constant originates no paths.
		return 0, true
	default:
		var sum uint64
		ok := true
		for _, f := range nd.Fanin {
			s := sum + np[f]
			if s < sum {
				ok = false
				s = ^uint64(0)
			}
			sum = s
		}
		return sum, ok
	}
}

// countScratch is the pooled per-call state of the CSR-backed counting
// sweeps, so steady-state Count/Through calls allocate nothing.
type countScratch struct {
	np []uint64
	w  []uint64
}

var countPool = sync.Pool{New: func() any { return new(countScratch) }}

func (s *countScratch) grow(n int) {
	if cap(s.np) < n {
		s.np = make([]uint64, n)
		s.w = make([]uint64, n)
	}
	s.np = s.np[:n]
	s.w = s.w[:n]
}

// denseLabels fills np (dense-indexed) with N_p labels by one linear sweep
// of the frozen view; dense order is topological, so every fanin label is
// ready when read. Saturation matches LabelNode bit for bit.
func denseLabels(v *circuit.CSR, np []uint64) (ok bool) {
	ok = true
	for d := 0; d < v.N(); d++ {
		switch v.Kind[d] {
		case circuit.Input:
			np[d] = 1
		case circuit.Const0, circuit.Const1:
			np[d] = 0
		default:
			var sum uint64
			for _, f := range v.FaninOf(int32(d)) {
				s := sum + np[f]
				if s < sum {
					ok = false
					s = ^uint64(0)
				}
				sum = s
			}
			np[d] = sum
		}
	}
	return ok
}

// Count returns the total number of PI-to-PO paths. It runs on the frozen
// CSR view of the circuit (Freeze is a cache hit when nothing changed) and
// returns exactly what the reference RefCount (ref_test.go) computes on the
// mutable representation.
func Count(c *circuit.Circuit) (uint64, error) {
	v := c.Freeze()
	s := countPool.Get().(*countScratch)
	defer countPool.Put(s)
	s.grow(v.N())
	ok := denseLabels(v, s.np)
	if !ok {
		return 0, ErrOverflow
	}
	var total uint64
	for _, o := range v.Out {
		t := total + s.np[o]
		if t < total {
			return 0, ErrOverflow
		}
		total = t
	}
	return total, nil
}

// MustCount is Count for circuits known to be within range (panics on
// overflow). Convenient in benchmarks and tables.
func MustCount(c *circuit.Circuit) uint64 {
	n, err := Count(c)
	if err != nil {
		panic(err)
	}
	return n
}

// LabelsBig computes exact N_p labels using arbitrary precision.
func LabelsBig(c *circuit.Circuit) []*big.Int {
	np := make([]*big.Int, len(c.Nodes))
	for _, id := range c.Topo() {
		nd := c.Nodes[id]
		switch nd.Type {
		case circuit.Input:
			np[id] = big.NewInt(1)
		case circuit.Const0, circuit.Const1:
			np[id] = big.NewInt(0)
		default:
			sum := new(big.Int)
			for _, f := range nd.Fanin {
				sum.Add(sum, np[f])
			}
			np[id] = sum
		}
	}
	return np
}

// CountBig returns the exact total path count.
func CountBig(c *circuit.Circuit) *big.Int {
	np := LabelsBig(c)
	total := new(big.Int)
	for _, o := range c.Outputs {
		total.Add(total, np[o])
	}
	return total
}

// denseWeights fills w (dense-indexed) with the PO-forward path weights by
// one reverse linear sweep of the frozen view.
func denseWeights(v *circuit.CSR, w []uint64) {
	for i := range w {
		w[i] = 0
	}
	for _, o := range v.Out {
		w[o]++
	}
	for d := v.N() - 1; d >= 0; d-- {
		for _, f := range v.FaninOf(int32(d)) {
			w[f] += w[d]
		}
	}
}

// FanoutWeights computes, for each node g, the number of paths from g to any
// primary output (the "K_p-forward" weight): POs seed 1 per designation, and
// a node's weight is the sum of its consumers' weights over each consuming
// pin. Together with Labels this gives the number of paths through any line:
// through(g) = Labels[g] * FanoutWeights[g]. The returned slice is indexed
// by sparse node ID (dead nodes weigh 0), as before the CSR port.
func FanoutWeights(c *circuit.Circuit) []uint64 {
	v := c.Freeze()
	s := countPool.Get().(*countScratch)
	defer countPool.Put(s)
	s.grow(v.N())
	denseWeights(v, s.w)
	w := make([]uint64, len(c.Nodes))
	for d, id := range v.NodeID {
		w[id] = s.w[d]
	}
	return w
}

// Through returns the number of PI-to-PO paths passing through node id.
func Through(c *circuit.Circuit, id int) uint64 {
	v := c.Freeze()
	d := v.DenseOf[id]
	if d < 0 {
		return 0
	}
	s := countPool.Get().(*countScratch)
	defer countPool.Put(s)
	s.grow(v.N())
	denseLabels(v, s.np)
	denseWeights(v, s.w)
	return s.np[d] * s.w[d]
}
