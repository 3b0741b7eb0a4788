// Package subckt enumerates candidate subcircuits for replacement and
// extracts the functions they implement (Section 4.1 of the paper).
//
// A candidate C' is a set of gates with a designated output g. Its inputs I'
// are the lines that feed gates of C' from outside, at most K of them. The
// candidates of g are the subcircuits induced by g's K-feasible cuts
// (cuts.go).
package subckt

import (
	"compsynth/internal/circuit"
	"compsynth/internal/logic"
)

// Subcircuit is one candidate C' with output Out.
type Subcircuit struct {
	Out int // output node ID (a gate of the host circuit)
	// Gates lists the node IDs inside C', absorbed constants included, with
	// fanins before consumers: every gate comes after the gates of C' that
	// drive it, so Out is last. Extract evaluates in this order and
	// GateSavings decides removability in the reverse order.
	Gates  []int
	Inputs []int // external driving node IDs, sorted ascending
}

// Scratch is caller-owned working storage for the candidate kernels:
// per-node marks, per-node 64-pattern words for Extract, the walk's stack
// and output buffers, and the storage EnumerateFromCuts hands its
// candidates out of. A node's mark is live only while its stamp equals the
// current epoch, so starting a new marking costs one increment instead of a
// clear. One Scratch serves one goroutine; the zero value is ready to use,
// and once grown it makes the kernels allocation-free.
type Scratch struct {
	stamp []uint32
	mark  []uint8 // meaningful only where stamp == epoch
	epoch uint32

	vals  []uint64 // Extract: current word per node ID
	buf   []uint64 // Extract: fanin words of one gate
	stack []walkFrame
	ids   []int        // walk: the gates, fanins first
	in    []int        // walk: the inputs, sorted
	flat  []int        // EnumerateFromCuts: every candidate's gates and inputs
	sizes []int        // EnumerateFromCuts: per candidate, len(Gates), len(Inputs)
	subs  []Subcircuit // EnumerateFromCuts: the candidates
}

// Marks a node can carry within one epoch.
const (
	markCut       uint8 = iota + 1 // cut line not yet reached from C'
	markInput                      // cut line feeding a gate of C'
	markGate                       // gate of C' (or absorbed constant)
	markRemovable                  // GateSavings: disappears with C'
)

type walkFrame struct{ id, pin int }

// begin starts a fresh marking over node IDs 0..n-1.
func (sc *Scratch) begin(n int) {
	sc.stamp = grow(sc.stamp, n)
	sc.mark = grow(sc.mark, n)
	sc.epoch++
	if sc.epoch == 0 {
		// The counter wrapped: stamps from 2^32 epochs ago would read as
		// current.
		clear(sc.stamp)
		sc.epoch = 1
	}
}

func (sc *Scratch) set(id int, m uint8) {
	sc.stamp[id] = sc.epoch
	sc.mark[id] = m
}

func (sc *Scratch) get(id int) uint8 {
	if sc.stamp[id] != sc.epoch {
		return 0
	}
	return sc.mark[id]
}

// grow extends s with zero values to length n; growth is amortized by
// append, and elements past the old length are always fresh zeros.
func grow[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return append(s, make([]T, n-len(s))...)
}

// Extract writes into dst the truth table of the function C' implements on
// Out, over the inputs in Subcircuit.Inputs order (input j = variable
// y_{j+1}, most significant first, per the logic package convention). It
// evaluates Gates in order, 64 minterms at a time, on a word array indexed
// by node ID. dst's words are reused when large enough, so with dst and sc
// grown once the call allocates nothing.
func (sc *Scratch) Extract(s *Subcircuit, c *circuit.Circuit, dst *logic.TT) {
	n := len(s.Inputs)
	dst.Reset(n)
	sc.vals = grow(sc.vals, len(c.Nodes))
	vals := sc.vals
	words := dst.Words()
	for w := range words {
		for j, in := range s.Inputs {
			vals[in] = logic.VarWord(n-1-j, w)
		}
		for _, id := range s.Gates {
			nd := c.Nodes[id]
			buf := sc.buf[:0]
			for _, f := range nd.Fanin {
				buf = append(buf, vals[f])
			}
			sc.buf = buf
			vals[id] = nd.Type.EvalWords(buf)
		}
		words[w] = vals[s.Out]
	}
	// Trim invalid high bits for n < 6.
	if n < 6 {
		words[0] &= (uint64(1) << (1 << n)) - 1
	}
}

// GateSavings returns the equivalent-2-input weight of the gates that
// disappear if C' is replaced by a new realization driving Out: the paper's
// N for this candidate ("common gates are not included in the count N").
// A gate is removable iff it is Out (its consumers are rewired to the
// replacement), or it drives no primary output and every fanout pin goes to
// a removable gate of C'. Gates lists consumers after their fanins, so one
// reverse pass decides every consumer inside C' before its producers.
func (sc *Scratch) GateSavings(s *Subcircuit, c *circuit.Circuit) int {
	sc.begin(len(c.Nodes))
	n := 0
	for i := len(s.Gates) - 1; i >= 0; i-- {
		id := s.Gates[i]
		if id != s.Out && !sc.removable(c, id) {
			continue
		}
		sc.set(id, markRemovable)
		nd := c.Nodes[id]
		n += circuit.Equiv2Weight(nd.Type, len(nd.Fanin))
	}
	return n
}

// removable reports whether every consumer of id is already marked
// removable and id drives no primary output.
func (sc *Scratch) removable(c *circuit.Circuit, id int) bool {
	for _, consumer := range c.Fanouts(id) {
		if sc.get(consumer) != markRemovable {
			return false
		}
	}
	return c.NumPOUses(id) == 0
}
