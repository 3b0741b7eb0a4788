// Package subckt enumerates candidate subcircuits for replacement and
// extracts the functions they implement (Section 4.1 of the paper).
//
// A candidate C' is a set of gates with a designated output g. Its inputs I'
// are the lines that feed gates of C' from outside, at most K of them. The
// candidates of g are the subcircuits induced by g's K-feasible cuts
// (cuts.go).
package subckt

import (
	"math/bits"
	"sync"

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

	key   Key // lazily computed by Key()
	keyed bool
}

// scratch is the pooled working set of the subcircuit kernels: per-node
// marks, per-node 64-pattern words for Extract, and the walk's stack and
// output buffers. A node's mark is live only while its stamp equals the
// current epoch, so starting a new marking costs one increment instead of a
// clear. Pooled so concurrent callers (the experiment driver runs one
// optimizer per table row) each grab their own.
type scratch struct {
	stamp []uint32
	mark  []uint8 // meaningful only where stamp == epoch
	epoch uint32

	vals  []uint64 // Extract: current word per node ID
	buf   []uint64 // Extract: fanin words of one gate
	stack []walkFrame
	ids   []int // walk: the gates, before the copy-out
	in    []int // walk: the inputs, before the copy-out
	flat  []int // EnumerateFromCuts: every candidate's gates and inputs
	sizes []int // EnumerateFromCuts: per candidate, len(Gates), len(Inputs)
}

// Marks a node can carry within one epoch.
const (
	markCut       uint8 = iota + 1 // cut line not yet reached from C'
	markInput                      // cut line feeding a gate of C'
	markGate                       // gate of C' (or absorbed constant)
	markRemovable                  // GateSavings: disappears with C'
)

type walkFrame struct{ id, pin int }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// begin starts a fresh marking over node IDs 0..n-1.
func (sc *scratch) begin(n int) {
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

func (sc *scratch) set(id int, m uint8) {
	sc.stamp[id] = sc.epoch
	sc.mark[id] = m
}

func (sc *scratch) get(id int) uint8 {
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

// Key is a canonical, fixed-size, comparable identity for a subcircuit
// within one circuit snapshot. The gate set is folded order-independently —
// each gate ID is hashed to 128 bits and the hashes are combined with two
// independent commutative operators (addition mod 2^128 and XOR) — so the
// key needs no sorted ID slice and no string: computing it allocates
// nothing. Out and the gate count ride along as exact fields.
//
// Each half of a gate's hash is a splitmix64 finalizer of the ID, salted
// differently per half. The finalizer is what keeps sums apart: with an
// affine per-ID hash, such as a one-word FNV digest, the sum depends only
// on the sum of the IDs xored with a constant, so cuts such as
// {54, 80, ...} and {76, 90, ...} would share a key and the per-pass
// extract cache would serve one cut's truth table for the other.
type Key struct {
	SumLo, SumHi uint64 // sum mod 2^128 of per-gate hashes
	XorLo        uint64 // xor fold of per-gate hash low halves
	Out          int32
	N            int32 // gate count
}

// Key returns the subcircuit's identity, computing it on first use. Two
// candidates with equal keys implement the same function as long as no gate
// in the set changed type or fanin, which holds for the duration of one
// optimizer pass (replacements only add nodes and rewire consumers of
// already-visited outputs), so Key doubles as the truth-table memoization
// key for Extract.
func (s *Subcircuit) Key() Key {
	if s.keyed {
		return s.key
	}
	k := Key{Out: int32(s.Out), N: int32(len(s.Gates))}
	for _, id := range s.Gates {
		lo, hi := mix64(uint64(id)^0x243f6a8885a308d3), mix64(uint64(id)^0x13198a2e03707344)
		var carry uint64
		k.SumLo, carry = bits.Add64(k.SumLo, lo, 0)
		k.SumHi, _ = bits.Add64(k.SumHi, hi, carry)
		k.XorLo ^= lo
	}
	s.key, s.keyed = k, true
	return k
}

// mix64 is the splitmix64 finalizer: a bijection on 64-bit words in which
// every input bit affects every output bit.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// varTabs caches the variable truth tables Var(n, 1..n) per input count, so
// Extract does not rebuild them for every candidate. The tables are
// immutable once published.
var (
	varTabMu sync.Mutex
	varTabs  = map[int][]logic.TT{}
)

func varTablesFor(n int) []logic.TT {
	varTabMu.Lock()
	defer varTabMu.Unlock()
	if t, ok := varTabs[n]; ok {
		return t
	}
	t := make([]logic.TT, n)
	for j := 0; j < n; j++ {
		t[j] = logic.Var(n, j+1)
	}
	varTabs[n] = t
	return t
}

// Extract computes the truth table of the function C' implements on Out,
// over the inputs in Subcircuit.Inputs order (input j = variable y_{j+1},
// most significant first, per the logic package convention). It evaluates
// Gates in order, 64 minterms at a time, on a pooled word array indexed by
// node ID, so steady-state calls allocate only the returned table.
func (s *Subcircuit) Extract(c *circuit.Circuit) logic.TT {
	sc := scratchPool.Get().(*scratch)
	tt := sc.extract(s, c)
	scratchPool.Put(sc)
	return tt
}

func (sc *scratch) extract(s *Subcircuit, c *circuit.Circuit) logic.TT {
	n := len(s.Inputs)
	tt := logic.New(n)
	vt := varTablesFor(n)
	sc.vals = grow(sc.vals, len(c.Nodes))
	vals := sc.vals
	words := tt.Words()
	for w := range words {
		for j, in := range s.Inputs {
			vals[in] = vt[j].Words()[w]
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
	return tt
}

// GateSavings returns the equivalent-2-input weight of the gates that
// disappear if C' is replaced by a new realization driving Out: the paper's
// N for this candidate ("common gates are not included in the count N").
// A gate is removable iff it is Out (its consumers are rewired to the
// replacement), or it drives no primary output and every fanout pin goes to
// a removable gate of C'. Gates lists consumers after their fanins, so one
// reverse pass decides every consumer inside C' before its producers.
func (s *Subcircuit) GateSavings(c *circuit.Circuit) int {
	sc := scratchPool.Get().(*scratch)
	n := sc.gateSavings(s, c)
	scratchPool.Put(sc)
	return n
}

func (sc *scratch) gateSavings(s *Subcircuit, c *circuit.Circuit) int {
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
// removable and id drives no primary output. The consumer test runs first:
// it usually fails, and the PO scan walks every output.
func (sc *scratch) removable(c *circuit.Circuit, id int) bool {
	for _, consumer := range c.Fanouts(id) {
		if sc.get(consumer) != markRemovable {
			return false
		}
	}
	return c.NumPOUses(id) == 0
}
