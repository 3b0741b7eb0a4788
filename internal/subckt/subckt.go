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
	"sort"
	"sync"

	"compsynth/internal/circuit"
	"compsynth/internal/logic"
)

// Subcircuit is one candidate C' with output Out.
type Subcircuit struct {
	Out    int          // output node ID (a gate of the host circuit)
	Gates  map[int]bool // node IDs inside C' (includes absorbed constants)
	Inputs []int        // external driving node IDs, sorted ascending

	key   Key // lazily computed by Key()
	keyed bool
}

// newSub computes the input set and absorbs constant drivers.
func newSub(c *circuit.Circuit, g int, gates map[int]bool) *Subcircuit {
	// Constants inside cost nothing and have fixed values; absorb them so
	// they never occupy input slots.
	inSet := map[int]bool{}
	//lint:ordered inserted entries are constants with no fanin, so visiting them is a no-op and inSet is the same either way
	for id := range gates {
		for _, f := range c.Nodes[id].Fanin {
			if gates[f] {
				continue
			}
			t := c.Nodes[f].Type
			if t == circuit.Const0 || t == circuit.Const1 {
				gates[f] = true
				continue
			}
			inSet[f] = true
		}
	}
	inputs := make([]int, 0, len(inSet))
	for id := range inSet {
		inputs = append(inputs, id)
	}
	sort.Ints(inputs)
	return &Subcircuit{Out: g, Gates: gates, Inputs: inputs}
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
	//lint:ordered commutative fold: mod-2^128 addition and XOR of per-gate hashes give the same key for any order
	for id := range s.Gates {
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

// extractScratch is the reusable per-Extract working set: a small
// linear-scan association from node ID to its current 64-pattern word (the
// sets involved are tiny — |gates| + |inputs| is bounded by the cut size),
// the internal topological order, and the fanin word buffer. Pooled so
// concurrent callers (the experiment driver runs one optimizer per table
// row) each grab their own.
type extractScratch struct {
	ids   []int
	vals  []uint64
	state []int8 // DFS state per ids entry: 0 unseen, 1 visiting, 2 done
	order []int
	buf   []uint64
}

var extractPool = sync.Pool{New: func() any { return new(extractScratch) }}

func (sc *extractScratch) reset() {
	sc.ids = sc.ids[:0]
	sc.vals = sc.vals[:0]
	sc.state = sc.state[:0]
	sc.order = sc.order[:0]
	sc.buf = sc.buf[:0]
}

func (sc *extractScratch) idx(id int) int {
	for i, x := range sc.ids {
		if x == id {
			return i
		}
	}
	return -1
}

func (sc *extractScratch) add(id int) int {
	if i := sc.idx(id); i >= 0 {
		return i
	}
	sc.ids = append(sc.ids, id)
	sc.vals = append(sc.vals, 0)
	sc.state = append(sc.state, 0)
	return len(sc.ids) - 1
}

// Extract computes the truth table of the function C' implements on Out,
// over the inputs in Subcircuit.Inputs order (input j = variable y_{j+1},
// most significant first, per the logic package convention). All working
// storage comes from a pooled scratch, so steady-state calls allocate only
// the returned table.
func (s *Subcircuit) Extract(c *circuit.Circuit) logic.TT {
	n := len(s.Inputs)
	tt := logic.New(n)
	vt := varTablesFor(n)
	sc := extractPool.Get().(*extractScratch)
	sc.reset()
	for _, in := range s.Inputs {
		sc.add(in)
	}
	s.topoInto(c, sc)
	// Evaluate internal gates in topological order, 64 minterms at a time,
	// driving each input with its variable pattern.
	words := tt.Words()
	outIdx := sc.idx(s.Out)
	for w := range words {
		for j, in := range s.Inputs {
			sc.vals[sc.idx(in)] = vt[j].Words()[w]
		}
		for _, id := range sc.order {
			nd := c.Nodes[id]
			sc.buf = sc.buf[:0]
			for _, f := range nd.Fanin {
				sc.buf = append(sc.buf, sc.vals[sc.idx(f)])
			}
			sc.vals[sc.idx(id)] = nd.Type.EvalWords(sc.buf)
		}
		words[w] = sc.vals[outIdx]
	}
	// Trim invalid high bits for n < 6.
	if n < 6 {
		words[0] &= (uint64(1) << (1 << n)) - 1
	}
	extractPool.Put(sc)
	return tt
}

// topoInto appends the subcircuit's gates to sc.order in topological order,
// registering each in the scratch association.
func (s *Subcircuit) topoInto(c *circuit.Circuit, sc *extractScratch) {
	var visit func(id int)
	visit = func(id int) {
		if !s.Gates[id] {
			return
		}
		i := sc.add(id)
		if sc.state[i] == 2 {
			return
		}
		if sc.state[i] == 1 {
			panic("subckt: cycle inside subcircuit")
		}
		sc.state[i] = 1
		for _, f := range c.Nodes[id].Fanin {
			visit(f)
		}
		sc.state[i] = 2
		sc.order = append(sc.order, id)
	}
	visit(s.Out)
	// Gates unreachable from Out (can happen when an absorbed gate only
	// feeds outside) are appended; they do not affect the function.
	for id := range s.Gates {
		visit(id)
	}
}

// Removable returns the set of gates that disappear if C' is replaced by a
// new realization driving Out: a gate is removable iff it is not a PO driver
// (Out excepted: its consumers are rewired to the replacement) and every
// fanout pin goes to a removable gate of C'. This implements the paper's
// "common gates are not included in the count N".
func (s *Subcircuit) Removable(c *circuit.Circuit) map[int]bool {
	rm := map[int]bool{s.Out: true}
	for {
		changed := false
		for id := range s.Gates {
			if rm[id] || id == s.Out {
				continue
			}
			if c.NumPOUses(id) > 0 {
				continue
			}
			ok := true
			for _, consumer := range c.Fanouts(id) {
				if !rm[consumer] {
					ok = false
					break
				}
			}
			if ok {
				rm[id] = true
				changed = true
			}
		}
		if !changed {
			return rm
		}
	}
}

// GateSavings returns the equivalent-2-input weight of the removable gates:
// the paper's N for this candidate.
func (s *Subcircuit) GateSavings(c *circuit.Circuit) int {
	n := 0
	for id := range s.Removable(c) {
		nd := c.Nodes[id]
		n += circuit.Equiv2Weight(nd.Type, len(nd.Fanin))
	}
	return n
}
