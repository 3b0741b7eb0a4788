package circuit

// Frozen CSR (compressed sparse row) view of a circuit.
//
// The mutable Circuit is pointer- and map-heavy: every node is a separate
// allocation, fanin lists are per-node slices, and the read-heavy phases
// (path counting, pattern simulation, fault campaigns, cut enumeration)
// chase pointers across the whole heap. Freeze flattens one snapshot of the
// netlist into a handful of dense arrays — int32 node ids, flat adjacency,
// level-ordered — that those phases sweep with sequential loads and zero
// allocation. Mutation stays on the Circuit; the frozen view is the read
// seam. Every edit ages the view, and the next Freeze rebuilds it: levels
// from scratch (csrLevels), then the arrays repacked into the view's
// retained storage.

import (
	"fmt"

	"compsynth/internal/metric"
)

// mCSRRebuilds counts view builds. Registered through internal/metric (not
// internal/obs, which imports this package) so it lands in the same
// process-wide registry every other pipeline counter uses.
var mCSRRebuilds = metric.C("circuit.csr_rebuilds")

// CSR is a frozen, immutable view of one circuit snapshot in compressed
// sparse row form. Nodes carry dense ids 0..N()-1 assigned in level-major
// order — sorted by (level, sparse id) — so ascending dense id is a valid
// topological order and a level sweep is one linear scan. The exported
// slices are read-only: they are rebuilt (and their storage recycled) by the
// next Freeze after any mutation, so callers must not retain a view across
// edits of the underlying circuit. Holders of a stale view can detect it via
// Check's csr_stale audit; correctness-critical readers simply re-Freeze,
// which is two loads when nothing changed.
type CSR struct {
	gen uint64 // Circuit generation this view was built at

	// Parallel arrays indexed by dense id.
	Kind   []GateType
	Level  []int32
	NodeID []int32  // dense -> sparse node ID
	Name   []string // node names (shared string headers, not copies)

	// DenseOf maps sparse node ID -> dense id, -1 for dead or absent nodes.
	DenseOf []int32

	// Flat fanin adjacency: FaninOf(d) = FaninEdge[FaninStart[d]:FaninStart[d+1]],
	// dense ids in pin order. FaninStart has N()+1 entries.
	FaninStart []int32
	FaninEdge  []int32

	// Flat fanout adjacency, the multiset transpose of the fanin lists: one
	// entry per consuming pin, consumers in ascending dense order (so the
	// lists are deterministic). FanoutStart has N()+1 entries.
	FanoutStart []int32
	FanoutEdge  []int32

	In  []int32 // dense ids of primary inputs, declaration order
	Out []int32 // dense ids of primary output drivers, designation order

	cursor []int32 // repack scratch (fanout fill positions / level offsets)
}

// N returns the number of live nodes in the view.
func (v *CSR) N() int { return len(v.Kind) }

// FaninOf returns the dense fanin ids of dense node d, in pin order.
func (v *CSR) FaninOf(d int32) []int32 {
	return v.FaninEdge[v.FaninStart[d]:v.FaninStart[d+1]]
}

// FanoutOf returns the dense consumer ids of dense node d (one entry per
// consuming pin, ascending).
func (v *CSR) FanoutOf(d int32) []int32 {
	return v.FanoutEdge[v.FanoutStart[d]:v.FanoutStart[d+1]]
}

// frozenState is the Circuit-side bookkeeping behind Freeze: the last view
// and the per-sparse-id level scratch its rebuild reuses.
type frozenState struct {
	view *CSR
	lv   []int32
}

// Freeze returns the CSR view of the current circuit state, building it on
// first use, returning it unchanged while no mutation has happened, and
// otherwise rebuilding it into the same storage. The returned view aliases
// storage that the next post-mutation Freeze recycles, so it is valid until
// the circuit is next mutated. Freeze itself mutates only derived caches
// (like Topo does) and must not be called concurrently with other Circuit
// methods; the returned view is safe for concurrent readers.
func (c *Circuit) Freeze() *CSR {
	fz := &c.fz
	if v := fz.view; v != nil && v.gen == c.gen {
		return v
	}
	v := fz.view
	if v == nil {
		v = &CSR{}
	}
	fz.lv = growSlice(fz.lv, len(c.Nodes))
	csrLevels(c, fz.lv)
	repackCSR(v, c, fz.lv)
	v.gen = c.gen
	fz.view = v
	mCSRRebuilds.Inc()
	return v
}

// csrLevels computes levels for every node into lv (-1 for dead or nil
// entries) without reading or writing any Circuit cache, so it is safe both
// under Freeze and inside Check. Panics on a cycle, like Topo.
func csrLevels(c *Circuit, lv []int32) {
	const gray = int32(-2)
	for i := range lv {
		lv[i] = -1
	}
	var visit func(id int) int32
	visit = func(id int) int32 {
		switch lv[id] {
		case -1:
		case gray:
			panic("circuit: cycle detected in Freeze")
		default:
			return lv[id]
		}
		lv[id] = gray
		m := int32(-1)
		for _, f := range c.Nodes[id].Fanin {
			if l := visit(f); l > m {
				m = l
			}
		}
		lv[id] = m + 1
		return lv[id]
	}
	for _, nd := range c.Nodes {
		if nd != nil && nd.Type != dead {
			visit(nd.ID)
		}
	}
}

// repackCSR rebuilds every array of v from (c.Nodes, c.Inputs, c.Outputs)
// and the per-sparse-id levels in lv, reusing v's storage. It reads nothing
// else — in particular no Circuit cache — so Check can build a reference
// view without perturbing the circuit under audit. The dense order is the
// canonical (level, sparse id) sort, computed by a counting sort over
// levels.
func repackCSR(v *CSR, c *Circuit, lv []int32) {
	n, edges := 0, 0
	maxLv := int32(-1)
	for _, nd := range c.Nodes {
		if nd == nil || nd.Type == dead {
			continue
		}
		n++
		edges += len(nd.Fanin)
		if l := lv[nd.ID]; l > maxLv {
			maxLv = l
		}
	}

	v.Kind = growSlice(v.Kind, n)
	v.Level = growSlice(v.Level, n)
	v.NodeID = growSlice(v.NodeID, n)
	v.Name = growSlice(v.Name, n)
	v.DenseOf = growSlice(v.DenseOf, len(c.Nodes))
	v.FaninStart = growSlice(v.FaninStart, n+1)
	v.FaninEdge = growSlice(v.FaninEdge, edges)
	v.FanoutStart = growSlice(v.FanoutStart, n+1)
	v.FanoutEdge = growSlice(v.FanoutEdge, edges)
	v.In = growSlice(v.In, len(c.Inputs))
	v.Out = growSlice(v.Out, len(c.Outputs))
	v.cursor = growSlice(v.cursor, int(maxLv)+2)
	if n > int(maxLv)+2 {
		v.cursor = growSlice(v.cursor, n)
	}

	// Counting sort by level; scanning sparse ids in ascending order within
	// each level bucket yields the canonical (level, id) permutation.
	off := v.cursor[:int(maxLv)+2]
	for i := range off {
		off[i] = 0
	}
	for _, nd := range c.Nodes {
		if nd == nil || nd.Type == dead {
			continue
		}
		off[lv[nd.ID]+1]++
	}
	for l := 1; l < len(off); l++ {
		off[l] += off[l-1]
	}
	for i := range v.DenseOf {
		v.DenseOf[i] = -1
	}
	for id, nd := range c.Nodes {
		if nd == nil || nd.Type == dead {
			continue
		}
		d := off[lv[id]]
		off[lv[id]]++
		v.DenseOf[id] = d
		v.NodeID[d] = int32(id)
		v.Kind[d] = nd.Type
		v.Level[d] = lv[id]
		v.Name[d] = nd.Name
	}

	// Fanin adjacency, pin order preserved.
	e := int32(0)
	for d := 0; d < n; d++ {
		v.FaninStart[d] = e
		for _, f := range c.Nodes[v.NodeID[d]].Fanin {
			v.FaninEdge[e] = v.DenseOf[f]
			e++
		}
	}
	v.FaninStart[n] = e

	// Fanout adjacency: transpose of the fanin lists. Filling in ascending
	// consumer order keeps every fanout list deterministic.
	cur := v.cursor[:n]
	for i := range cur {
		cur[i] = 0
	}
	for _, src := range v.FaninEdge {
		cur[src]++
	}
	e = 0
	for d := 0; d < n; d++ {
		v.FanoutStart[d] = e
		e += cur[d]
		cur[d] = v.FanoutStart[d]
	}
	v.FanoutStart[n] = e
	for d := int32(0); int(d) < n; d++ {
		for _, src := range v.FaninOf(d) {
			v.FanoutEdge[cur[src]] = d
			cur[src]++
		}
	}

	for i, id := range c.Inputs {
		v.In[i] = v.DenseOf[id]
	}
	for i, id := range c.Outputs {
		v.Out[i] = v.DenseOf[id]
	}
}

// csrEqual reports the first divergence between two views' netlist content
// (everything except the generation stamp), for Check's csr_stale audit and
// the tests that compare a view with a fresh build.
func csrEqual(a, b *CSR) error {
	if a.N() != b.N() {
		return fmt.Errorf("%d nodes vs %d", a.N(), b.N())
	}
	if err := eqI32("DenseOf", a.DenseOf, b.DenseOf); err != nil {
		return err
	}
	if err := eqI32("NodeID", a.NodeID, b.NodeID); err != nil {
		return err
	}
	if err := eqI32("Level", a.Level, b.Level); err != nil {
		return err
	}
	for i := range a.Kind {
		if a.Kind[i] != b.Kind[i] {
			return fmt.Errorf("Kind[%d]: %v vs %v", i, a.Kind[i], b.Kind[i])
		}
	}
	for i := range a.Name {
		if a.Name[i] != b.Name[i] {
			return fmt.Errorf("Name[%d]: %q vs %q", i, a.Name[i], b.Name[i])
		}
	}
	if err := eqI32("FaninStart", a.FaninStart, b.FaninStart); err != nil {
		return err
	}
	if err := eqI32("FaninEdge", a.FaninEdge, b.FaninEdge); err != nil {
		return err
	}
	if err := eqI32("FanoutStart", a.FanoutStart, b.FanoutStart); err != nil {
		return err
	}
	if err := eqI32("FanoutEdge", a.FanoutEdge, b.FanoutEdge); err != nil {
		return err
	}
	if err := eqI32("In", a.In, b.In); err != nil {
		return err
	}
	return eqI32("Out", a.Out, b.Out)
}

func eqI32(what string, a, b []int32) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: %d entries vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%s[%d]: %d vs %d", what, i, a[i], b[i])
		}
	}
	return nil
}

// growSlice returns s resized to n entries, reallocating (with headroom)
// only when capacity is short. Contents are unspecified.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/2+8)
	}
	return s[:n]
}
