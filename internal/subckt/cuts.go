package subckt

import (
	"slices"
	"sync"

	"compsynth/internal/circuit"
	"compsynth/internal/digest"
)

// K-feasible cut enumeration (the standard technology-mapping algorithm).
//
// A cut of gate g is a set of lines such that every path from the primary
// inputs to g passes through a line of the set; the gates strictly between
// the cut and g form a single-output subcircuit with the cut as its inputs.
// Cuts reach through arbitrarily wide gates: a 6-input gate's own fanins
// exceed K = 5, yet a cut through its drivers has five lines or fewer when
// those drivers share inputs.
//
// cuts(PI)       = { {PI} }
// cuts(constant) = { {} }
// cuts(gate g)   = { {g} } ∪ { c1 ∪ ... ∪ ck : ci ∈ cuts(fanin_i) },
// keeping only sets of at most K lines, capped per node by cut count.

// CutDB holds the K-feasible cuts of every node of one circuit snapshot.
type CutDB struct {
	K       int
	maxCuts int
	cuts    [][][]int // per node: list of cuts; each cut is sorted node IDs
}

// ComputeCuts enumerates up to maxCuts K-feasible cuts per node, smallest
// first. maxCuts <= 0 selects a default of 64.
func ComputeCuts(c *circuit.Circuit, k, maxCuts int) *CutDB {
	db := NewCutDB(c, k, maxCuts)
	for _, id := range c.Topo() {
		db.ComputeNode(c, id)
	}
	return db
}

// NewCutDB returns an empty database sized for c; callers fill it with
// ComputeNode in topological order (ComputeCuts does exactly that). The
// split exists for incremental recomputation: after a local rewiring, only
// the dirty cone's nodes need ComputeNode again.
func NewCutDB(c *circuit.Circuit, k, maxCuts int) *CutDB {
	if maxCuts <= 0 {
		maxCuts = 64
	}
	return &CutDB{K: k, maxCuts: maxCuts, cuts: make([][][]int, len(c.Nodes))}
}

// Grow extends per-node storage to cover IDs up to len(c.Nodes)-1; newly
// covered nodes start with no cuts.
func (db *CutDB) Grow(c *circuit.Circuit) {
	for len(db.cuts) < len(c.Nodes) {
		db.cuts = append(db.cuts, nil)
	}
}

// ComputeNode (re)computes the cuts of one node from its fanins' current cut
// sets, which must already be up to date. The result is a pure function of
// the node's type/fanin and the fanin cut sets, so recomputing any superset
// of the changed cone in topological order reproduces exactly what a full
// ComputeCuts would build.
//
// The node's type and fanin are read through the circuit's frozen CSR view:
// the resynthesis loop calls ComputeNode in bulk between edits (full rebuild
// or dirty-cone refresh), so after the first call of a batch Freeze is a
// two-load cache hit and the sweep reads flat arrays instead of per-node
// heap objects. Cut contents stay keyed by sparse node ID — they outlive
// any one frozen view. Must not be called while another goroutine reads the
// circuit (Freeze refreshes derived caches, like Topo).
func (db *CutDB) ComputeNode(c *circuit.Circuit, id int) {
	v := c.Freeze()
	d := v.DenseOf[id]
	if d < 0 {
		db.cuts[id] = nil // dead node: no cuts
		return
	}
	switch v.Kind[d] {
	case circuit.Input:
		db.cuts[id] = [][]int{{id}}
	case circuit.Const0, circuit.Const1:
		db.cuts[id] = [][]int{{}}
	default:
		m := mergePool.Get().(*merger)
		db.cuts[id] = m.merge(db, v, d, id)
		mergePool.Put(m)
	}
}

// merger is the pooled scratch of one gate's cut merge. Cut contents are
// written into slab and addressed by cutRef; acc and next hold the running
// cross product; seen dedupes by content digest. Nothing is allocated until
// the surviving cuts are copied out.
type merger struct {
	slab      []int
	acc, next []cutRef
	seen      map[digest.D]struct{}
}

// cutRef addresses one cut, slab[off : off+n].
type cutRef struct{ off, n int32 }

var mergePool = sync.Pool{New: func() any {
	return &merger{seen: map[digest.D]struct{}{}}
}}

// merge computes the cuts of gate id (dense d): the trivial cut {id} plus
// the K-feasible unions of one cut per fanin, crossed fanin by fanin in
// generation order. Each round keeps the first occurrence of every union,
// stops generating past 4*maxCuts unions and, past 2*maxCuts survivors,
// keeps the smallest 2*maxCuts. The result is sorted (size, then IDs) and
// capped at maxCuts.
func (m *merger) merge(db *CutDB, v *circuit.CSR, d int32, id int) [][]int {
	k, maxCuts := db.K, db.maxCuts
	m.slab = append(m.slab[:0], id)
	acc := append(m.acc[:0], cutRef{off: 1, n: 0}) // the empty cut
	next := m.next[:0]
	for _, fd := range v.FaninOf(d) {
		f := int(v.NodeID[fd])
		next = next[:0]
		clear(m.seen)
		made := 0 // unions generated, duplicates included
	cross:
		for _, a := range acc {
			for _, cf := range db.cuts[f] {
				u, ok := m.union(a, cf, k)
				if !ok {
					continue
				}
				made++
				if m.fresh(u) {
					next = append(next, u)
				} else {
					m.slab = m.slab[:u.off] // drop the duplicate's contents
				}
				if made > 4*maxCuts {
					break cross
				}
			}
		}
		acc, next = next, acc
		if len(acc) > 2*maxCuts {
			m.sort(acc)
			acc = acc[:2*maxCuts]
		}
		if len(acc) == 0 {
			break
		}
	}
	// The trivial cut sits at slab[0:1]; no union contains id itself, so
	// the merged list needs no second dedupe.
	all := append(next[:0], cutRef{off: 0, n: 1})
	all = append(all, acc...)
	m.sort(all)
	if len(all) > maxCuts {
		all = all[:maxCuts]
	}
	m.acc, m.next = acc[:0], all[:0]
	total := 0
	for _, r := range all {
		total += int(r.n)
	}
	flat := make([]int, total)
	out := make([][]int, len(all))
	p := 0
	for i, r := range all {
		n := copy(flat[p:], m.slab[r.off:r.off+r.n])
		out[i] = flat[p : p+n : p+n]
		p += n
	}
	return out
}

// union appends the sorted union of cut a (in the slab) and cf to the slab
// and returns its reference, or false (slab unchanged) when the union has
// more than k lines.
func (m *merger) union(a cutRef, cf []int, k int) (cutRef, bool) {
	off := len(m.slab)
	m.slab = slices.Grow(m.slab, k)
	as := m.slab[a.off : a.off+a.n]
	out := m.slab[off : off+k]
	n, i, j := 0, 0, 0
	for i < len(as) && j < len(cf) {
		if n == k {
			return cutRef{}, false
		}
		x, y := as[i], cf[j]
		switch {
		case x < y:
			out[n] = x
			i++
		case y < x:
			out[n] = y
			j++
		default:
			out[n] = x
			i++
			j++
		}
		n++
	}
	if n+len(as)-i+len(cf)-j > k {
		return cutRef{}, false
	}
	n += copy(out[n:], as[i:])
	n += copy(out[n:], cf[j:])
	m.slab = m.slab[:off+n]
	return cutRef{off: int32(off), n: int32(n)}, true
}

// fresh records u's contents in the round's dedupe set and reports whether
// they were new. Cuts are sorted ID lists, so a length-framed digest is a
// canonical set identity.
func (m *merger) fresh(u cutRef) bool {
	key := digest.New().Ints(m.slab[u.off : u.off+u.n])
	if _, dup := m.seen[key]; dup {
		return false
	}
	m.seen[key] = struct{}{}
	return true
}

// sort orders refs by cut size, then lexicographically by node ID. The
// order is total on distinct cuts, so the result does not depend on the
// sort's stability.
func (m *merger) sort(refs []cutRef) {
	slab := m.slab
	slices.SortFunc(refs, func(x, y cutRef) int {
		if x.n != y.n {
			return int(x.n - y.n)
		}
		return slices.Compare(slab[x.off:x.off+x.n], slab[y.off:y.off+y.n])
	})
}

// Cuts returns the cuts of node id (shared storage; do not mutate).
func (db *CutDB) Cuts(id int) [][]int { return db.cuts[id] }

// SubcircuitFor materializes the subcircuit induced by a cut of g: all gates
// on paths between the cut lines and g, listed fanins first. Returns nil for
// the trivial cut {g}, when a path from a primary input reaches g without
// crossing the cut, or when a line is dead. Cut lines that are constants
// are absorbed into the gates; cut lines no gate reads are not inputs.
func SubcircuitFor(c *circuit.Circuit, g int, cut []int) *Subcircuit {
	if !c.Alive(g) {
		return nil
	}
	sc := scratchPool.Get().(*scratch)
	var s *Subcircuit
	if sc.walk(c, g, cut) {
		// One allocation holds both lists.
		ids := append(append(make([]int, 0, len(sc.ids)+len(sc.in)), sc.ids...), sc.in...)
		s = &Subcircuit{Out: g}
		s.Gates, s.Inputs = splitIDs(ids, len(sc.ids))
	}
	scratchPool.Put(sc)
	return s
}

// EnumerateFromCuts generates the candidate subcircuits of live gate g from
// its cut set, in cut order, skipping cuts that induce no subcircuit or one
// without inputs. The candidates share three allocations: their structs,
// the returned pointers and one ID array.
func (db *CutDB) EnumerateFromCuts(c *circuit.Circuit, g int) []*Subcircuit {
	if !c.Alive(g) {
		return nil
	}
	sc := scratchPool.Get().(*scratch)
	flat, sizes := sc.flat[:0], sc.sizes[:0]
	for _, cut := range db.cuts[g] {
		if sc.walk(c, g, cut) && len(sc.in) > 0 {
			flat = append(append(flat, sc.ids...), sc.in...)
			sizes = append(sizes, len(sc.ids), len(sc.in))
		}
	}
	sc.flat, sc.sizes = flat, sizes
	var out []*Subcircuit
	if n := len(sizes) / 2; n > 0 {
		ids := append([]int(nil), flat...)
		subs := make([]Subcircuit, n)
		out = make([]*Subcircuit, n)
		for i := range subs {
			ng, ni := sizes[2*i], sizes[2*i+1]
			subs[i].Out = g
			subs[i].Gates, subs[i].Inputs = splitIDs(ids[:ng+ni], ng)
			ids = ids[ng+ni:]
			out[i] = &subs[i]
		}
	}
	scratchPool.Put(sc)
	return out
}

// splitIDs cuts ids into its first ng entries and the rest, capped so that
// appending to either list cannot overwrite the other.
func splitIDs(ids []int, ng int) (gates, inputs []int) {
	return ids[:ng:ng], ids[ng:len(ids):len(ids)]
}

// walk collects in sc.ids the gates of the subcircuit the cut induces on g,
// fanins first, and in sc.in its inputs, sorted. It reports false when the
// cut induces none: a cut line is dead, g is on the cut or an input, or a
// path from a primary input escapes the cut. g must be alive.
func (sc *scratch) walk(c *circuit.Circuit, g int, cut []int) bool {
	sc.begin(len(c.Nodes))
	sc.ids, sc.in = sc.ids[:0], sc.in[:0]
	for _, id := range cut {
		if !c.Alive(id) {
			return false
		}
		sc.set(id, markCut)
	}
	if sc.get(g) == markCut || c.Nodes[g].Type == circuit.Input {
		return false
	}
	// Iterative depth-first walk over fanins; a gate is appended once all
	// its fanins are done (post-order), an input when first reached.
	gates, inputs := sc.ids, sc.in
	sc.set(g, markGate)
	stack := append(sc.stack[:0], walkFrame{id: g})
	ok := true
	for ok && len(stack) > 0 {
		top := &stack[len(stack)-1]
		fanin := c.Nodes[top.id].Fanin
		if top.pin == len(fanin) {
			gates = append(gates, top.id)
			stack = stack[:len(stack)-1]
			continue
		}
		f := fanin[top.pin]
		top.pin++
		switch sc.get(f) {
		case markInput, markGate:
		case markCut:
			if t := c.Nodes[f].Type; t == circuit.Const0 || t == circuit.Const1 {
				sc.set(f, markGate)
				gates = append(gates, f)
			} else {
				sc.set(f, markInput)
				inputs = append(inputs, f)
			}
		default:
			if c.Nodes[f].Type == circuit.Input {
				ok = false // a path escapes the cut: not a valid cover
				continue
			}
			sc.set(f, markGate)
			stack = append(stack, walkFrame{id: f})
		}
	}
	slices.Sort(inputs)
	sc.stack, sc.ids, sc.in = stack, gates, inputs
	return ok
}
