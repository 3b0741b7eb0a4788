package subckt

import (
	"math/bits"
	"slices"

	"compsynth/internal/circuit"
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
// Its methods serve one goroutine at a time.
type CutDB struct {
	K       int
	maxCuts int
	cuts    [][][]int  // per node: list of cuts; each cut is sorted node IDs
	sigs    [][]uint64 // per node: each cut's leaf signature, in step with cuts
	m       *merger    // the cut merge's scratch, made on first use
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
	return &CutDB{K: k, maxCuts: maxCuts, cuts: make([][][]int, len(c.Nodes)), sigs: make([][]uint64, len(c.Nodes))}
}

// Grow extends per-node storage to cover IDs up to len(c.Nodes)-1; newly
// covered nodes start with no cuts.
func (db *CutDB) Grow(c *circuit.Circuit) {
	for len(db.cuts) < len(c.Nodes) {
		db.cuts = append(db.cuts, nil)
		db.sigs = append(db.sigs, nil)
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
		db.cuts[id], db.sigs[id] = nil, nil // dead node: no cuts
		return
	}
	switch v.Kind[d] {
	case circuit.Input:
		db.cuts[id], db.sigs[id] = [][]int{{id}}, []uint64{leafSig(id)}
	case circuit.Const0, circuit.Const1:
		db.cuts[id], db.sigs[id] = [][]int{{}}, []uint64{0}
	default:
		if db.m == nil {
			db.m = newMerger(db.maxCuts)
		}
		db.cuts[id], db.sigs[id] = db.m.merge(db, v, d, id)
	}
}

// leafSig is one leaf's bit in a cut's signature: the signature of a cut is
// the OR of its leaves' bits, so it has at most as many bits set as the cut
// has leaves, and popcount(sig(a) | sig(b)) never exceeds |a ∪ b|.
func leafSig(id int) uint64 { return 1 << (id & 63) }

// merger is the scratch of one database's cut merge. Cut contents are
// written into slab and addressed by cutRef; acc and next hold the running
// cross product; seen dedupes one round's unions by content. Nothing is
// allocated until the surviving cuts are copied out.
type merger struct {
	slab      []int
	acc, next []cutRef
	seen      dedupe

	// Union attempts of the merges so far that the signature rejected, and
	// that it let through although the union has more than K leaves.
	filtered, late int
}

// cutRef addresses one cut, slab[off : off+n], with its leaf signature.
type cutRef struct {
	sig    uint64
	off, n int32
}

func newMerger(maxCuts int) *merger {
	// A round accepts at most 4*maxCuts+1 unions; a table of at least twice
	// that many slots keeps every probe sequence short.
	size := 1
	for size < 2*(4*maxCuts+1) {
		size <<= 1
	}
	return &merger{seen: dedupe{slots: make([]slot, size), shift: uint(64 - bits.Len(uint(size-1)))}}
}

// merge computes the cuts of gate id (dense d) and their signatures: the
// trivial cut {id} plus the K-feasible unions of one cut per fanin, crossed
// fanin by fanin in generation order. Each round keeps the first occurrence
// of every union, stops generating past 4*maxCuts unions and, past 2*maxCuts
// survivors, keeps the smallest 2*maxCuts. The result is sorted (size, then
// IDs) and capped at maxCuts.
//
// A pair whose signatures together have more than K bits set cannot have a
// K-feasible union, so it is skipped before its leaves are merged. Only
// feasible unions count toward the 4*maxCuts cut-off, so the skip changes
// nothing the merge returns.
func (m *merger) merge(db *CutDB, v *circuit.CSR, d int32, id int) ([][]int, []uint64) {
	k, maxCuts := db.K, db.maxCuts
	m.slab = append(m.slab[:0], id)
	acc := append(m.acc[:0], cutRef{off: 1, n: 0}) // the empty cut
	next := m.next[:0]
	for _, fd := range v.FaninOf(d) {
		f := int(v.NodeID[fd])
		fcuts, fsigs := db.cuts[f], db.sigs[f]
		next = next[:0]
		m.seen.newRound()
		made := 0 // unions generated, duplicates included
	cross:
		for _, a := range acc {
			for j, cf := range fcuts {
				sig := a.sig | fsigs[j]
				if bits.OnesCount64(sig) > k {
					m.filtered++
					continue
				}
				u, ok := m.union(a, cf, k)
				if !ok {
					m.late++
					continue
				}
				u.sig = sig
				made++
				if m.seen.fresh(m.slab, u) {
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
	all := append(next[:0], cutRef{sig: leafSig(id), off: 0, n: 1})
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
	sigs := make([]uint64, len(all))
	p := 0
	for i, r := range all {
		n := copy(flat[p:], m.slab[r.off:r.off+r.n])
		out[i] = flat[p : p+n : p+n]
		sigs[i] = r.sig
		p += n
	}
	return out, sigs
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

// dedupe is an open-addressing set of one round's cuts, keyed by content.
// A slot belongs to the current round only while its epoch matches, so a
// new round starts with one increment instead of a clear.
type dedupe struct {
	slots []slot // power-of-two length
	shift uint   // 64 - log2(len(slots)): the hash's top bits pick the slot
	epoch uint32
}

// slot holds one cut of the round: its place in the slab and the low half
// of its content hash (the high bits chose the slot).
type slot struct {
	epoch  uint32
	hash   uint32
	off, n int32
}

func (t *dedupe) newRound() {
	t.epoch++
	if t.epoch == 0 {
		// The counter wrapped: slots stamped 2^32 rounds ago would read as
		// current.
		clear(t.slots)
		t.epoch = 1
	}
}

// fresh records u's contents in the round's set and reports whether they
// were new. A hash match is confirmed by comparing the contents in full.
func (t *dedupe) fresh(slab []int, u cutRef) bool {
	cut := slab[u.off : u.off+u.n]
	h := uint64(len(cut))
	for _, x := range cut {
		h = (h ^ uint64(x)) * 0x100000001b3
	}
	h *= 0x9e3779b97f4a7c15
	mask := uint64(len(t.slots) - 1)
	for i := h >> t.shift; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.epoch != t.epoch {
			*s = slot{epoch: t.epoch, hash: uint32(h), off: u.off, n: u.n}
			return true
		}
		if s.hash == uint32(h) && slices.Equal(slab[s.off:s.off+s.n], cut) {
			return false
		}
	}
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
		a, b := slab[x.off:x.off+x.n], slab[y.off:y.off+x.n]
		for i, v := range a {
			if w := b[i]; v != w {
				if v < w {
					return -1
				}
				return 1
			}
		}
		return 0
	})
}

// Cuts returns the cuts of node id (shared storage; do not mutate).
func (db *CutDB) Cuts(id int) [][]int { return db.cuts[id] }

// EnumerateFromCuts generates the candidate subcircuits of live gate g from
// its cut set, in cut order, skipping cuts that induce no subcircuit or one
// without inputs. The candidates and their ID lists live in sc, which the
// next call overwrites: a caller consumes one gate's candidates before it
// enumerates the next gate's. With sc reused, the call allocates only while
// sc's storage grows.
func (db *CutDB) EnumerateFromCuts(c *circuit.Circuit, g int, sc *Scratch) []Subcircuit {
	if !c.Alive(g) {
		return nil
	}
	flat, sizes := sc.flat[:0], sc.sizes[:0]
	for _, cut := range db.cuts[g] {
		if sc.walk(c, g, cut) && len(sc.in) > 0 {
			flat = append(append(flat, sc.ids...), sc.in...)
			sizes = append(sizes, len(sc.ids), len(sc.in))
		}
	}
	sc.flat, sc.sizes = flat, sizes
	// The candidates slice flat only once it has stopped growing.
	subs := sc.subs[:0]
	for i := 0; i < len(sizes); i += 2 {
		ng, ni := sizes[i], sizes[i+1]
		gates, inputs := splitIDs(flat[:ng+ni], ng)
		subs = append(subs, Subcircuit{Out: g, Gates: gates, Inputs: inputs})
		flat = flat[ng+ni:]
	}
	sc.subs = subs
	return subs
}

// splitIDs cuts ids into its first ng entries and the rest, capped so that
// appending to either list cannot overwrite the other.
func splitIDs(ids []int, ng int) (gates, inputs []int) {
	return ids[:ng:ng], ids[ng:len(ids):len(ids)]
}

// walk collects in sc.ids the gates of the subcircuit the cut induces on g,
// fanins first, and in sc.in its inputs in cut order. It reports false when
// the cut induces none: a cut line is dead, g is on the cut or an input, or
// a path from a primary input escapes the cut. g must be alive, and the cut
// sorted without repeats, as every cut of a CutDB is; the inputs are then
// sorted too.
func (sc *Scratch) walk(c *circuit.Circuit, g int, cut []int) bool {
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
	// its fanins are done (post-order), an input is marked when first
	// reached.
	gates := sc.ids
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
	sc.stack, sc.ids = stack, gates
	if !ok {
		return false
	}
	for _, id := range cut {
		if sc.get(id) == markInput {
			sc.in = append(sc.in, id)
		}
	}
	return true
}
