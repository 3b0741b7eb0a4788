package subckt

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"compsynth/internal/circuit"
	"compsynth/internal/digest"
	"compsynth/internal/gen"
	"compsynth/internal/logic"
)

// Reference implementations of the subcircuit and cut kernels: the
// map-based forms the slice kernels replaced, kept as test oracles. The pins
// at the end of this file require the kernels to agree with them cut for
// cut.

// refSub is the map-based subcircuit the oracles work on.
type refSub struct {
	Out    int
	Gates  map[int]bool
	Inputs []int
}

// refSubcircuitFor materializes the subcircuit induced by a cut of g with a
// recursive walk over maps, absorbing constant drivers afterwards.
func refSubcircuitFor(c *circuit.Circuit, g int, cut []int) *refSub {
	if !c.Alive(g) {
		return nil
	}
	inCut := map[int]bool{}
	for _, id := range cut {
		if !c.Alive(id) {
			return nil
		}
		inCut[id] = true
	}
	if inCut[g] {
		return nil
	}
	gates := map[int]bool{}
	var walk func(id int) bool
	walk = func(id int) bool {
		if inCut[id] {
			return true
		}
		if gates[id] {
			return true
		}
		nd := c.Nodes[id]
		if nd.Type == circuit.Input {
			return false // a path escapes the cut: not a valid cover
		}
		gates[id] = true
		for _, f := range nd.Fanin {
			if !walk(f) {
				return false
			}
		}
		return true
	}
	if !walk(g) {
		return nil
	}
	return refNewSub(c, g, gates)
}

// refNewSub computes the input set and absorbs constant drivers.
func refNewSub(c *circuit.Circuit, g int, gates map[int]bool) *refSub {
	inSet := map[int]bool{}
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
	return &refSub{Out: g, Gates: gates, Inputs: inputs}
}

// refExtract evaluates the subcircuit by a DFS from Out, looking each
// node's word up in a linear-scan association.
func refExtract(s *refSub, c *circuit.Circuit) logic.TT {
	n := len(s.Inputs)
	tt := logic.New(n)
	var ids []int
	var vals []uint64
	idx := func(id int) int {
		for i, x := range ids {
			if x == id {
				return i
			}
		}
		ids = append(ids, id)
		vals = append(vals, 0)
		return len(ids) - 1
	}
	for _, in := range s.Inputs {
		idx(in)
	}
	var order []int
	state := map[int]int8{}
	var visit func(id int)
	visit = func(id int) {
		if !s.Gates[id] || state[id] == 2 {
			return
		}
		if state[id] == 1 {
			panic("subckt: cycle inside subcircuit")
		}
		state[id] = 1
		for _, f := range c.Nodes[id].Fanin {
			visit(f)
		}
		state[id] = 2
		order = append(order, id)
	}
	visit(s.Out)
	for id := range s.Gates {
		visit(id)
	}
	words := tt.Words()
	for w := range words {
		for j, in := range s.Inputs {
			vals[idx(in)] = logic.Var(n, j+1).Words()[w]
		}
		for _, id := range order {
			nd := c.Nodes[id]
			var buf []uint64
			for _, f := range nd.Fanin {
				buf = append(buf, vals[idx(f)])
			}
			vals[idx(id)] = nd.Type.EvalWords(buf)
		}
		words[w] = vals[idx(s.Out)]
	}
	if n < 6 {
		words[0] &= (uint64(1) << (1 << n)) - 1
	}
	return tt
}

// refRemovable returns the gates that disappear when the subcircuit is
// replaced, by iterating the rule "not a PO driver (Out excepted) and every
// consumer removable" to a fixpoint.
func refRemovable(s *refSub, c *circuit.Circuit) map[int]bool {
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

// refGateSavings is the equivalent-2-input weight of refRemovable's set.
func refGateSavings(s *refSub, c *circuit.Circuit) int {
	n := 0
	for id := range refRemovable(s, c) {
		nd := c.Nodes[id]
		n += circuit.Equiv2Weight(nd.Type, len(nd.Fanin))
	}
	return n
}

// refExtractTT is the Extract the caller-owned-table kernel replaced: it
// builds each input's variable table with logic.Var and evaluates Gates in
// order on a fresh per-node word array, returning a new table.
func refExtractTT(s *Subcircuit, c *circuit.Circuit) logic.TT {
	n := len(s.Inputs)
	tt := logic.New(n)
	vals := make([]uint64, len(c.Nodes))
	words := tt.Words()
	for w := range words {
		for j, in := range s.Inputs {
			vals[in] = logic.Var(n, j+1).Words()[w]
		}
		for _, id := range s.Gates {
			nd := c.Nodes[id]
			var buf []uint64
			for _, f := range nd.Fanin {
				buf = append(buf, vals[f])
			}
			vals[id] = nd.Type.EvalWords(buf)
		}
		words[w] = vals[s.Out]
	}
	if n < 6 {
		words[0] &= (uint64(1) << (1 << n)) - 1
	}
	return tt
}

// refShrink is the Shrink the caller-owned-table kernel replaced: it
// returns a new table without t's non-support variables and the 1-based
// indices of the variables it keeps (t itself when every variable is kept).
func refShrink(t logic.TT) (logic.TT, []int) {
	var sup []int
	for i := 1; i <= t.Vars(); i++ {
		if t.DependsOn(i) {
			sup = append(sup, i)
		}
	}
	if len(sup) == t.Vars() {
		return t, sup
	}
	r := logic.New(len(sup))
	for m := 0; m < r.Size(); m++ {
		var full int
		for i, v := range sup {
			bit := (m >> (len(sup) - 1 - i)) & 1
			full |= bit << (t.Vars() - v)
		}
		if t.Get(full) {
			r.Set(m, true)
		}
	}
	return r, sup
}

// refComputeNode computes the cuts of node id into cuts[id] with one
// allocated slice per union, a digest-keyed map per dedupe and sort.Slice,
// the merge the slab kernel replaced.
func refComputeNode(c *circuit.Circuit, cuts [][][]int, k, maxCuts, id int) {
	if maxCuts <= 0 {
		maxCuts = 64
	}
	nd := c.Nodes[id]
	if !c.Alive(id) {
		cuts[id] = nil
		return
	}
	switch nd.Type {
	case circuit.Input:
		cuts[id] = [][]int{{id}}
	case circuit.Const0, circuit.Const1:
		cuts[id] = [][]int{{}}
	default:
		merged := [][]int{{id}}
		acc := [][]int{{}}
		for _, f := range nd.Fanin {
			var next [][]int
			for _, a := range acc {
				for _, cf := range cuts[f] {
					u := unionSorted(a, cf, k)
					if u != nil {
						next = append(next, u)
					}
					if len(next) > 4*maxCuts {
						break
					}
				}
				if len(next) > 4*maxCuts {
					break
				}
			}
			acc = dedupeCuts(next)
			if len(acc) > 2*maxCuts {
				sortCuts(acc)
				acc = acc[:2*maxCuts]
			}
			if len(acc) == 0 {
				break
			}
		}
		merged = append(merged, acc...)
		merged = dedupeCuts(merged)
		sortCuts(merged)
		if len(merged) > maxCuts {
			merged = merged[:maxCuts]
		}
		cuts[id] = merged
	}
}

// unionSorted merges two sorted sets, returning nil if the union exceeds k.
func unionSorted(a, b []int, k int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
		if len(out) > k {
			return nil
		}
	}
	return out
}

func dedupeCuts(cs [][]int) [][]int {
	seen := map[digest.D]bool{}
	out := cs[:0]
	for _, c := range cs {
		k := digest.New().Ints(c)
		if !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

func sortCuts(cs [][]int) {
	sort.Slice(cs, func(i, j int) bool {
		if len(cs[i]) != len(cs[j]) {
			return len(cs[i]) < len(cs[j])
		}
		for x := range cs[i] {
			if cs[i][x] != cs[j][x] {
				return cs[i][x] < cs[j][x]
			}
		}
		return false
	})
}

// pinCircuits returns the circuits the reference pins run on: every
// SmallSuite circuit, quick-scale rs9234, and a copy of each with every
// ninth gate forced to a constant and the dangling logic swept, so
// constants, tombstones and PO drivers inside candidates all occur.
func pinCircuits(t *testing.T) map[string]*circuit.Circuit {
	t.Helper()
	benches := gen.SmallSuite()
	for _, b := range gen.Suite(0.15) {
		if b.Name == "rs9234" {
			benches = append(benches, b)
		}
	}
	if len(benches) != len(gen.SmallSuite())+1 {
		t.Fatal("quick suite lacks rs9234")
	}
	out := map[string]*circuit.Circuit{}
	for _, b := range benches {
		out[b.Name] = b.Build()
		c := b.Build()
		gates := 0
		for _, id := range slices.Clone(c.Topo()) {
			if t := c.Nodes[id].Type; t == circuit.Input || t == circuit.Const0 || t == circuit.Const1 {
				continue
			}
			if gates++; gates%9 == 0 {
				c.SetConstant(id, gates%2 == 0)
			}
		}
		c.SweepDead()
		out[b.Name+"/const"] = c
	}
	return out
}

// collidingCircuit builds a circuit whose cuts hold leaves that collide
// mod 64, so that cut signatures undercount: inputs a_i and a_{i+64} share a
// signature bit, and each first-level gate reads both. Unions of the
// upper levels' cuts then have more than K leaves with K or fewer signature
// bits set, and only the full merge rejects them.
func collidingCircuit() *circuit.Circuit {
	c := circuit.New("collide64")
	var in []int
	for i := 0; i < 128; i++ {
		in = append(in, c.AddInput(fmt.Sprintf("a%d", i)))
	}
	level := make([]int, 64)
	for i := range level {
		level[i] = c.AddGate(circuit.Xor, "", in[i], in[i+64])
	}
	types := []circuit.GateType{circuit.And, circuit.Or, circuit.Nand}
	for step, t := range types {
		next := make([]int, len(level))
		for i := range level {
			next[i] = c.AddGate(t, "", level[i], level[(i+1<<step)%len(level)])
		}
		level = next
	}
	for _, g := range level {
		c.MarkOutput(g)
	}
	return c
}

// TestComputeNodeMatchesRef pins the signature-filtered slab merge to the
// allocating one: every node's cut list, in order, at K = 4, 5 and 6, under
// the optimizer's cap, a wider one, and a cap of 2 that truncates at every
// stage. On the colliding circuit the filter must both reject unions and
// let infeasible ones through to the full merge.
func TestComputeNodeMatchesRef(t *testing.T) {
	circuits := pinCircuits(t)
	circuits["collide64"] = collidingCircuit()
	filtered, late := 0, 0
	for name, c := range circuits {
		for _, k := range []int{4, 5, 6} {
			for _, maxCuts := range []int{32, 64, 2} {
				db := ComputeCuts(c, k, maxCuts)
				ref := make([][][]int, len(c.Nodes))
				for _, id := range c.Topo() {
					refComputeNode(c, ref, k, maxCuts, id)
				}
				for id := range c.Nodes {
					if !slices.EqualFunc(db.Cuts(id), ref[id], slices.Equal[[]int]) {
						t.Fatalf("%s K=%d cap=%d node %d: cuts %v, want %v",
							name, k, maxCuts, id, db.Cuts(id), ref[id])
					}
					checkSigs(t, db, id)
				}
				if name == "collide64" {
					filtered += db.m.filtered
					late += db.m.late
				}
			}
		}
	}
	t.Logf("collide64: the signature rejected %d unions and passed %d infeasible ones", filtered, late)
	if filtered == 0 || late == 0 {
		t.Fatalf("collide64: the signature rejected %d unions and passed %d infeasible ones; want both > 0", filtered, late)
	}
}

// checkSigs requires node id's stored signatures to be its cuts' leaf
// signatures, one per cut.
func checkSigs(t *testing.T, db *CutDB, id int) {
	t.Helper()
	if len(db.sigs[id]) != len(db.cuts[id]) {
		t.Fatalf("node %d: %d signatures for %d cuts", id, len(db.sigs[id]), len(db.cuts[id]))
	}
	for i, cut := range db.cuts[id] {
		var sig uint64
		for _, leaf := range cut {
			sig |= 1 << (leaf & 63)
		}
		if db.sigs[id][i] != sig {
			t.Fatalf("node %d cut %v: signature %x, want %x", id, cut, db.sigs[id][i], sig)
		}
	}
}

// TestExtractShrinkMatchRef pins Extract and Shrink into reused tables to
// the allocating forms they replaced, on every candidate of the quick suite
// at K = 5 and 6, and of one circuit at K = 8, whose tables take up to four
// words. One table and one index buffer serve every call.
func TestExtractShrinkMatchRef(t *testing.T) {
	type run struct {
		b gen.Bench
		k int
	}
	var runs []run
	for _, b := range gen.Suite(0.15) {
		runs = append(runs, run{b, 5}, run{b, 6})
	}
	runs = append(runs, run{gen.SmallSuite()[1], 8})
	sc := new(Scratch)
	var tt, stt logic.TT
	var kept []int
	wide := 0
	for _, r := range runs {
		c := r.b.Build()
		c.Simplify()
		db := ComputeCuts(c, r.k, 32)
		n := 0
		for _, g := range c.Topo() {
			subs := db.EnumerateFromCuts(c, g, sc)
			for i := range subs {
				sub := &subs[i]
				sc.Extract(sub, c, &tt)
				want := refExtractTT(sub, c)
				if !tt.Equal(want) {
					t.Fatalf("%s K=%d node %d inputs %v: Extract = %s, want %s", r.b.Name, r.k, g, sub.Inputs, tt, want)
				}
				kept = tt.Shrink(&stt, kept)
				wantS, wantKept := refShrink(want)
				if !stt.Equal(wantS) || !slices.Equal(kept, wantKept) {
					t.Fatalf("%s K=%d node %d: Shrink = %s %v, want %s %v", r.b.Name, r.k, g, stt, kept, wantS, wantKept)
				}
				if tt.Vars() > 6 {
					wide++
				}
				n++
			}
		}
		if n == 0 {
			t.Fatalf("%s K=%d: no candidates", r.b.Name, r.k)
		}
	}
	if wide == 0 {
		t.Fatal("no candidate at K = 8 took more than one word")
	}
}

// TestShrinkMatchesRefOnAllFourVariableFunctions: all 65,536 functions of
// 4 variables shrink as the allocating Shrink does, into one reused table.
func TestShrinkMatchesRefOnAllFourVariableFunctions(t *testing.T) {
	var stt logic.TT
	var kept []int
	f := logic.New(4)
	for w := uint64(0); w < 1<<16; w++ {
		f.Words()[0] = w
		kept = f.Shrink(&stt, kept)
		want, wantKept := refShrink(f)
		if !stt.Equal(want) || !slices.Equal(kept, wantKept) {
			t.Fatalf("%04x: Shrink = %s %v, want %s %v", w, stt, kept, want, wantKept)
		}
	}
}

// TestSubcircuitKernelsMatchRef pins the slice kernels to the map-based
// ones on every cut of every live node at K = 5 and 6, plus each gate's
// fanin set as a cut (it puts constants on the cut, which the walk must
// absorb): the same nil verdict, gate set, inputs, truth table and
// savings.
func TestSubcircuitKernelsMatchRef(t *testing.T) {
	for name, c := range pinCircuits(t) {
		for _, k := range []int{5, 6} {
			db := ComputeCuts(c, k, 32)
			sc := new(Scratch)
			n := 0
			for _, g := range c.Topo() {
				cuts := slices.Clone(db.Cuts(g))
				fanin := slices.Clone(c.Nodes[g].Fanin)
				slices.Sort(fanin)
				cuts = append(cuts, slices.Compact(fanin))
				for _, cut := range cuts {
					where := fmt.Sprintf("%s K=%d node %d cut %v", name, k, g, cut)
					got, want := subcircuitFor(sc, c, g, cut), refSubcircuitFor(c, g, cut)
					if (got == nil) != (want == nil) {
						t.Fatalf("%s: SubcircuitFor = %v, reference %v", where, got, want)
					}
					if got == nil {
						continue
					}
					n++
					checkAgainstRef(t, where, sc, c, got, want)
				}
			}
			if n == 0 {
				t.Fatalf("%s K=%d: no subcircuits compared", name, k)
			}
		}
	}
}

func checkAgainstRef(t *testing.T, where string, sc *Scratch, c *circuit.Circuit, got *Subcircuit, want *refSub) {
	t.Helper()
	if got.Out != want.Out || got.Gates[len(got.Gates)-1] != got.Out {
		t.Fatalf("%s: Out %d, gates %v, want Out %d last", where, got.Out, got.Gates, want.Out)
	}
	pos := map[int]int{}
	for i, id := range got.Gates {
		if _, dup := pos[id]; dup || !want.Gates[id] {
			t.Fatalf("%s: gates %v, want the set %v", where, got.Gates, want.Gates)
		}
		pos[id] = i
	}
	if len(pos) != len(want.Gates) {
		t.Fatalf("%s: gates %v, want the set %v", where, got.Gates, want.Gates)
	}
	for i, id := range got.Gates {
		for _, f := range c.Nodes[id].Fanin {
			if p, in := pos[f]; in && p > i {
				t.Fatalf("%s: gate %d precedes its fanin %d in %v", where, id, f, got.Gates)
			}
		}
	}
	if !slices.Equal(got.Inputs, want.Inputs) {
		t.Fatalf("%s: inputs %v, want %v", where, got.Inputs, want.Inputs)
	}
	if tt, rt := extract(sc, got, c), refExtract(want, c); !tt.Equal(rt) {
		t.Fatalf("%s: Extract = %s, want %s", where, tt, rt)
	}
	if s, rs := sc.GateSavings(got, c), refGateSavings(want, c); s != rs {
		t.Fatalf("%s: GateSavings = %d, want %d", where, s, rs)
	}
}

// TestKernelAllocs pins the allocation profile of the warm kernels:
// enumeration into reused storage, GateSavings, and Extract into a reused
// table allocate nothing.
func TestKernelAllocs(t *testing.T) {
	c := gen.SmallSuite()[0].Build()
	db := ComputeCuts(c, 5, 32)
	sc := new(Scratch)
	var sub Subcircuit
	g := -1
	for _, id := range c.Topo() {
		for _, s := range db.EnumerateFromCuts(c, id, sc) {
			if len(s.Gates) > 2 && len(s.Inputs) >= 4 {
				sub, g = s, id
			}
		}
	}
	if g < 0 {
		t.Fatal("no multi-gate candidate")
	}
	// sub's ID lists live in sc; keep them past the next enumeration.
	sub.Gates, sub.Inputs = slices.Clone(sub.Gates), slices.Clone(sub.Inputs)
	if n := testing.AllocsPerRun(200, func() { db.EnumerateFromCuts(c, g, sc) }); n != 0 {
		t.Fatalf("warm EnumerateFromCuts allocates %v times per call, want 0", n)
	}
	sc.GateSavings(&sub, c)
	if n := testing.AllocsPerRun(200, func() { sc.GateSavings(&sub, c) }); n != 0 {
		t.Fatalf("warm GateSavings allocates %v times per call, want 0", n)
	}
	var tt logic.TT
	sc.Extract(&sub, c, &tt)
	if n := testing.AllocsPerRun(200, func() { sc.Extract(&sub, c, &tt) }); n != 0 {
		t.Fatalf("warm Extract allocates %v times per call, want 0", n)
	}
}

// TestScratchEpochWrap: when the epoch counter wraps, marks from before the
// wrap (including never-set zero stamps) must not read as current.
func TestScratchEpochWrap(t *testing.T) {
	sc := new(Scratch)
	sc.begin(4)
	for id := 0; id < 4; id++ {
		sc.set(id, markRemovable)
	}
	sc.stamp[0], sc.stamp[1] = 0, 1 // stamped 2^32 epochs ago
	sc.epoch = math.MaxUint32
	sc.begin(4)
	for id := 0; id < 4; id++ {
		if m := sc.get(id); m != 0 {
			t.Fatalf("node %d reads mark %d after the epoch wrapped", id, m)
		}
	}
	sc.set(2, markGate)
	if sc.get(2) != markGate || sc.get(3) != 0 {
		t.Fatal("marking after the wrap is broken")
	}
}
