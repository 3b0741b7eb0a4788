package subckt

import (
	"fmt"
	"math"
	"math/bits"
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

// refKey folds the gate map into a Key with the same commutative operators
// as Subcircuit.Key.
func refKey(s *refSub) Key {
	k := Key{Out: int32(s.Out), N: int32(len(s.Gates))}
	for id := range s.Gates {
		lo, hi := mix64(uint64(id)^0x243f6a8885a308d3), mix64(uint64(id)^0x13198a2e03707344)
		var carry uint64
		k.SumLo, carry = bits.Add64(k.SumLo, lo, 0)
		k.SumHi, _ = bits.Add64(k.SumHi, hi, carry)
		k.XorLo ^= lo
	}
	return k
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

// TestComputeNodeMatchesRef pins the slab merge to the allocating one: every
// node's cut list, in order, at K = 5 and 6, under the optimizer's cap and
// under a cap of 2 that truncates at every stage.
func TestComputeNodeMatchesRef(t *testing.T) {
	for name, c := range pinCircuits(t) {
		for _, k := range []int{5, 6} {
			for _, maxCuts := range []int{32, 2} {
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
				}
			}
		}
	}
}

// TestSubcircuitKernelsMatchRef pins the slice kernels to the map-based
// ones on every cut of every live node at K = 5 and 6, plus each gate's
// fanin set as a cut (it puts constants on the cut, which the walk must
// absorb): the same nil verdict, gate set, inputs, truth table, savings and
// key.
func TestSubcircuitKernelsMatchRef(t *testing.T) {
	for name, c := range pinCircuits(t) {
		for _, k := range []int{5, 6} {
			db := ComputeCuts(c, k, 32)
			n := 0
			for _, g := range c.Topo() {
				cuts := slices.Clone(db.Cuts(g))
				fanin := slices.Clone(c.Nodes[g].Fanin)
				slices.Sort(fanin)
				cuts = append(cuts, slices.Compact(fanin))
				for _, cut := range cuts {
					where := fmt.Sprintf("%s K=%d node %d cut %v", name, k, g, cut)
					got, want := SubcircuitFor(c, g, cut), refSubcircuitFor(c, g, cut)
					if (got == nil) != (want == nil) {
						t.Fatalf("%s: SubcircuitFor = %v, reference %v", where, got, want)
					}
					if got == nil {
						continue
					}
					n++
					checkAgainstRef(t, where, c, got, want)
				}
			}
			if n == 0 {
				t.Fatalf("%s K=%d: no subcircuits compared", name, k)
			}
		}
	}
}

func checkAgainstRef(t *testing.T, where string, c *circuit.Circuit, got *Subcircuit, want *refSub) {
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
	if tt, rt := got.Extract(c), refExtract(want, c); !tt.Equal(rt) {
		t.Fatalf("%s: Extract = %s, want %s", where, tt, rt)
	}
	if s, rs := got.GateSavings(c), refGateSavings(want, c); s != rs {
		t.Fatalf("%s: GateSavings = %d, want %d", where, s, rs)
	}
	if k, rk := got.Key(), refKey(want); k != rk {
		t.Fatalf("%s: Key = %+v, want %+v", where, k, rk)
	}
}

// TestKernelAllocs pins the allocation profile of the warm kernels:
// GateSavings allocates nothing, Extract only the table it returns. The pin
// drives one scratch directly rather than through the pool, which the race
// detector empties at random.
func TestKernelAllocs(t *testing.T) {
	c := gen.SmallSuite()[0].Build()
	db := ComputeCuts(c, 5, 32)
	var sub *Subcircuit
	for _, g := range c.Topo() {
		for _, s := range db.EnumerateFromCuts(c, g) {
			if len(s.Gates) > 2 && len(s.Inputs) >= 4 {
				sub = s
			}
		}
	}
	if sub == nil {
		t.Fatal("no multi-gate candidate")
	}
	sc := new(scratch)
	sc.gateSavings(sub, c)
	if n := testing.AllocsPerRun(200, func() { sc.gateSavings(sub, c) }); n != 0 {
		t.Fatalf("warm GateSavings allocates %v times per call, want 0", n)
	}
	sc.extract(sub, c)
	if n := testing.AllocsPerRun(200, func() { _ = sc.extract(sub, c) }); n != 1 {
		t.Fatalf("warm Extract allocates %v times per call, want 1 (the table's words)", n)
	}
}

// TestScratchEpochWrap: when the epoch counter wraps, marks from before the
// wrap (including never-set zero stamps) must not read as current.
func TestScratchEpochWrap(t *testing.T) {
	sc := new(scratch)
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
