package delay

import (
	"math/bits"
	"math/rand"

	"compsynth/internal/circuit"
)

// Word-parallel robust path-delay campaign. RunRandom applies its pairs 64
// at a time: bit lane l of every word belongs to pair base+1+l. One
// lane-parallel five-valued simulation on the frozen CSR view gives every
// fanin edge the mask of lanes in which it is robustly sensitized, and one
// depth-first walk per block follows the robustly sensitized paths of all
// 64 pairs at once, carrying the mask of lanes still on the trail. Each
// lane's trail is exactly the trail a one-pair walk over Sim5 and
// EdgeRobust would take (same roots, same edge order, same visit cap).

// visitCap bounds one pair's path search: after this many path-prefix
// visits the walk drops the pair's lane. It is a power of two, so a lane
// has reached it when bit capPlanes-1 of its visit counter is set.
const (
	visitCap  = 1 << 20
	capPlanes = 21
)

// runPairs applies opt.MaxPairs random pairs (at least one) 64 at a time
// and returns RunRandom's result without TotalFaults.
func runPairs(c *circuit.Circuit, opt CampaignOptions) CampaignResult {
	rng := rand.New(rand.NewSource(opt.Seed))
	var res CampaignResult
	w := newLaneWalk(c)
	in1 := make([]uint64, len(c.Inputs))
	in2 := make([]uint64, len(c.Inputs))
	quiet := 0
	for base := 0; base < opt.MaxPairs; base += 64 {
		lanes := min(64, opt.MaxPairs-base)
		draw(rng, in1, in2, lanes)
		w.block(in1, in2, base)
		var newAt [64]int
		for _, k := range w.fresh {
			newAt[w.detected[k]-base-1]++
		}
		// Account for the block's pairs in order, as a one-pair loop would.
		found, stop := 0, false
		for l := 0; l < lanes && !stop; l++ {
			res.Pairs = base + l + 1
			if newAt[l] > 0 {
				found += newAt[l]
				res.LastEffective = res.Pairs
				quiet = 0
			} else {
				quiet++
				stop = opt.QuietPairs > 0 && quiet >= opt.QuietPairs
			}
		}
		res.Detected += found
		mPairs.Add(int64(res.Pairs - base))
		if found > 0 {
			mPDFDetected.Add(int64(found))
		}
		if stop {
			break
		}
	}
	return res
}

// laneSim is the lane-parallel five-valued simulator. Every dense node has
// three planes: ini and fin hold its Boolean value under the first and the
// second pattern, and haz marks the lanes that hold XX. The other lanes
// decode as
//
//	S0 = ¬haz ∧ ¬ini ∧ ¬fin    R = ¬haz ∧ ¬ini ∧ fin
//	S1 = ¬haz ∧  ini ∧  fin    F = ¬haz ∧  ini ∧ ¬fin
//
// and each gate's rule reproduces the andV/orV/xorV fold of EvalGate.
type laneSim struct {
	v             *circuit.CSR
	ini, fin, haz []uint64 // per dense node
}

func newLaneSim(v *circuit.CSR) laneSim {
	n := v.N()
	planes := make([]uint64, 3*n)
	return laneSim{v: v, ini: planes[:n:n], fin: planes[n : 2*n : 2*n], haz: planes[2*n:]}
}

// run simulates one block: in1[j] and in2[j] carry primary input j's bits
// under the first and the second pattern.
func (s *laneSim) run(in1, in2 []uint64) {
	v := s.v
	ini, fin, haz := s.ini, s.fin, s.haz
	for j, d := range v.In {
		ini[d], fin[d], haz[d] = in1[j], in2[j], 0
	}
	for d, k := range v.Kind { // dense order is topological
		fi := v.FaninOf(int32(d))
		switch k {
		case circuit.Input:
		case circuit.Const0:
			ini[d], fin[d], haz[d] = 0, 0, 0
		case circuit.Const1:
			ini[d], fin[d], haz[d] = ^uint64(0), ^uint64(0), 0
		case circuit.Buf, circuit.Not:
			var inv uint64
			if k == circuit.Not {
				inv = ^uint64(0)
			}
			x := fi[0]
			ini[d], fin[d], haz[d] = ini[x]^inv, fin[x]^inv, haz[x]
		case circuit.And, circuit.Nand, circuit.Or, circuit.Nor:
			// OR is AND on complemented inputs and output. The AND is XX
			// unless some input is steady at the controlling 0, when an
			// input is XX or a rising and a falling input meet.
			var inv uint64
			if k == circuit.Or || k == circuit.Nor {
				inv = ^uint64(0)
			}
			a, b := ^uint64(0), ^uint64(0)
			var s0, h, r, f uint64
			for _, x := range fi {
				xi, xf, xh := ini[x]^inv, fin[x]^inv, haz[x]
				a &= xi
				b &= xf
				h |= xh
				s0 |= ^(xh | xi | xf)
				r |= ^(xh | xi) & xf
				f |= xi &^ (xh | xf)
			}
			out := inv
			if k == circuit.Nand || k == circuit.Nor {
				out = ^out
			}
			ini[d], fin[d], haz[d] = a^out, b^out, ^s0&(h|r&f)
		case circuit.Xor, circuit.Xnor:
			// XX when an input is XX or two inputs transition.
			var a, b, h, t1, t2 uint64
			for _, x := range fi {
				a ^= ini[x]
				b ^= fin[x]
				h |= haz[x]
				t := ini[x] ^ fin[x]
				t2 |= t1 & t
				t1 |= t
			}
			if k == circuit.Xnor {
				a, b = ^a, ^b
			}
			ini[d], fin[d], haz[d] = a, b, h|t2
		default:
			panic("delay: lane simulation of " + k.String())
		}
	}
}

// sideFail returns the lanes in which node x, as a side input of a gate of
// kind k, blocks robust propagation of a rising (nR) and of a falling (nF)
// on-input transition: the complement of sideOK.
func (s *laneSim) sideFail(k circuit.GateType, x int32) (nR, nF uint64) {
	i, f, h := s.ini[x], s.fin[x], s.haz[x]
	switch k {
	case circuit.Not, circuit.Buf:
		return 0, 0
	case circuit.And, circuit.Nand: // rising needs S1 or R, falling S1
		return h | ^f, h | ^(i & f)
	case circuit.Or, circuit.Nor: // rising needs S0, falling S0 or F
		return h | i | f, h | f
	case circuit.Xor, circuit.Xnor: // steady
		n := h | i ^ f
		return n, n
	}
	return ^uint64(0), ^uint64(0)
}

// arc is one fanout connection of the walk: pin `pin` of dense gate `to`.
type arc struct {
	to, pin int32
}

// laneWalk is one campaign's search state over a frozen view.
type laneWalk struct {
	laneSim
	outStart []int32  // dense id -> its first arc; N+1 entries
	arcs     []arc    // outEdges order: consumers by ascending sparse id, then pin
	arcOf    []int32  // fanin edge index -> arc position
	rob      []uint64 // per arc: lanes in which the edge is robustly sensitized
	poUses   []int32  // per dense id: times designated a primary output

	cnt      [capPlanes]uint64 // bit-sliced per-lane visit counters
	base     int               // pairs applied before the current block
	detected map[uint64]int    // fault signature -> 1-based first detecting pair
	fresh    []uint64          // signatures first detected in the current block
}

func newLaneWalk(c *circuit.Circuit) *laneWalk {
	v := c.Freeze()
	n, e := v.N(), len(v.FaninEdge)
	w := &laneWalk{
		laneSim:  newLaneSim(v),
		outStart: make([]int32, n+1),
		arcs:     make([]arc, e),
		arcOf:    make([]int32, e),
		rob:      make([]uint64, e),
		poUses:   make([]int32, n),
		detected: map[uint64]int{},
	}
	for _, f := range v.FaninEdge {
		w.outStart[f+1]++
	}
	for d := 0; d < n; d++ {
		w.outStart[d+1] += w.outStart[d]
	}
	next := make([]int32, n)
	copy(next, w.outStart)
	for _, d := range v.DenseOf { // ascending sparse id
		if d < 0 {
			continue
		}
		for pin, f := range v.FaninOf(d) {
			k := next[f]
			next[f]++
			w.arcs[k] = arc{to: d, pin: int32(pin)}
			w.arcOf[v.FaninStart[d]+int32(pin)] = k
		}
	}
	for _, d := range v.Out {
		w.poUses[d]++
	}
	return w
}

// robust sets rob to the lanes in which each edge is robustly sensitized:
// the on-input and the gate output transition without hazard, and every
// side input satisfies sideOK for the on-input's direction.
func (w *laneWalk) robust() {
	v := w.v
	for d, k := range v.Kind {
		lo, hi := v.FaninStart[d], v.FaninStart[d+1]
		out := (w.ini[d] ^ w.fin[d]) &^ w.haz[d]
		if out == 0 {
			for e := lo; e < hi; e++ {
				w.rob[w.arcOf[e]] = 0
			}
			continue
		}
		// f1 marks the lanes where at least one side condition fails, f2
		// where at least two do: all pins but p pass iff no pin fails or
		// p is the only one that does.
		var f1R, f2R, f1F, f2F uint64
		for _, x := range v.FaninEdge[lo:hi] {
			nR, nF := w.sideFail(k, x)
			f2R |= f1R & nR
			f1R |= nR
			f2F |= f1F & nF
			f1F |= nF
		}
		for e := lo; e < hi; e++ {
			x := v.FaninEdge[e]
			nR, nF := w.sideFail(k, x)
			on := out &^ w.haz[x]
			rise := on &^ w.ini[x] & w.fin[x]
			fall := on & w.ini[x] &^ w.fin[x]
			w.rob[w.arcOf[e]] = rise&^f2R&(^f1R|nR) | fall&^f2F&(^f1F|nF)
		}
	}
}

// block simulates pairs base+1 .. base+64 (in1, in2 as for laneSim.run)
// and walks their robustly sensitized paths, leaving the signatures they
// detect first in w.fresh.
func (w *laneWalk) block(in1, in2 []uint64, base int) {
	w.run(in1, in2)
	w.robust()
	w.cnt = [capPlanes]uint64{}
	w.base = base
	w.fresh = w.fresh[:0]
	for j, d := range w.v.In {
		rise, fall := ^in1[j]&in2[j], in1[j]&^in2[j]
		w.dfs(d, fnvMix(fnvBasis, 0), rise)
		w.dfs(d, fnvMix(fnvBasis, 1), fall)
	}
}

// dfs visits dense node d on a trail with signature sig for the lanes in
// m. The signature mixes the launch direction, the node sequence (sparse
// IDs), the pin index of each edge (distinguishing parallel edges) and the
// PO-use index (distinguishing multiply-designated output lines).
func (w *laneWalk) dfs(d int32, sig, m uint64) {
	if m &^= w.cnt[capPlanes-1]; m == 0 {
		return
	}
	for b, carry := 0, m; carry != 0; b++ { // one more visit for each lane of m
		carry, w.cnt[b] = w.cnt[b]&carry, w.cnt[b]^carry
	}
	sig = fnvMix(sig, uint64(w.v.NodeID[d]))
	for i := 0; i < int(w.poUses[d]); i++ {
		w.detect(fnvMix(sig, uint64(1_000_000_007+i)), m)
	}
	for k := w.outStart[d]; k < w.outStart[d+1]; k++ {
		if mm := m & w.rob[k]; mm != 0 {
			w.dfs(w.arcs[k].to, fnvMix(sig, uint64(w.arcs[k].pin)), mm)
		}
	}
}

// detect records that the lanes in m reach fault signature k; the lowest
// lane is the block's earliest pair to do so. A later trail to the same
// signature within the block (a hash collision, or an input listed twice)
// can only lower the first pair.
func (w *laneWalk) detect(k, m uint64) {
	pair := w.base + 1 + bits.TrailingZeros64(m)
	first, ok := w.detected[k]
	switch {
	case !ok:
		w.detected[k] = pair
		w.fresh = append(w.fresh, k)
	case first > w.base && pair < first:
		w.detected[k] = pair
	}
}

// draw fills bit l of in1[j] and in2[j] with pair l's coin flips for input
// j, in the one-pair loop's order: pair, then input, first pattern before
// second. rng.Intn(2) is bit 32 of rng.Int63(), because Int31n masks powers
// of two, so the stream is unchanged.
func draw(rng *rand.Rand, in1, in2 []uint64, lanes int) {
	clear(in1)
	clear(in2)
	for l := 0; l < lanes; l++ {
		for j := range in1 {
			in1[j] |= uint64(rng.Int63()>>32&1) << l
			in2[j] |= uint64(rng.Int63()>>32&1) << l
		}
	}
}
