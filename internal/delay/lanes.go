package delay

import (
	"math/bits"

	"compsynth/internal/circuit"
	"compsynth/internal/par"
)

// Word-parallel robust path-delay campaign. RunRandom applies its pairs 64
// at a time: bit lane l of every word belongs to pair base+1+l. One
// lane-parallel five-valued simulation on the frozen CSR view gives every
// fanin edge the mask of lanes in which it is robustly sensitized, and one
// depth-first walk per block follows the robustly sensitized paths of all
// 64 pairs at once, carrying the mask of lanes still on the trail. Each
// lane's trail is exactly the trail a one-pair walk over Sim5 and
// EdgeRobust would take (same roots, same edge order, same visit cap).
//
// Blocks are independent until their detections are counted, so they run
// through the ordered pipeline of par.Ordered: a worker claims the next
// block and draws its pairs from the one pattern stream, in block order;
// walks it into the block's list of signatures, each with the block's
// earliest pair to reach it; and the lists are merged strictly in block
// order. The merge is the one-pair loop's accounting, so results and
// counters are the same for any worker count.

// visitCap bounds one pair's path search: after this many path-prefix
// visits the walk drops the pair's lane. It is a power of two, so a lane
// has reached it when bit capPlanes-1 of its visit counter is set.
const (
	visitCap  = 1 << 20
	capPlanes = 21
)

const (
	// walkGrain is the smallest view, in nodes, whose campaign fans out:
	// below it a block's walk is too short to pay for the hand-offs, and
	// the campaign runs its one loop inline (measured in EXPERIMENTS.md,
	// "Block-parallel path-delay campaign and a scheduled good-value
	// sweep").
	walkGrain = 64

	// hitCap is the initial capacity of a slot's signature list: a block
	// reaches each path fault's signature at most once, so on a circuit
	// with fewer path faults no list ever grows, and on others a list
	// grows only past the most any earlier block in its slot reached.
	hitCap = 256
)

// runPairs applies opt.MaxPairs random pairs (at least one) 64 at a time
// on opt.Workers workers and returns RunRandom's result without
// TotalFaults.
func runPairs(c *circuit.Circuit, opt CampaignOptions) CampaignResult {
	g := newWalkGraph(c)
	blocks := (opt.MaxPairs + 63) / 64
	w := min(par.Workers(opt.Workers), blocks)
	if g.v.N() < walkGrain {
		w = 1
	}
	cp := &campaign{opt: opt, seen: map[uint64]int{}}
	cp.pat.Seed(opt.Seed)
	cp.slots = make([]slot, par.Ahead*w)
	pats := make([]uint64, 2*len(g.v.In)*len(cp.slots))
	for i := range cp.slots {
		cp.slots[i].pat = pats[2*len(g.v.In)*i:][:2*len(g.v.In)]
		cp.slots[i].hits = make([]hit, 0, hitCap)
	}
	cp.walkers = make([]walker, w)
	for k := range cp.walkers {
		cp.walkers[k] = walker{laneSim: newLaneSim(g.v), g: g, rob: make([]uint64, len(g.arcs))}
	}
	cp.pipe.Run(w, blocks, cp)
	return cp.res
}

// campaign is the state its workers share. Blocks are claimed, with their
// draws, and merged under the lock of its pipeline.
type campaign struct {
	opt     CampaignOptions
	pipe    par.Ordered
	walkers []walker       // per worker
	pat     par.Stream     // the pattern stream, drawn in block order
	slots   []slot         // block b is walked in slots[b%len(slots)]
	seen    map[uint64]int // signature -> 1-based first pair to reach it, over the merged blocks
	quiet   int            // pairs since the last new detection
	res     CampaignResult
}

// slot holds one block in flight: its pairs and the signatures it reaches.
type slot struct {
	base, lanes int      // pairs before the block; pairs in it
	pat         []uint64 // pat[2j], pat[2j+1]: input j's bits under the first and second pattern
	hits        []hit    // in detect order
}

// hit is one signature a block reaches and the block's earliest pair to
// reach it (1-based).
type hit struct {
	sig  uint64
	pair int
}

// Claim takes block b and draws its pairs.
func (cp *campaign) Claim(b, _ int) {
	sl := &cp.slots[b%len(cp.slots)]
	sl.base = 64 * b
	sl.lanes = min(64, cp.opt.MaxPairs-sl.base)
	draw(&cp.pat, sl.pat, sl.lanes)
}

// Run walks block b with the worker's walker.
func (cp *campaign) Run(b, worker int) {
	cp.walkers[worker].block(&cp.slots[b%len(cp.slots)])
}

// Merge counts block b's detections in pair order, as a one-pair loop
// would: a signature no earlier block reached is new at the block's
// earliest pair to reach it. It reports whether the quiet stop fired.
func (cp *campaign) Merge(b int) (stop bool) {
	sl := &cp.slots[b%len(cp.slots)]
	base := sl.base
	var newAt [64]int
	for _, h := range sl.hits {
		// A second hit on a signature within the block (a hash collision,
		// or an input listed twice) can only lower its first pair.
		first, ok := cp.seen[h.sig]
		switch {
		case !ok:
			cp.seen[h.sig] = h.pair
			newAt[h.pair-base-1]++
		case first > base && h.pair < first:
			cp.seen[h.sig] = h.pair
			newAt[first-base-1]--
			newAt[h.pair-base-1]++
		}
	}
	res, found := &cp.res, 0
	for l := 0; l < sl.lanes && !stop; l++ {
		res.Pairs = base + l + 1
		if newAt[l] > 0 {
			found += newAt[l]
			res.LastEffective = res.Pairs
			cp.quiet = 0
		} else {
			cp.quiet++
			stop = cp.opt.QuietPairs > 0 && cp.quiet >= cp.opt.QuietPairs
		}
	}
	res.Detected += found
	mPairs.Add(int64(res.Pairs - base))
	if found > 0 {
		mPDFDetected.Add(int64(found))
	}
	return stop
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

// run simulates one block: pat[2j] and pat[2j+1] carry primary input j's
// bits under the first and the second pattern.
func (s *laneSim) run(pat []uint64) {
	v := s.v
	ini, fin, haz := s.ini, s.fin, s.haz
	for j, d := range v.In {
		ini[d], fin[d], haz[d] = pat[2*j], pat[2*j+1], 0
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

// walkGraph is the fanout structure a campaign's walkers share read-only.
type walkGraph struct {
	v        *circuit.CSR
	outStart []int32 // dense id -> its first arc; N+1 entries
	arcs     []arc   // outEdges order: consumers by ascending sparse id, then pin
	arcOf    []int32 // fanin edge index -> arc position
	poUses   []int32 // per dense id: times designated a primary output
}

func newWalkGraph(c *circuit.Circuit) *walkGraph {
	v := c.Freeze()
	n, e := v.N(), len(v.FaninEdge)
	g := &walkGraph{
		v:        v,
		outStart: make([]int32, n+1),
		arcs:     make([]arc, e),
		arcOf:    make([]int32, e),
		poUses:   make([]int32, n),
	}
	for _, f := range v.FaninEdge {
		g.outStart[f+1]++
	}
	for d := 0; d < n; d++ {
		g.outStart[d+1] += g.outStart[d]
	}
	next := make([]int32, n)
	copy(next, g.outStart)
	for _, d := range v.DenseOf { // ascending sparse id
		if d < 0 {
			continue
		}
		for pin, f := range v.FaninOf(d) {
			k := next[f]
			next[f]++
			g.arcs[k] = arc{to: d, pin: int32(pin)}
			g.arcOf[v.FaninStart[d]+int32(pin)] = k
		}
	}
	for _, d := range v.Out {
		g.poUses[d]++
	}
	return g
}

// walker is one worker's search state: its own planes, edge masks and
// visit counters over the shared graph.
type walker struct {
	laneSim
	g   *walkGraph
	rob []uint64          // per arc: lanes in which the edge is robustly sensitized
	cnt [capPlanes]uint64 // bit-sliced per-lane visit counters
	sl  *slot             // the block being walked
}

// robust sets rob to the lanes in which each edge is robustly sensitized:
// the on-input and the gate output transition without hazard, and every
// side input satisfies sideOK for the on-input's direction.
func (w *walker) robust() {
	v := w.v
	for d, k := range v.Kind {
		lo, hi := v.FaninStart[d], v.FaninStart[d+1]
		out := (w.ini[d] ^ w.fin[d]) &^ w.haz[d]
		if out == 0 {
			for e := lo; e < hi; e++ {
				w.rob[w.g.arcOf[e]] = 0
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
			w.rob[w.g.arcOf[e]] = rise&^f2R&(^f1R|nR) | fall&^f2F&(^f1F|nF)
		}
	}
}

// block simulates the pairs of sl and walks their robustly sensitized
// paths, leaving the signatures they reach in sl.hits.
func (w *walker) block(sl *slot) {
	w.run(sl.pat)
	w.robust()
	w.cnt = [capPlanes]uint64{}
	w.sl = sl
	sl.hits = sl.hits[:0]
	for j, d := range w.v.In {
		i, f := sl.pat[2*j], sl.pat[2*j+1]
		w.dfs(d, fnvMix(fnvBasis, 0), ^i&f)
		w.dfs(d, fnvMix(fnvBasis, 1), i&^f)
	}
}

// dfs visits dense node d on a trail with signature sig for the lanes in
// m. The signature mixes the launch direction, the node sequence (sparse
// IDs), the pin index of each edge (distinguishing parallel edges) and the
// PO-use index (distinguishing multiply-designated output lines).
func (w *walker) dfs(d int32, sig, m uint64) {
	if m &^= w.cnt[capPlanes-1]; m == 0 {
		return
	}
	for b, carry := 0, m; carry != 0; b++ { // one more visit for each lane of m
		carry, w.cnt[b] = w.cnt[b]&carry, w.cnt[b]^carry
	}
	sig = fnvMix(sig, uint64(w.v.NodeID[d]))
	for i := 0; i < int(w.g.poUses[d]); i++ {
		w.detect(fnvMix(sig, uint64(1_000_000_007+i)), m)
	}
	for k := w.g.outStart[d]; k < w.g.outStart[d+1]; k++ {
		if mm := m & w.rob[k]; mm != 0 {
			w.dfs(w.g.arcs[k].to, fnvMix(sig, uint64(w.g.arcs[k].pin)), mm)
		}
	}
}

// detect records that the lanes in m reach fault signature k; the lowest
// lane is the block's earliest pair to do so.
func (w *walker) detect(k, m uint64) {
	w.sl.hits = append(w.sl.hits, hit{sig: k, pair: w.sl.base + 1 + bits.TrailingZeros64(m)})
}

// draw fills bit l of pat[2j] and pat[2j+1] with pair l's coin flips for
// input j, in the one-pair loop's order: pair, then input, first pattern
// before second. rng.Intn(2) is bit 32 of the source's next value, because
// Int63 clears only bit 63 and Int31n masks powers of two, so the stream
// is unchanged.
func draw(st *par.Stream, pat []uint64, lanes int) {
	clear(pat)
	for l := 0; l < lanes; l++ {
		for t := 0; t < len(pat); {
			xs := st.Next(len(pat) - t)
			for i, x := range xs {
				pat[t+i] |= x >> 32 & 1 << l
			}
			t += len(xs)
		}
	}
}
