package faultsim

import (
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"compsynth/internal/bench"
	"compsynth/internal/circuit"
	"compsynth/internal/faults"
	"compsynth/internal/gen"
)

// Pre-CSR per-fault simulator, kept as the executable reference: every
// undetected fault is injected and propagated event-driven through its
// fanout cone on per-sparse-node state, in cached topological order, with
// serial detection and fresh allocations per campaign. The tests pin
// Campaign == RefCampaign word for word. No metrics are emitted here, so
// reference runs never perturb the counters the real pipeline reports.
type refSimulator struct {
	c       *circuit.Circuit
	topo    []int
	pos     []int
	good    []uint64
	cur     []uint64
	dirty   []bool
	touched []int
	inQueue []bool
	queue   []int
	buf     []uint64
	poMask  map[int]bool
}

func newRefSimulator(c *circuit.Circuit) *refSimulator {
	topo := c.Topo()
	pos := make([]int, len(c.Nodes))
	for i, id := range topo {
		pos[id] = i
	}
	po := map[int]bool{}
	for _, o := range c.Outputs {
		po[o] = true
	}
	c.RebuildFanouts()
	return &refSimulator{
		c: c, topo: topo, pos: pos,
		good:    make([]uint64, len(c.Nodes)),
		cur:     make([]uint64, len(c.Nodes)),
		dirty:   make([]bool, len(c.Nodes)),
		inQueue: make([]bool, len(c.Nodes)),
		poMask:  po,
	}
}

func (s *refSimulator) setInputs(words []uint64) {
	for j, in := range s.c.Inputs {
		s.good[in] = words[j]
	}
}

func (s *refSimulator) runGood() {
	for _, id := range s.topo {
		nd := s.c.Nodes[id]
		if nd.Type == circuit.Input {
			continue
		}
		s.buf = s.buf[:0]
		for _, f := range nd.Fanin {
			s.buf = append(s.buf, s.good[f])
		}
		s.good[id] = nd.Type.EvalWords(s.buf)
	}
}

func (s *refSimulator) detectWord(f faults.Fault) uint64 {
	var detected uint64
	s.queue = s.queue[:0]

	inject := func(id int, w uint64) {
		if w == s.good[id] && !s.dirty[id] {
			return
		}
		s.cur[id] = w
		if !s.dirty[id] {
			s.dirty[id] = true
			s.touched = append(s.touched, id)
		}
		if s.poMask[id] {
			detected |= w ^ s.good[id]
		}
		for _, consumer := range s.c.Fanouts(id) {
			s.push(consumer)
		}
	}

	faultyWord := uint64(0)
	if f.Stuck {
		faultyWord = ^uint64(0)
	}

	if f.Pin < 0 {
		inject(f.Node, faultyWord)
	} else {
		nd := s.c.Nodes[f.Node]
		s.buf = s.buf[:0]
		for pin, fn := range nd.Fanin {
			w := s.good[fn]
			if pin == f.Pin {
				w = faultyWord
			}
			s.buf = append(s.buf, w)
		}
		inject(f.Node, nd.Type.EvalWords(s.buf))
	}

	for len(s.queue) > 0 {
		id := s.pop()
		nd := s.c.Nodes[id]
		s.buf = s.buf[:0]
		for _, fn := range nd.Fanin {
			s.buf = append(s.buf, s.val(fn))
		}
		w := nd.Type.EvalWords(s.buf)
		if w != s.val(id) {
			inject(id, w)
		}
	}

	for _, id := range s.touched {
		s.dirty[id] = false
	}
	s.touched = s.touched[:0]
	return detected
}

func (s *refSimulator) val(id int) uint64 {
	if s.dirty[id] {
		return s.cur[id]
	}
	return s.good[id]
}

func (s *refSimulator) push(id int) {
	if s.inQueue[id] {
		return
	}
	s.inQueue[id] = true
	s.queue = append(s.queue, id)
}

func (s *refSimulator) pop() int {
	best := 0
	for i := 1; i < len(s.queue); i++ {
		if s.pos[s.queue[i]] < s.pos[s.queue[best]] {
			best = i
		}
	}
	id := s.queue[best]
	s.queue[best] = s.queue[len(s.queue)-1]
	s.queue = s.queue[:len(s.queue)-1]
	s.inQueue[id] = false
	return id
}

// RefCampaign is the pre-CSR serial campaign: same pattern sequence, same
// merge discipline, evaluated through the mutable representation.
func RefCampaign(c *circuit.Circuit, fl []faults.Fault, patterns int, seed int64) CampaignResult {
	s := newRefSimulator(c)
	rng := rand.New(rand.NewSource(seed))
	remaining := append([]faults.Fault(nil), fl...)
	res := CampaignResult{TotalFaults: len(fl)}
	words := make([]uint64, len(c.Inputs))
	detect := make([]uint64, len(remaining))
	blocks := (patterns + 63) / 64
	for b := 0; b < blocks && len(remaining) > 0; b++ {
		for j := range words {
			words[j] = rng.Uint64()
		}
		s.setInputs(words)
		s.runGood()
		for i, f := range remaining {
			detect[i] = s.detectWord(f)
		}
		kept := remaining[:0]
		for i, f := range remaining {
			d := detect[i]
			if d == 0 {
				kept = append(kept, f)
				continue
			}
			res.Detected++
			first := b*64 + bits.TrailingZeros64(d) + 1
			if first > res.LastEffective {
				res.LastEffective = first
			}
		}
		remaining = kept
	}
	res.Remaining = append([]faults.Fault(nil), remaining...)
	res.Patterns = blocks * 64
	return res
}

func campaignsEqual(a, b CampaignResult) bool {
	if a.TotalFaults != b.TotalFaults || a.Detected != b.Detected ||
		a.LastEffective != b.LastEffective || a.Patterns != b.Patterns ||
		len(a.Remaining) != len(b.Remaining) {
		return false
	}
	for i := range a.Remaining {
		if a.Remaining[i] != b.Remaining[i] {
			return false
		}
	}
	return true
}

// shuffled re-declares c's gates in a seeded random order: the same
// netlist with other node IDs, hence another dense order and FFR layout.
func shuffled(t *testing.T, c *circuit.Circuit, seed int64) *circuit.Circuit {
	t.Helper()
	var decls, gates []string
	for _, line := range strings.Split(bench.String(c), "\n") {
		if strings.Contains(line, " = ") {
			gates = append(gates, line)
		} else {
			decls = append(decls, line)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(gates), func(i, j int) { gates[i], gates[j] = gates[j], gates[i] })
	out, err := bench.ParseString(strings.Join(append(decls, gates...), "\n"), c.Name+"-shuffled")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCampaignMatchesRef pins the FFR campaign to the per-fault serial
// reference: identical results field for field including the order of the
// surviving fault list, across worker counts (3 deals the regions
// unevenly) and repeated (pool-recycling) invocations.
func TestCampaignMatchesRef(t *testing.T) {
	c17, err := bench.ParseString(bench.C17, "c17")
	if err != nil {
		t.Fatal(err)
	}
	type campaign struct {
		c        *circuit.Circuit
		patterns int
	}
	runs := []campaign{{c17, 256}}
	for seed := int64(3); seed <= 5; seed++ {
		runs = append(runs, campaign{gen.Random(gen.Params{
			Name: "r", Inputs: 14, Outputs: 6, Gates: 150, Layers: 8,
			MaxFanin: 4, Locality: 0.6, Seed: seed,
		}), 256})
	}
	for _, b := range gen.Suite(0.15) {
		if b.Name == "rs9234" || b.Name == "rs38584" {
			c := b.Build()
			runs = append(runs, campaign{c, 1 << 13}, campaign{shuffled(t, c, 29), 1 << 13})
		}
	}
	if len(runs) != 8 {
		t.Fatalf("quick suite lacks rs9234 or rs38584: %d campaigns", len(runs))
	}
	for _, r := range runs {
		fl := faults.Collapse(r.c)
		want := RefCampaign(r.c, fl, r.patterns, 7)
		for _, workers := range []int{1, 2, 3} {
			// Twice per worker count: the second run reuses pooled state.
			for round := 0; round < 2; round++ {
				got := Campaign(r.c, fl, CampaignOptions{Patterns: r.patterns, Seed: 7, Workers: workers})
				if !campaignsEqual(got, want) {
					t.Fatalf("%s workers %d round %d:\ngot  %+v\nwant %+v",
						r.c.Name, workers, round, got, want)
				}
			}
		}
	}
}

// TestCampaignAfterEditMatchesRef ages the frozen view between campaigns so
// the incremental rebuild feeds the simulator, then re-pins against the
// reference built from the same mutated circuit.
func TestCampaignAfterEditMatchesRef(t *testing.T) {
	c, err := bench.ParseString(bench.Adder4, "adder4")
	if err != nil {
		t.Fatal(err)
	}
	fl := faults.Collapse(c)
	if r := Campaign(c, fl, CampaignOptions{Patterns: 128, Seed: 3}); r.TotalFaults == 0 {
		t.Fatal("empty fault list")
	}
	g := c.AddGate(circuit.Nor, "", c.Outputs[0], c.Outputs[1])
	c.MarkOutput(g)
	fl = faults.Collapse(c)
	got := Campaign(c, fl, CampaignOptions{Patterns: 128, Seed: 3})
	want := RefCampaign(c, fl, 128, 3)
	if !campaignsEqual(got, want) {
		t.Fatalf("post-edit campaign:\ngot  %+v\nwant %+v", got, want)
	}
}
