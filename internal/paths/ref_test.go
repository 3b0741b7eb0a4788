package paths

import (
	"testing"

	"compsynth/internal/bench"
	"compsynth/internal/circuit"
	"compsynth/internal/gen"
)

func refCircuits(t *testing.T) []*circuit.Circuit {
	t.Helper()
	c17, err := bench.ParseString(bench.C17, "c17")
	if err != nil {
		t.Fatal(err)
	}
	add4, err := bench.ParseString(bench.Adder4, "adder4")
	if err != nil {
		t.Fatal(err)
	}
	cs := []*circuit.Circuit{c17, add4}
	for seed := int64(1); seed <= 4; seed++ {
		cs = append(cs, gen.Random(gen.Params{
			Name: "r", Inputs: 12, Outputs: 5, Gates: 120, Layers: 7,
			MaxFanin: 4, Locality: 0.6, Seed: seed,
		}))
	}
	return cs
}

// TestCountMatchesRef pins the CSR-backed Count to the pre-CSR reference on
// pristine, mutated and re-frozen circuits: the port must be invisible in
// results, not just close.
func TestCountMatchesRef(t *testing.T) {
	for i, c := range refCircuits(t) {
		got, gerr := Count(c)
		want, werr := RefCount(c)
		if got != want || (gerr == nil) != (werr == nil) {
			t.Fatalf("circuit %d: Count = %d (%v), RefCount = %d (%v)", i, got, gerr, want, werr)
		}
		// Mutate (aging the frozen view) and re-compare on the patched view.
		g := c.AddGate(circuit.Not, "", c.Outputs[0])
		c.MarkOutput(g)
		got, gerr = Count(c)
		want, werr = RefCount(c)
		if got != want || (gerr == nil) != (werr == nil) {
			t.Fatalf("circuit %d after edit: Count = %d (%v), RefCount = %d (%v)", i, got, gerr, want, werr)
		}
	}
}

func TestThroughMatchesRef(t *testing.T) {
	for i, c := range refCircuits(t) {
		for _, nd := range c.Nodes {
			if nd == nil {
				continue
			}
			if got, want := Through(c, nd.ID), RefThrough(c, nd.ID); got != want {
				t.Fatalf("circuit %d node %d: Through = %d, ref = %d", i, nd.ID, got, want)
			}
		}
	}
}

func TestFanoutWeightsMatchSparseSweep(t *testing.T) {
	for i, c := range refCircuits(t) {
		got := FanoutWeights(c)
		want := make([]uint64, len(c.Nodes))
		for _, o := range c.Outputs {
			want[o]++
		}
		topo := c.Topo()
		for j := len(topo) - 1; j >= 0; j-- {
			for _, f := range c.Nodes[topo[j]].Fanin {
				want[f] += want[topo[j]]
			}
		}
		for id := range want {
			if got[id] != want[id] {
				t.Fatalf("circuit %d node %d: weight %d, ref %d", i, id, got[id], want[id])
			}
		}
	}
}

// RefCount is the pre-CSR Count implementation, kept as the executable
// reference: it labels through the mutable pointer-based representation via
// Labels/LabelNode. The tests above pin Count == RefCount on every circuit.
func RefCount(c *circuit.Circuit) (uint64, error) {
	np, ok := Labels(c)
	if !ok {
		return 0, ErrOverflow
	}
	var total uint64
	for _, o := range c.Outputs {
		s := total + np[o]
		if s < total {
			return 0, ErrOverflow
		}
		total = s
	}
	return total, nil
}

// RefThrough is the pre-CSR Through implementation.
func RefThrough(c *circuit.Circuit, id int) uint64 {
	np, _ := Labels(c)
	w := make([]uint64, len(c.Nodes))
	for _, o := range c.Outputs {
		w[o]++
	}
	topo := c.Topo()
	for i := len(topo) - 1; i >= 0; i-- {
		for _, f := range c.Nodes[topo[i]].Fanin {
			w[f] += w[topo[i]]
		}
	}
	return np[id] * w[id]
}
