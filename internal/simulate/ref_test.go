package simulate

import (
	"math/rand"
	"testing"

	"compsynth/internal/bench"
	"compsynth/internal/circuit"
	"compsynth/internal/gen"
)

// TestEquivalentRandomMatchesRef pins the CSR-backed equivalence checker to
// the pre-CSR reference: same circuits, same seeds, same verdicts, through
// both the exhaustive and the random-rounds path.
func TestEquivalentRandomMatchesRef(t *testing.T) {
	c17a, _ := bench.ParseString(bench.C17, "a")
	c17b, _ := bench.ParseString(bench.C17, "b")
	// Exhaustive path (5 inputs <= maxExhaustive).
	if got, want := EquivalentRandom(c17a, c17b, 8, 10, 1), RefEquivalentRandom(c17a, c17b, 8, 10, 1); got != want {
		t.Fatalf("exhaustive equal pair: %v vs ref %v", got, want)
	}
	swapFirstNandForNor(c17b)
	if got, want := EquivalentRandom(c17a, c17b, 8, 10, 1), RefEquivalentRandom(c17a, c17b, 8, 10, 1); got != want {
		t.Fatalf("exhaustive mutated pair: %v vs ref %v", got, want)
	}

	// Random-rounds path (18 inputs > maxExhaustive) over several seeds.
	p := gen.Params{Name: "r", Inputs: 18, Outputs: 6, Gates: 90, Layers: 6,
		MaxFanin: 3, Locality: 0.7, Seed: 21}
	a := gen.Random(p)
	b := gen.Random(p)
	for seed := int64(1); seed <= 5; seed++ {
		if got, want := EquivalentRandom(a, b, 4, 8, seed), RefEquivalentRandom(a, b, 4, 8, seed); got != want {
			t.Fatalf("random equal pair seed %d: %v vs ref %v", seed, got, want)
		}
	}
	swapFirstNandForNor(b)
	for seed := int64(1); seed <= 5; seed++ {
		if got, want := EquivalentRandom(a, b, 4, 8, seed), RefEquivalentRandom(a, b, 4, 8, seed); got != want {
			t.Fatalf("random mutated pair seed %d: %v vs ref %v", seed, got, want)
		}
	}
}

// refSim is the pre-CSR simulator: per-sparse-node words, topological order
// from the circuit's cache, pointer-chasing fanin reads. Kept as the
// executable reference the determinism tests pin EquivalentRandom against.
type refSim struct {
	c     *circuit.Circuit
	words []uint64 // indexed by sparse node ID
	topo  []int
	buf   []uint64
}

func newRefSim(c *circuit.Circuit) *refSim {
	return &refSim{c: c, words: make([]uint64, len(c.Nodes)), topo: c.Topo()}
}

func (s *refSim) run() {
	for _, id := range s.topo {
		nd := s.c.Nodes[id]
		if nd.Type == circuit.Input {
			continue
		}
		s.buf = s.buf[:0]
		for _, f := range nd.Fanin {
			s.buf = append(s.buf, s.words[f])
		}
		s.words[id] = nd.Type.EvalWords(s.buf)
	}
}

// RefEquivalentRandom is the pre-CSR EquivalentRandom: same patterns, same
// seed discipline, evaluated through the mutable representation.
func RefEquivalentRandom(a, b *circuit.Circuit, rounds int, maxExhaustive int, seed int64) bool {
	if len(a.Inputs) != len(b.Inputs) || len(a.Outputs) != len(b.Outputs) {
		return false
	}
	n := len(a.Inputs)
	sa, sb := newRefSim(a), newRefSim(b)
	if n <= maxExhaustive && n < 30 {
		return refEquivalentExhaustive(sa, sb, n)
	}
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < rounds; r++ {
		for j := 0; j < n; j++ {
			w := rng.Uint64()
			sa.words[a.Inputs[j]] = w
			sb.words[b.Inputs[j]] = w
		}
		sa.run()
		sb.run()
		for j := range a.Outputs {
			if sa.words[a.Outputs[j]] != sb.words[b.Outputs[j]] {
				return false
			}
		}
	}
	return true
}

func refEquivalentExhaustive(sa, sb *refSim, n int) bool {
	total := uint64(1) << n
	for base := uint64(0); base < total; base += 64 {
		for j := 0; j < n; j++ {
			var w uint64
			for b := uint64(0); b < 64 && base+b < total; b++ {
				if (base+b)>>(uint(j))&1 == 1 {
					w |= 1 << b
				}
			}
			sa.words[sa.c.Inputs[j]] = w
			sb.words[sb.c.Inputs[j]] = w
		}
		sa.run()
		sb.run()
		for j := range sa.c.Outputs {
			m := mask64(total - base)
			if (sa.words[sa.c.Outputs[j]]^sb.words[sb.c.Outputs[j]])&m != 0 {
				return false
			}
		}
	}
	return true
}
