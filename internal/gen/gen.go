// Package gen produces seeded synthetic benchmark circuits standing in for
// the ISCAS-89 combinational cores used by the paper (see DESIGN.md,
// substitution 1). The generator builds layered, reconvergent random DAGs of
// AND/OR/NAND/NOR/NOT gates with tunable size, depth, fanin and locality,
// which reproduces the properties the paper's procedures are sensitive to:
// multi-level structure, reconvergent fanout, and path counts spanning
// 1e4..1e7.
package gen

import (
	"fmt"
	"math/rand"

	"compsynth/internal/circuit"
)

// Params control the random circuit shape.
type Params struct {
	Name     string
	Inputs   int
	Outputs  int
	Gates    int     // number of gates to generate (before sweeping)
	Layers   int     // depth bound: gates are spread over this many layers
	MaxFanin int     // 2..n
	Locality float64 // probability a fanin comes from the previous layer
	InvProb  float64 // probability of a NOT gate
	// MacroProb mixes in decode/compare-style cones: two-level SOP
	// realizations of random interval detectors over 4-5 signals. Real
	// netlists (the ISCAS circuits are scanned versions of actual designs
	// with counters, decoders and comparators) are rich in exactly this
	// substructure, which is what makes them responsive to
	// comparison-unit replacement; pure random DAGs are not.
	MacroProb float64
	Seed      int64
}

// Random generates a circuit from p. The result is valid, acyclic, swept
// (every gate reaches an output) and has depth at most p.Layers.
func Random(p Params) *circuit.Circuit {
	if p.Inputs < 1 || p.Outputs < 1 || p.Gates < 1 {
		panic("gen: invalid parameters")
	}
	if p.MaxFanin < 2 {
		p.MaxFanin = 2
	}
	if p.Layers <= 0 {
		p.Layers = 12
	}
	rng := rand.New(rand.NewSource(p.Seed))
	c := circuit.New(p.Name)

	layers := make([][]int, p.Layers+1)
	for i := 0; i < p.Inputs; i++ {
		layers[0] = append(layers[0], c.AddInput(fmt.Sprintf("pi%d", i)))
	}
	perLayer := p.Gates / p.Layers
	if perLayer < 1 {
		perLayer = 1
	}
	types := []circuit.GateType{circuit.And, circuit.Or, circuit.Nand, circuit.Nor}
	built := 0
	for l := 1; l <= p.Layers && built < p.Gates; l++ {
		count := perLayer
		if l == p.Layers {
			count = p.Gates - built
		}
		for i := 0; i < count && built < p.Gates; i++ {
			pick := func() int {
				if rng.Float64() < p.Locality || l == 1 {
					prev := layers[l-1]
					if len(prev) > 0 {
						return prev[rng.Intn(len(prev))]
					}
				}
				// Any earlier layer, weighted toward recent ones.
				for {
					ll := rng.Intn(l)
					if len(layers[ll]) > 0 {
						return layers[ll][rng.Intn(len(layers[ll]))]
					}
				}
			}
			if rng.Float64() < p.MacroProb && built+12 < p.Gates {
				// Decode/compare macro: SOP of a random interval detector.
				n := 4 + rng.Intn(2)
				sigs := make([]int, n)
				for j := range sigs {
					sigs[j] = pick()
				}
				lo := rng.Intn(1 << n)
				hi := lo + rng.Intn(1<<n-lo)
				id, cost := sopInterval(c, sigs, lo, hi)
				if id >= 0 {
					layers[l] = append(layers[l], id)
					built += cost
				}
				continue
			}
			if rng.Float64() < p.InvProb {
				layers[l] = append(layers[l], c.AddGate(circuit.Not, "", pick()))
				built++
				continue
			}
			t := types[rng.Intn(len(types))]
			k := 2
			if p.MaxFanin > 2 && rng.Float64() < 0.4 {
				k += 1 + rng.Intn(p.MaxFanin-2)
			}
			fanin := make([]int, 0, k)
			seen := map[int]bool{}
			for len(fanin) < k {
				f := pick()
				if !seen[f] {
					seen[f] = true
					fanin = append(fanin, f)
				}
				if len(seen) >= p.Inputs+built {
					break
				}
			}
			layers[l] = append(layers[l], c.AddGate(t, "", fanin...))
			built++
		}
	}

	// Outputs: prefer sinks (gates with no fanout), then random gates from
	// the last layers.
	var sinks, others []int
	for l := 1; l <= p.Layers; l++ {
		for _, id := range layers[l] {
			if len(c.Fanouts(id)) == 0 {
				sinks = append(sinks, id)
			} else {
				others = append(others, id)
			}
		}
	}
	rng.Shuffle(len(sinks), func(i, j int) { sinks[i], sinks[j] = sinks[j], sinks[i] })
	rng.Shuffle(len(others), func(i, j int) { others[i], others[j] = others[j], others[i] })
	seenPO := map[int]bool{}
	var chosen []int
	for _, s := range append(sinks, others...) {
		if len(chosen) >= p.Outputs {
			break
		}
		if !seenPO[s] {
			seenPO[s] = true
			chosen = append(chosen, s)
		}
	}
	for _, id := range chosen {
		c.MarkOutput(id)
	}
	c.SweepDead()
	out, _ := c.Compact()
	return out
}

// sopInterval emits a two-level sum-of-products realization of the interval
// detector [lo, hi] over the given signals (MSB first), returning the output
// node and the number of gates spent. Cubes come from the minimized cover so
// macros are plausible logic rather than one AND per minterm.
func sopInterval(c *circuit.Circuit, sigs []int, lo, hi int) (int, int) {
	n := len(sigs)
	// Collect the minterms and cover greedily with maximal aligned cubes
	// (binary carving of the interval), the classic decoder shape.
	type cube struct{ mask, val int }
	var cubes []cube
	var carve func(a, b int)
	carve = func(a, b int) {
		if a > b {
			return
		}
		// Largest aligned power-of-two block starting at a that fits in b.
		size := 1
		for a%(size*2) == 0 && a+size*2-1 <= b && size*2 <= 1<<n {
			size *= 2
		}
		cubes = append(cubes, cube{mask: (1<<n - 1) &^ (size - 1), val: a})
		carve(a+size, b)
	}
	carve(lo, hi)
	if len(cubes) == 0 || len(cubes) > 8 {
		return -1, 0
	}
	inv := map[int]int{}
	cost := 0
	notOf := func(s int) int {
		if g, ok := inv[s]; ok {
			return g
		}
		g := c.AddGate(circuit.Not, "", s)
		inv[s] = g
		cost++
		return g
	}
	var terms []int
	for _, cu := range cubes {
		var lits []int
		for j := 0; j < n; j++ {
			bit := 1 << (n - 1 - j)
			if cu.mask&bit == 0 {
				continue
			}
			if cu.val&bit != 0 {
				lits = append(lits, sigs[j])
			} else {
				lits = append(lits, notOf(sigs[j]))
			}
		}
		switch len(lits) {
		case 0:
			return -1, cost // whole space: degenerate
		case 1:
			terms = append(terms, lits[0])
		default:
			terms = append(terms, c.AddGate(circuit.And, "", lits...))
			cost++
		}
	}
	if len(terms) == 1 {
		return terms[0], cost
	}
	cost++
	return c.AddGate(circuit.Or, "", terms...), cost
}

// Bench describes one synthetic analog of a paper circuit.
type Bench struct {
	Name   string
	Params Params
}

// Suite returns the synthetic analogs of the paper's eight benchmark
// circuits (Table 2), with sizes scaled by scale (1.0 = calibrated
// defaults). Names follow the paper's with an "rs" prefix.
func Suite(scale float64) []Bench {
	if scale <= 0 {
		scale = 1
	}
	s := func(n int) int {
		v := int(float64(n) * scale)
		if v < 8 {
			v = 8
		}
		return v
	}
	mk := func(name string, in, out, gates, layers int, loc float64, seed int64) Bench {
		return Bench{Name: name, Params: Params{
			Name: name, Inputs: s(in), Outputs: s(out), Gates: s(gates),
			Layers: layers, MaxFanin: 3, Locality: loc, InvProb: 0.15,
			MacroProb: 0.06, Seed: seed,
		}}
	}
	// Layers and locality are tuned so path counts span roughly the
	// paper's orders of magnitude (1e4 .. 1e7) at scale 1.
	return []Bench{
		mk("rs1423", 91, 79, 560, 14, 0.75, 11423),
		mk("rs5378", 214, 224, 1500, 9, 0.55, 15378),
		mk("rs9234", 247, 248, 2100, 16, 0.70, 19234),
		mk("rs13207", 699, 788, 2900, 17, 0.70, 113207),
		mk("rs15850", 611, 680, 3600, 22, 0.75, 115850),
		mk("rs35932", 1763, 2048, 5200, 8, 0.50, 135932),
		mk("rs38417", 1664, 1742, 5600, 15, 0.65, 138417),
		mk("rs38584", 1455, 1700, 6400, 14, 0.60, 138584),
	}
}

// Build generates the circuit for a suite entry.
func (b Bench) Build() *circuit.Circuit {
	return Random(b.Params)
}

// SmallSuite returns fast, small circuits for tests and quick benches.
func SmallSuite() []Bench {
	var out []Bench
	for i, seed := range []int64{3, 17, 29, 71} {
		out = append(out, Bench{
			Name: fmt.Sprintf("small%d", i),
			Params: Params{
				Name: fmt.Sprintf("small%d", i), Inputs: 12, Outputs: 8,
				Gates: 90, Layers: 7, MaxFanin: 3, Locality: 0.7,
				InvProb: 0.2, Seed: seed,
			},
		})
	}
	return out
}
