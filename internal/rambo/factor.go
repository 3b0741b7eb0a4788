package rambo

import (
	"fmt"

	"compsynth/internal/circuit"
)

// Algebraic factoring: a minimized cover F is realized as
// F = l * (F/l) + R, recursing on the quotient and remainder, dividing by
// the most frequent literal. Single cubes become (multi-input) AND gates.

// builder constructs a factored form into a host circuit.
type builder struct {
	c      *circuit.Circuit
	n      int
	inputs []int
	inv    map[int]int
	prefix string
	serial int
}

// BuildFactored appends the factored realization of the cover to c, using
// inputs[v] as variable v (0-based), and returns the output node ID.
func BuildFactored(c *circuit.Circuit, n int, cubes []Cube, inputs []int, prefix string) int {
	if len(inputs) != n {
		panic("rambo: input count mismatch")
	}
	b := &builder{c: c, n: n, inputs: inputs, inv: map[int]int{}, prefix: prefix}
	return b.rec(cubes)
}

func (b *builder) name(tag string) string {
	b.serial++
	return fmt.Sprintf("%s%s%d", b.prefix, tag, b.serial)
}

func (b *builder) literal(v int, pos bool) int {
	in := b.inputs[v]
	if pos {
		return in
	}
	if g, ok := b.inv[in]; ok {
		return g
	}
	g := b.c.AddGate(circuit.Not, b.name("n"), in)
	b.inv[in] = g
	return g
}

func (b *builder) cube(cu Cube) int {
	var lits []int
	for v := 0; v < b.n; v++ {
		bit := 1 << (b.n - 1 - v)
		if cu.Mask&bit != 0 {
			lits = append(lits, b.literal(v, cu.Value&bit != 0))
		}
	}
	switch len(lits) {
	case 0:
		return b.c.AddGate(circuit.Const1, b.name("k"))
	case 1:
		return lits[0]
	default:
		return b.c.AddGate(circuit.And, b.name("a"), lits...)
	}
}

func (b *builder) rec(cubes []Cube) int {
	switch len(cubes) {
	case 0:
		return b.c.AddGate(circuit.Const0, b.name("k"))
	case 1:
		return b.cube(cubes[0])
	}
	// Most frequent literal.
	bestV, bestPos, bestCount := -1, false, 1
	for v := 0; v < b.n; v++ {
		for _, pos := range []bool{true, false} {
			count := 0
			for _, cu := range cubes {
				if cu.HasLiteral(b.n, v, pos) {
					count++
				}
			}
			if count > bestCount {
				bestV, bestPos, bestCount = v, pos, count
			}
		}
	}
	if bestV < 0 {
		// No shared literal: plain SOP.
		terms := make([]int, len(cubes))
		for i, cu := range cubes {
			terms[i] = b.cube(cu)
		}
		return b.c.AddGate(circuit.Or, b.name("o"), terms...)
	}
	var quotient, rest []Cube
	for _, cu := range cubes {
		if cu.HasLiteral(b.n, bestV, bestPos) {
			quotient = append(quotient, cu.DropVar(b.n, bestV))
		} else {
			rest = append(rest, cu)
		}
	}
	lit := b.literal(bestV, bestPos)
	q := b.rec(quotient)
	var t int
	if b.c.Nodes[q].Type == circuit.Const1 {
		t = lit
	} else {
		t = b.c.AddGate(circuit.And, b.name("a"), lit, q)
	}
	if len(rest) == 0 {
		return t
	}
	r := b.rec(rest)
	return b.c.AddGate(circuit.Or, b.name("o"), t, r)
}

// FactoredCost measures the equivalent-2-input gate count and per-variable
// path counts of the factored realization by building it into a scratch
// circuit.
func FactoredCost(n int, cubes []Cube) (equiv2 int, kp []int) {
	c := circuit.New("scratch")
	inputs := make([]int, n)
	for v := range inputs {
		inputs[v] = c.AddInput(fmt.Sprintf("y%d", v))
	}
	out := BuildFactored(c, n, cubes, inputs, "f_")
	c.MarkOutput(out)
	c.SweepDead()
	kp = make([]int, n)
	memo := map[int]int{}
	var count func(id int) int
	count = func(id int) int {
		if v, ok := memo[id]; ok {
			return v
		}
		total := c.NumPOUses(id)
		for _, f := range c.Fanouts(id) {
			total += count(f)
		}
		memo[id] = total
		return total
	}
	for v, in := range inputs {
		kp[v] = count(in)
	}
	return c.Equiv2Count(), kp
}
