// Package compare implements the paper's primary contribution: comparison
// functions and comparison units.
//
// A function f(y1..yn) is a comparison function (Definition 1) if there is a
// permutation (x1..xn) of its inputs and bounds L <= U such that, reading
// (x1..xn) as a binary number with x1 the most significant bit, f = 1 exactly
// on the minterms m with L <= m <= U. Such functions are implemented by
// comparison units: a >=L block and a <=U block feeding an AND gate, with the
// free-variable and trivial-bound simplifications of Section 3.2.
package compare

import (
	"fmt"
	"math/bits"

	"compsynth/internal/circuit"
	"compsynth/internal/logic"
)

// Spec describes a comparison-function realization of a function f over N
// inputs: under the permutation Perm (position i, 0-based, holds original
// input Perm[i]), the onset of f — or of its complement when Complement is
// set — is exactly the interval [L, U].
type Spec struct {
	N          int
	Perm       []int
	L, U       int
	Complement bool
}

func (s Spec) String() string {
	c := ""
	if s.Complement {
		c = " (complemented)"
	}
	return fmt.Sprintf("cmp{n=%d perm=%v L=%d U=%d%s}", s.N, s.Perm, s.L, s.U, c)
}

// lbit returns bit i (1-based position, 1 = MSB) of L.
func (s Spec) lbit(i int) int { return (s.L >> (s.N - i)) & 1 }

// ubit returns bit i of U.
func (s Spec) ubit(i int) int { return (s.U >> (s.N - i)) & 1 }

// FreeCount returns the number of free variables (Definition 2): the longest
// prefix of positions on which L and U agree, i.e. the positions above the
// highest bit where they differ.
func (s Spec) FreeCount() int {
	return s.N - bits.Len(uint(s.L^s.U))
}

// suffix returns the value of bits i..N of x (i is 1-based).
func (s Spec) suffix(x, i int) int {
	if i > s.N {
		return 0
	}
	return x & ((1 << (s.N - i + 1)) - 1)
}

// blocks reports whether position i (1-based), taken as non-free, has a path
// through the >=L block (bits i..N of L are not all zero) and through the
// <=U block (bits i..N of U are not all one).
func (s Spec) blocks(i int) (geq, leq bool) {
	m := 1<<(s.N-i+1) - 1 // bits i..N
	return s.L&m != 0, s.U&m != m
}

// GeqPresent reports whether the >=L block exists (Sec. 3.2.2: it is omitted
// when the non-free part of L is all zeros).
func (s Spec) GeqPresent() bool {
	return s.suffix(s.L, s.FreeCount()+1) != 0
}

// LeqPresent reports whether the <=U block exists (omitted when the non-free
// part of U is all ones).
func (s Spec) LeqPresent() bool {
	f := s.FreeCount()
	if f >= s.N {
		return false
	}
	return s.suffix(s.U, f+1) != (1<<(s.N-f))-1
}

// InGeq reports whether position i (1-based) has a path through the >=L
// block: the variable is non-free and bits i..N of L are not all zero.
func (s Spec) InGeq(i int) bool {
	geq, _ := s.blocks(i)
	return i > s.FreeCount() && geq
}

// InLeq reports whether position i has a path through the <=U block.
func (s Spec) InLeq(i int) bool {
	_, leq := s.blocks(i)
	return i > s.FreeCount() && leq
}

// Kp returns the number of paths from position i (1-based) to the unit
// output: 1 for a free variable, and the number of blocks the variable
// participates in otherwise (0, 1 or 2). This is the K_p of Section 2.
func (s Spec) Kp(i int) int {
	return s.kp(i, s.FreeCount())
}

// kp is Kp for a spec with f free variables.
func (s Spec) kp(i, f int) int {
	if i <= f {
		return 1
	}
	geq, leq := s.blocks(i)
	return b2i(geq) + b2i(leq)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// GateCost returns the equivalent-2-input gate count of the unit: each block
// with t participating variables costs t-1 gates, the output AND costs
// (#terms - 1), and inverters are free (weight 0), matching the paper's
// metric.
func (s Spec) GateCost() int {
	f := s.FreeCount()
	cost, terms := 0, f
	tGeq, tLeq := 0, 0
	for i := f + 1; i <= s.N; i++ {
		geq, leq := s.blocks(i)
		tGeq += b2i(geq)
		tLeq += b2i(leq)
	}
	if tGeq > 0 {
		cost += tGeq - 1
		terms++
	}
	if tLeq > 0 {
		cost += tLeq - 1
		terms++
	}
	if terms > 1 {
		cost += terms - 1
	}
	return cost
}

// PathCost returns the number of paths arriving at the unit output when the
// unit input for original variable j carries np[j] incoming paths:
// sum over j of np[j] * Kp(j). Used as Procedure 2's tie-break and
// Procedure 3's objective.
func (s Spec) PathCost(np []uint64) uint64 {
	if len(np) != s.N {
		panic("compare: np length mismatch")
	}
	f := s.FreeCount()
	var total uint64
	for i := 1; i <= s.N; i++ {
		total += np[s.Perm[i-1]] * uint64(s.kp(i, f))
	}
	return total
}

// Table reconstructs the truth table of the function the spec describes,
// over the original variable order.
func (s Spec) Table() logic.TT {
	g := logic.FromInterval(s.N, s.L, s.U)
	if s.Complement {
		g = g.Not()
	}
	inv := make([]int, s.N)
	for i, p := range s.Perm {
		inv[p] = i
	}
	return g.Permute(inv)
}

// Validate checks internal consistency.
func (s Spec) Validate() error {
	if s.N < 0 || s.N > logic.MaxVars {
		return fmt.Errorf("compare: bad N=%d", s.N)
	}
	if len(s.Perm) != s.N {
		return fmt.Errorf("compare: perm length %d != N %d", len(s.Perm), s.N)
	}
	seen := make([]bool, s.N)
	for _, p := range s.Perm {
		if p < 0 || p >= s.N || seen[p] {
			return fmt.Errorf("compare: invalid permutation %v", s.Perm)
		}
		seen[p] = true
	}
	if s.L < 0 || s.U >= 1<<s.N || s.L > s.U {
		return fmt.Errorf("compare: invalid bounds L=%d U=%d for n=%d", s.L, s.U, s.N)
	}
	return nil
}

// BuildOptions controls unit construction.
type BuildOptions struct {
	// Merge combines consecutive same-type 2-input gates into one k-input
	// gate (Figure 4). Off, the blocks are pure 2-input chains (Figure 2).
	Merge bool
	// NamePrefix prefixes generated node names.
	NamePrefix string
}

// Build appends a comparison unit implementing the spec to c. inputs[j] is
// the node carrying original variable y_{j+1}. It returns the node ID of the
// unit output. The construction follows Figures 1-5: per-position gates
// chosen by the bound bits, constant folding for trivial tails, free
// variables wired (possibly inverted) straight into the output AND, and an
// output inverter when Complement is set.
func (s Spec) Build(c *circuit.Circuit, inputs []int, opt BuildOptions) int {
	if len(inputs) != s.N {
		panic("compare: Build input count mismatch")
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	pfx := opt.NamePrefix
	inv := map[int]int{} // cached inverters, keyed by source node
	notOf := func(id int) int {
		if g, ok := inv[id]; ok {
			return g
		}
		g := c.AddGate(circuit.Not, pfx+"inv_"+c.Nodes[id].Name, id)
		inv[id] = g
		return g
	}
	in := func(i int) int { return inputs[s.Perm[i-1]] } // position -> node

	f := s.FreeCount()

	created := map[int]bool{} // chain gates built here, eligible for merging

	// >=L block over positions f+1..N, built from the LSB up.
	geq := -1
	for i := s.N; i > f; i-- {
		lit := in(i)
		if s.lbit(i) == 1 {
			if geq < 0 {
				geq = lit
			} else {
				geq = chain(c, circuit.And, lit, geq, opt, created, pfx, "geq")
			}
		} else if geq >= 0 {
			geq = chain(c, circuit.Or, lit, geq, opt, created, pfx, "geq")
		}
	}

	// <=U block over positions f+1..N, on inverted literals.
	leq := -1
	for i := s.N; i > f; i-- {
		if s.ubit(i) == 0 {
			nlit := notOf(in(i))
			if leq < 0 {
				leq = nlit
			} else {
				leq = chain(c, circuit.And, nlit, leq, opt, created, pfx, "leq")
			}
		} else if leq >= 0 {
			leq = chain(c, circuit.Or, notOf(in(i)), leq, opt, created, pfx, "leq")
		}
	}

	var terms []int
	if geq >= 0 {
		terms = append(terms, geq)
	}
	if leq >= 0 {
		terms = append(terms, leq)
	}
	for i := 1; i <= f; i++ {
		if s.lbit(i) == 1 {
			terms = append(terms, in(i))
		} else {
			terms = append(terms, notOf(in(i)))
		}
	}

	var out int
	switch len(terms) {
	case 0:
		out = c.AddGate(circuit.Const1, pfx+"one")
	case 1:
		out = terms[0]
	default:
		out = c.AddGate(circuit.And, pfx+"unit", terms...)
	}
	if s.Complement {
		out = c.AddGate(circuit.Not, pfx+"cmpl", out)
	}
	return out
}

// chain adds gate t(lit, prev), merging into prev when it is a same-type
// gate freshly created for this unit and merging is enabled (Figure 4).
func chain(c *circuit.Circuit, t circuit.GateType, lit, prev int, opt BuildOptions, created map[int]bool, pfx, tag string) int {
	if opt.Merge && created[prev] && c.Nodes[prev].Type == t {
		c.AddFaninFront(prev, lit)
		return prev
	}
	id := c.AddGate(t, fmt.Sprintf("%s%s_%d", pfx, tag, c.NumLive()), lit, prev)
	created[id] = true
	return id
}

// BuildStandalone constructs the unit as its own circuit with inputs named
// y1..yN (original order) and a single output.
func (s Spec) BuildStandalone(name string, opt BuildOptions) *circuit.Circuit {
	c := circuit.New(name)
	inputs := make([]int, s.N)
	for j := range inputs {
		inputs[j] = c.AddInput(fmt.Sprintf("y%d", j+1))
	}
	out := s.Build(c, inputs, opt)
	if out < len(c.Nodes) && c.Nodes[out].Type == circuit.Input {
		// The unit degenerates to a wire; add a buffer so the circuit has a
		// distinct output node.
		out = c.AddGate(circuit.Buf, "unit_buf", out)
	}
	c.MarkOutput(out)
	return c
}
