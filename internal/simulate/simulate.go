// Package simulate provides 64-way pattern-parallel logic simulation of
// combinational circuits, the workhorse behind function extraction, fault
// simulation and equivalence checking.
//
// Simulation runs on the circuit's frozen CSR view (circuit.Freeze): one
// linear sweep over level-ordered dense ids with flat adjacency, instead of
// a pointer chase over per-node heap objects. Results are identical to
// evaluating the mutable representation in topological order — dense order
// is itself a topological order — and the mutable circuit stays the source
// of truth: a Sim is bound to the circuit state at New/Reset time.
package simulate

import (
	"math/rand"
	"sync"

	"compsynth/internal/circuit"
)

// Sim holds per-node 64-pattern words for one circuit snapshot.
type Sim struct {
	v     *circuit.CSR
	words []uint64 // indexed by dense id
	buf   []uint64
}

// New prepares a simulator for c (freezing c's current state).
func New(c *circuit.Circuit) *Sim {
	s := &Sim{}
	s.Reset(c)
	return s
}

// Reset rebinds the simulator to c's current state, reusing its buffers.
// All pattern words are cleared. This is what makes Sim poolable: the
// equivalence checker recycles simulators through a sync.Pool instead of
// allocating word arrays per call.
func (s *Sim) Reset(c *circuit.Circuit) {
	s.v = c.Freeze()
	n := s.v.N()
	if cap(s.words) < n {
		s.words = make([]uint64, n)
	}
	s.words = s.words[:n]
	for i := range s.words {
		s.words[i] = 0
	}
}

// SetInput assigns the 64-pattern word of primary input index j (input
// order, not node ID).
func (s *Sim) SetInput(j int, w uint64) {
	s.words[s.v.In[j]] = w
}

// Run evaluates all gates for the current input words.
func (s *Sim) Run() {
	v := s.v
	for d := 0; d < v.N(); d++ {
		k := v.Kind[d]
		if k == circuit.Input {
			continue
		}
		s.buf = s.buf[:0]
		for _, f := range v.FaninOf(int32(d)) {
			s.buf = append(s.buf, s.words[f])
		}
		s.words[d] = k.EvalWords(s.buf)
	}
}

// Output returns the word of primary output index j.
func (s *Sim) Output(j int) uint64 {
	return s.words[s.v.Out[j]]
}

var simPool = sync.Pool{New: func() any { return new(Sim) }}

func acquire(c *circuit.Circuit) *Sim {
	s := simPool.Get().(*Sim)
	s.Reset(c)
	return s
}

func release(s *Sim) {
	s.v = nil
	simPool.Put(s)
}

// rngPool recycles generators: a math/rand source is a ~5KB allocation,
// by far the largest per-call cost of the old equivalence checker. Every
// acquisition reseeds, so pooling cannot leak state between checks.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// EquivalentRandom checks functional equivalence of a and b (same PI and PO
// counts, positional correspondence) with rounds*64 random patterns followed
// by an exhaustive check when the input count is at most maxExhaustive.
// It returns false as soon as a differing pattern is found. The verdict is a
// pure function of (a, b, rounds, maxExhaustive, seed).
func EquivalentRandom(a, b *circuit.Circuit, rounds int, maxExhaustive int, seed int64) bool {
	if len(a.Inputs) != len(b.Inputs) || len(a.Outputs) != len(b.Outputs) {
		return false
	}
	n := len(a.Inputs)
	sa, sb := acquire(a), acquire(b)
	defer release(sa)
	defer release(sb)
	if n <= maxExhaustive && n < 30 {
		return equivalentExhaustive(sa, sb, n)
	}
	rng := rngPool.Get().(*rand.Rand)
	defer rngPool.Put(rng)
	rng.Seed(seed)
	for r := 0; r < rounds; r++ {
		for j := 0; j < n; j++ {
			w := rng.Uint64()
			sa.SetInput(j, w)
			sb.SetInput(j, w)
		}
		sa.Run()
		sb.Run()
		for j := range a.Outputs {
			if sa.Output(j) != sb.Output(j) {
				return false
			}
		}
	}
	return true
}

func equivalentExhaustive(sa, sb *Sim, n int) bool {
	total := uint64(1) << n
	for base := uint64(0); base < total; base += 64 {
		for j := 0; j < n; j++ {
			var w uint64
			for b := uint64(0); b < 64 && base+b < total; b++ {
				if (base+b)>>(uint(j))&1 == 1 {
					w |= 1 << b
				}
			}
			sa.SetInput(j, w)
			sb.SetInput(j, w)
		}
		sa.Run()
		sb.Run()
		for j := range sa.v.Out {
			m := mask64(total - base)
			if (sa.Output(j)^sb.Output(j))&m != 0 {
				return false
			}
		}
	}
	return true
}

func mask64(remaining uint64) uint64 {
	if remaining >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << remaining) - 1
}
