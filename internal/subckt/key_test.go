package subckt

import (
	"math/rand"
	"testing"
)

func subWithGates(out int, ids ...int) *Subcircuit {
	g := map[int]bool{}
	for _, id := range ids {
		g[id] = true
	}
	return &Subcircuit{Out: out, Gates: g}
}

// TestKeyOrderIndependent: the key is a set identity — insertion order of
// the gate map must not matter.
func TestKeyOrderIndependent(t *testing.T) {
	a := subWithGates(5, 1, 2, 3, 4, 5)
	b := subWithGates(5, 5, 4, 3, 2, 1)
	if a.Key() != b.Key() {
		t.Fatal("key depends on construction order")
	}
	if a.Key() != a.Key() {
		t.Fatal("key not stable across calls")
	}
}

// TestKeyBeatsNaivePacking feeds gate sets whose OLD encodings (3 bytes per
// ID) were equal and asserts the digest keys are distinct. id and id+2^24
// packed to the same bytes under the old scheme.
func TestKeyBeatsNaivePacking(t *testing.T) {
	cases := [][2]*Subcircuit{
		{subWithGates(7, 0), subWithGates(7, 1<<24)},
		{subWithGates(7, 42), subWithGates(7, 42+1<<24)},
		{subWithGates(7, 1, 1<<24), subWithGates(7, 1, 0)},
	}
	for i, pair := range cases {
		if pair[0].Key() == pair[1].Key() {
			t.Fatalf("case %d: distinct gate sets share a key", i)
		}
	}
	// Out participates too: same gates, different designated output.
	a := subWithGates(1, 1, 2)
	b := subWithGates(2, 1, 2)
	if a.Key() == b.Key() {
		t.Fatal("keys ignore Out")
	}
}

// TestKeyNoRandomCollisions hammers random small gate sets — the regime the
// optimizer actually operates in — and requires all distinct sets to get
// distinct keys.
func TestKeyNoRandomCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	seen := map[Key]string{}
	canon := func(g map[int]bool) string {
		b := make([]byte, 4096)
		for id := range g {
			b[id] = 1
		}
		return string(b)
	}
	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(8)
		s := &Subcircuit{Out: 0, Gates: map[int]bool{}}
		for j := 0; j < n; j++ {
			s.Gates[rng.Intn(4096)] = true
		}
		c := canon(s.Gates)
		if prev, ok := seen[s.Key()]; ok && prev != c {
			t.Fatalf("trial %d: two distinct gate sets share key %+v", trial, s.Key())
		}
		seen[s.Key()] = c
	}
}

func TestKeyZeroAlloc(t *testing.T) {
	s := subWithGates(9, 1, 2, 3, 9)
	s.Key() // warm the lazy field
	if n := testing.AllocsPerRun(100, func() { _ = s.Key() }); n != 0 {
		t.Fatalf("warm Key() allocates: %v allocs/run", n)
	}
	cold := subWithGates(9, 1, 2, 3, 9)
	if n := testing.AllocsPerRun(1, func() { _ = cold.Key() }); n != 0 {
		t.Fatalf("cold Key() allocates: %v allocs/run", n)
	}
}

// TestKeySeparatesEqualIDSums covers the sets an affine per-ID hash cannot
// separate: with h(id) = a(id xor b) mod 2^128, sets whose xored IDs have
// equal sums share a sum. The first pair is two cuts of gate 124 in the
// first K = 6 Procedure 3 pass on quick-scale rs5378, which did collide.
func TestKeySeparatesEqualIDSums(t *testing.T) {
	a := subWithGates(124, 54, 80, 94, 109, 124)
	b := subWithGates(124, 76, 90, 94, 109, 124)
	if a.Key() == b.Key() {
		t.Fatal("the two rs5378 cuts of gate 124 share a key")
	}
	seen := map[Key][2]int{}
	for i := 0; i < 256; i++ {
		for j := i + 1; j < 256; j++ {
			k := subWithGates(1000, i, j, 1000).Key()
			if p, ok := seen[k]; ok {
				t.Fatalf("{%d, %d, 1000} and {%d, %d, 1000} share a key", p[0], p[1], i, j)
			}
			seen[k] = [2]int{i, j}
		}
	}
}
