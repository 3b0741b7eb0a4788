package compare

import (
	"math/rand"
	"slices"
	"testing"

	"compsynth/internal/logic"
)

// Reference forms of the unit cost kernels, kept as test oracles: the free
// count scans the bound bits position by position, and every position's
// block membership recomputes it, so GateCost and PathCost are O(N^2).

func refFreeCount(s Spec) int {
	f := 0
	for i := 1; i <= s.N; i++ {
		if s.lbit(i) != s.ubit(i) {
			break
		}
		f++
	}
	return f
}

func refInGeq(s Spec, i int) bool {
	return i > refFreeCount(s) && s.suffix(s.L, i) != 0
}

func refInLeq(s Spec, i int) bool {
	return i > refFreeCount(s) && s.suffix(s.U, i) != (1<<(s.N-i+1))-1
}

func refKp(s Spec, i int) int {
	if i <= refFreeCount(s) {
		return 1
	}
	k := 0
	if refInGeq(s, i) {
		k++
	}
	if refInLeq(s, i) {
		k++
	}
	return k
}

func refGateCost(s Spec) int {
	f := refFreeCount(s)
	cost, terms := 0, f
	tGeq, tLeq := 0, 0
	for i := f + 1; i <= s.N; i++ {
		if refInGeq(s, i) {
			tGeq++
		}
		if refInLeq(s, i) {
			tLeq++
		}
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

func refPathCost(s Spec, np []uint64) uint64 {
	var total uint64
	for i := 1; i <= s.N; i++ {
		total += np[s.Perm[i-1]] * uint64(refKp(s, i))
	}
	return total
}

// refIdentifyBest is IdentifyBest without the prefilter: the exact search
// over the onset, then over the offset.
func refIdentifyBest(f logic.TT) (Spec, bool) {
	if f.IsConst(false) {
		return Spec{}, false
	}
	if s, ok := first(f, false); ok || f.IsConst(true) {
		return s, ok
	}
	return first(f, true)
}

// refIdentifyAll is IdentifyAll without the prefilter, deduping the
// enumerated realizations on their String form.
func refIdentifyAll(f logic.TT, limit int) []Spec {
	var specs []Spec
	seen := map[string]bool{}
	add := func(s Spec) bool {
		k := s.String()
		if !seen[k] {
			seen[k] = true
			specs = append(specs, s)
		}
		return len(specs) < limit
	}
	enumerate(f, false, add)
	if len(specs) < limit && !f.IsConst(false) && !f.IsConst(true) {
		enumerateNot(f, add)
	}
	return specs
}

// TestCostKernelsMatchRef: for every N <= 6 and every interval [L, U],
// under random permutations and path-count vectors, the one-pass kernels
// equal the per-position reference.
func TestCostKernelsMatchRef(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for n := 0; n <= 6; n++ {
		for l := 0; l < 1<<n; l++ {
			for u := l; u < 1<<n; u++ {
				for trial := 0; trial < 3; trial++ {
					s := Spec{N: n, Perm: rng.Perm(n), L: l, U: u, Complement: trial == 1}
					np := make([]uint64, n)
					for j := range np {
						np[j] = uint64(rng.Int63n(1 << 40))
					}
					if got, want := s.FreeCount(), refFreeCount(s); got != want {
						t.Fatalf("%v: FreeCount = %d, want %d", s, got, want)
					}
					for i := 1; i <= n; i++ {
						if s.Kp(i) != refKp(s, i) || s.InGeq(i) != refInGeq(s, i) || s.InLeq(i) != refInLeq(s, i) {
							t.Fatalf("%v position %d: Kp/InGeq/InLeq = %d/%v/%v, want %d/%v/%v", s, i,
								s.Kp(i), s.InGeq(i), s.InLeq(i), refKp(s, i), refInGeq(s, i), refInLeq(s, i))
						}
					}
					if got, want := s.GateCost(), refGateCost(s); got != want {
						t.Fatalf("%v: GateCost = %d, want %d", s, got, want)
					}
					if got, want := s.PathCost(np), refPathCost(s, np); got != want {
						t.Fatalf("%v np=%v: PathCost = %d, want %d", s, np, got, want)
					}
				}
			}
		}
	}
}

// TestIdentifyAllMatchesRef: deduping on the packed key keeps exactly the
// specs, in the order, that deduping on String kept, for permuted
// intervals, their complements and random functions of up to 6 inputs.
func TestIdentifyAllMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var fs []logic.TT
	for n := 1; n <= 6; n++ {
		for trial := 0; trial < 40; trial++ {
			l := rng.Intn(1 << n)
			u := l + rng.Intn(1<<n-l)
			f := logic.FromInterval(n, l, u).Permute(rng.Perm(n))
			fs = append(fs, f, f.Not())
			r := logic.New(n)
			for m := 0; m < 1<<n; m++ {
				r.Set(m, rng.Intn(2) == 0)
			}
			fs = append(fs, r)
		}
	}
	for _, f := range fs {
		for _, limit := range []int{1, 8, 1 << 20} {
			got, want := IdentifyAll(f, limit), refIdentifyAll(f, limit)
			if !slices.EqualFunc(got, want, func(a, b Spec) bool { return a.String() == b.String() }) {
				t.Fatalf("f=%s limit=%d: IdentifyAll = %v, want %v", f, limit, got, want)
			}
		}
	}
}
