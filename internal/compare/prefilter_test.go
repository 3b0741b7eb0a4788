package compare

import (
	"math/rand"
	"testing"

	"compsynth/internal/gen"
	"compsynth/internal/logic"
	"compsynth/internal/subckt"
)

// Pins for the unateness prefilter: it may only reject a form the
// unfiltered search cannot realize, it must pass every permuted interval and
// its complement, IdentifyAll's first spec must be the unfiltered
// IdentifyBest's, and the kernel allocates nothing.

// checkPrefilter runs the oracle search on every form the prefilter rejects,
// and compares IdentifyAll's first spec with the oracle IdentifyBest. The
// oracle finds an onset realization whenever one exists, so only an offset
// the filter rejects behind a realizable onset needs a search of its own.
func checkPrefilter(t *testing.T, f logic.TT) {
	t.Helper()
	onset, offset := prefilter(f, false), prefilter(f, true)
	want, ok := refIdentifyBest(f)
	if !onset && ok && !want.Complement {
		t.Fatalf("f=%s: prefilter rejects the onset, search finds %v", f, want)
	}
	if !offset && ok {
		s, found := want, want.Complement
		if !found {
			s, found = first(f, true)
		}
		if found {
			t.Fatalf("f=%s: prefilter rejects the offset, search finds %v", f, s)
		}
	}
	all := IdentifyAll(f, 8)
	if ok != (len(all) > 0) || ok && all[0].String() != want.String() {
		t.Fatalf("f=%s: IdentifyAll = %v, oracle IdentifyBest = %v, %v", f, all, want, ok)
	}
}

func fromWord(n int, w uint64) logic.TT {
	f := logic.New(n)
	for m := 0; m < 1<<n; m++ {
		f.Set(m, w>>m&1 != 0)
	}
	return f
}

// TestPrefilterSoundOnCutFunctions: every cut function of the small suite
// and of the quick-scale rs9234, at K = 5 and 6.
func TestPrefilterSoundOnCutFunctions(t *testing.T) {
	benches := gen.SmallSuite()
	for _, b := range gen.Suite(0.15) {
		if b.Name == "rs9234" {
			benches = append(benches, b)
		}
	}
	seen := map[logic.Key]bool{}
	for _, b := range benches {
		c := b.Build()
		c.Simplify()
		for _, k := range []int{5, 6} {
			db := subckt.ComputeCuts(c, k, 32)
			for _, g := range c.Topo() {
				for _, sub := range db.EnumerateFromCuts(c, g) {
					f, _ := sub.Extract(c).Shrink()
					if key := f.Key(); !seen[key] {
						seen[key] = true
						checkPrefilter(t, f)
					}
				}
			}
		}
	}
	if len(seen) < 1000 {
		t.Fatalf("only %d distinct cut functions checked", len(seen))
	}
}

// TestPrefilterSoundOnAllFourVariableFunctions: all 65,536 functions of 4
// variables. 1,180 of them are comparison functions in onset form; the
// filter passes 1,820.
func TestPrefilterSoundOnAllFourVariableFunctions(t *testing.T) {
	passed := 0
	for w := uint64(0); w < 1<<16; w++ {
		f := fromWord(4, w)
		checkPrefilter(t, f)
		if prefilter(f, false) {
			passed++
		}
	}
	if passed != 1820 {
		t.Fatalf("prefilter passes %d onsets of 4 variables, want 1820", passed)
	}
}

// TestPrefilterSoundOnRandomFunctions: seeded random functions of 5 and 6
// variables, sparse, balanced and dense.
func TestPrefilterSoundOnRandomFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{5, 6} {
		for _, density := range []float64{0.05, 0.2, 0.5, 0.8, 0.95} {
			for trial := 0; trial < 300; trial++ {
				f := logic.New(n)
				for m := 0; m < 1<<n; m++ {
					f.Set(m, rng.Float64() < density)
				}
				checkPrefilter(t, f)
			}
		}
	}
}

// TestPrefilterPassesPermutedIntervals: every interval under every
// permutation of up to 6 variables passes, and so does its complement's
// offset form; a sample also runs through checkPrefilter.
func TestPrefilterPassesPermutedIntervals(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for n := 0; n <= 6; n++ {
		for _, p := range permutations(n) {
			// pre[k] holds the permuted minterms 0..k-1, so [L, U] is
			// pre[U+1] &^ pre[L].
			pre := make([]uint64, 1<<n+1)
			for m := 0; m < 1<<n; m++ {
				pm := 0
				for i := 0; i < n; i++ {
					pm |= (m >> (n - 1 - i) & 1) << (n - 1 - p[i])
				}
				pre[m+1] = pre[m] | 1<<pm
			}
			for l := 0; l < 1<<n; l++ {
				for u := l; u < 1<<n; u++ {
					w := pre[u+1] &^ pre[l]
					if !mayBeInterval(w, n) {
						t.Fatalf("n=%d perm=%v [%d,%d]: interval %#x rejected", n, p, l, u, w)
					}
					if rng.Intn(400) == 0 {
						f := fromWord(n, w)
						checkPrefilter(t, f)
						checkPrefilter(t, f.Not())
						if !prefilter(f, false) {
							t.Fatalf("n=%d perm=%v [%d,%d]: prefilter rejects the onset", n, p, l, u)
						}
						if !prefilter(f.Not(), true) {
							t.Fatalf("n=%d perm=%v [%d,%d]: prefilter rejects the complement's offset", n, p, l, u)
						}
					}
				}
			}
		}
	}
}

// TestPrefilterRejectsMostRandomFunctions keeps the filter useful: nearly
// every balanced random function of 6 variables is settled without search.
func TestPrefilterRejectsMostRandomFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rejected := 0
	for trial := 0; trial < 1000; trial++ {
		f := fromWord(6, rng.Uint64())
		if !prefilter(f, false) && !prefilter(f, true) {
			rejected++
		}
	}
	if rejected < 990 {
		t.Fatalf("prefilter rejected %d of 1000 random 6-variable functions, want at least 990", rejected)
	}
}

func TestPrefilterZeroAlloc(t *testing.T) {
	f := logic.FromMinterms(6, []int{1, 5, 6, 9, 10, 14, 33, 40})
	if n := testing.AllocsPerRun(200, func() { prefilter(f, false); prefilter(f, true) }); n != 0 {
		t.Fatalf("prefilter allocates %v times per call, want 0", n)
	}
}
