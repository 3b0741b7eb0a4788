package resynth

import (
	"math"
	"math/rand"
	"testing"

	"compsynth/internal/compare"
	"compsynth/internal/gen"
	"compsynth/internal/logic"
)

// checkRealization compares a cached realization's precomputed costs with
// the spec's own: the gate cost, and the path cost for path counts small,
// random and near 2^64, where the sums wrap.
func checkRealization(t *testing.T, r realization, rng *rand.Rand) {
	t.Helper()
	if got, want := int(r.gates), r.spec.GateCost(); got != want {
		t.Fatalf("%v: cached gate cost %d, want %d", r.spec, got, want)
	}
	np := make([]uint64, r.spec.N)
	for trial := 0; trial < 4; trial++ {
		for j := range np {
			switch trial {
			case 0:
				np[j] = uint64(rng.Intn(1000))
			case 1:
				np[j] = rng.Uint64()
			case 2:
				np[j] = math.MaxUint64 - uint64(rng.Intn(1000))
			default:
				np[j] = 1<<63 + uint64(rng.Intn(1000))
			}
		}
		if got, want := r.pathCost(np), r.spec.PathCost(np); got != want {
			t.Fatalf("%v np=%v: cached path cost %d, want %d", r.spec, np, got, want)
		}
	}
}

// TestRealizationCostsMatchSpec: every realization the identification
// cache holds for the small suite's candidate functions at K = 5 and 6, and
// every interval of up to 6 variables under a random permutation (onset and
// complemented), scores exactly as its Spec does.
func TestRealizationCostsMatchSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cached := 0
	for _, b := range gen.SmallSuite() {
		c := b.Build()
		c.Simplify()
		for _, k := range []int{5, 6} {
			o := &optimizer{opt: DefaultOptions(), cache: map[logic.Key][]realization{}}
			o.opt.K = k
			o.refresh(c)
			for _, g := range o.topo {
				for _, sub := range o.db.EnumerateFromCuts(c, g) {
					if stt, _ := sub.Extract(c).Shrink(); stt.Vars() > 0 {
						for _, r := range o.identify(stt) {
							checkRealization(t, r, rng)
							cached++
						}
					}
				}
			}
		}
	}
	if cached == 0 {
		t.Fatal("no cached realization checked")
	}
	for n := 1; n <= 6; n++ {
		for l := 0; l < 1<<n; l++ {
			for u := l; u < 1<<n; u++ {
				s := compare.Spec{N: n, Perm: rng.Perm(n), L: l, U: u, Complement: rng.Intn(2) == 0}
				checkRealization(t, newRealization(s), rng)
			}
		}
	}
}

// TestRealizationPathCostLengthMismatch: a path-count vector of the wrong
// length panics, as Spec.PathCost does, instead of scoring silently.
func TestRealizationPathCostLengthMismatch(t *testing.T) {
	r := newRealization(compare.Spec{N: 3, Perm: []int{2, 0, 1}, L: 1, U: 6})
	for _, n := range []int{2, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("pathCost over %d path counts for a 3-input spec did not panic", n)
				}
			}()
			r.pathCost(make([]uint64, n))
		}()
	}
}
