package logic

import (
	"math/rand"
	"testing"
)

func randTT(rng *rand.Rand, n int) TT {
	t := New(n)
	for j := range t.words {
		t.words[j] = rng.Uint64()
	}
	t.words[len(t.words)-1] &= t.mask()
	return t
}

// expand widens an (n-1)-variable cofactor back to n variables by making the
// result independent of x_i — the reference semantics of CofactorKeepInto.
func expand(cof TT, n, i int) TT {
	r := New(n)
	pos := n - i
	lowMask := (1 << pos) - 1
	for m := 0; m < r.Size(); m++ {
		small := (m>>1)&^lowMask | m&lowMask
		if cof.Get(small) {
			r.Set(m, true)
		}
	}
	return r
}

func TestCofactorKeepIntoMatchesCofactor(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 1; n <= 8; n++ {
		for trial := 0; trial < 20; trial++ {
			f := randTT(rng, n)
			dst := New(n)
			for i := 1; i <= n; i++ {
				for _, v := range []bool{false, true} {
					f.CofactorKeepInto(dst, i, v)
					want := expand(f.Cofactor(i, v), n, i)
					if !dst.Equal(want) {
						t.Fatalf("n=%d i=%d v=%v: got %s want %s (f=%s)",
							n, i, v, dst, want, f)
					}
					if dst.DependsOn(i) {
						t.Fatalf("n=%d i=%d v=%v: cofactor still depends on x_%d", n, i, v, i)
					}
				}
			}
		}
	}
}

func TestCofactorKeepIntoPreservesInvalidBitInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for n := 1; n <= 5; n++ {
		f := randTT(rng, n)
		dst := New(n)
		for i := 1; i <= n; i++ {
			f.CofactorKeepInto(dst, i, true)
			if dst.words[0]&^dst.mask() != 0 {
				t.Fatalf("n=%d i=%d: invalid high bits set: %x", n, i, dst.words[0])
			}
		}
	}
}

func TestPermuteIntoMatchesPermute(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for n := 1; n <= 7; n++ {
		f := randTT(rng, n)
		perm := rng.Perm(n)
		dst := New(n)
		dst.words[0] = ^uint64(0) // ensure stale contents are cleared
		f.PermuteInto(dst, perm)
		if !dst.Equal(f.Permute(perm)) {
			t.Fatalf("n=%d perm=%v: PermuteInto != Permute", n, perm)
		}
	}
}

func TestNotIntoMatchesNot(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for n := 1; n <= 8; n++ {
		f := randTT(rng, n)
		dst := New(n)
		f.NotInto(dst)
		if !dst.Equal(f.Not()) {
			t.Fatalf("n=%d: NotInto != Not", n)
		}
	}
}

func TestIsConstDirect(t *testing.T) {
	for n := 0; n <= 8; n++ {
		if !Const(n, false).IsConst(false) || Const(n, false).IsConst(true) {
			t.Fatalf("n=%d: const-0 misclassified", n)
		}
		if !Const(n, true).IsConst(true) || Const(n, true).IsConst(false) {
			t.Fatalf("n=%d: const-1 misclassified", n)
		}
		if n >= 1 {
			v := Var(n, 1)
			if v.IsConst(false) || v.IsConst(true) {
				t.Fatalf("n=%d: x1 classified constant", n)
			}
		}
	}
}

func TestDependsOnWordParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for n := 1; n <= 8; n++ {
		for trial := 0; trial < 20; trial++ {
			f := randTT(rng, n)
			for i := 1; i <= n; i++ {
				want := !f.Cofactor(i, false).Equal(f.Cofactor(i, true))
				if got := f.DependsOn(i); got != want {
					t.Fatalf("n=%d i=%d: DependsOn=%v want %v (f=%s)", n, i, got, want, f)
				}
			}
		}
	}
}

func TestAllocFreeKernels(t *testing.T) {
	f := randTT(rand.New(rand.NewSource(17)), 8)
	dst := New(8)
	if n := testing.AllocsPerRun(100, func() {
		f.CofactorKeepInto(dst, 3, true)
		f.NotInto(dst)
		_ = f.IsConst(false)
		_ = f.DependsOn(5)
		_ = f.Key()
	}); n != 0 {
		t.Fatalf("hot kernels allocate: %v allocs/run", n)
	}
}
