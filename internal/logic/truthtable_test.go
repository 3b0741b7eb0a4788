package logic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConst(t *testing.T) {
	for n := 0; n <= 9; n++ {
		c0 := Const(n, false)
		c1 := Const(n, true)
		if c0.CountOnes() != 0 {
			t.Errorf("n=%d: const0 has %d ones", n, c0.CountOnes())
		}
		if c1.CountOnes() != c1.Size() {
			t.Errorf("n=%d: const1 has %d ones, want %d", n, c1.CountOnes(), c1.Size())
		}
		if !c0.Not().Equal(c1) {
			t.Errorf("n=%d: NOT const0 != const1", n)
		}
	}
}

func TestVarConvention(t *testing.T) {
	// Paper convention: x1 is the MSB. For n=3, x1 is 1 on minterms 4..7.
	v1 := Var(3, 1)
	want := []int{4, 5, 6, 7}
	got := v1.Onset()
	if len(got) != len(want) {
		t.Fatalf("x1 onset = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("x1 onset = %v, want %v", got, want)
		}
	}
	// x3 (LSB) is 1 on odd minterms.
	v3 := Var(3, 3)
	for m := 0; m < 8; m++ {
		if v3.Get(m) != (m%2 == 1) {
			t.Errorf("x3(%d) = %v", m, v3.Get(m))
		}
	}
}

func TestVarLargeN(t *testing.T) {
	// Exercise the multi-word path (n > 6).
	for n := 7; n <= 9; n++ {
		for i := 1; i <= n; i++ {
			v := Var(n, i)
			for m := 0; m < v.Size(); m++ {
				want := (m>>(n-i))&1 == 1
				if v.Get(m) != want {
					t.Fatalf("n=%d Var(%d).Get(%d) = %v, want %v", n, i, m, v.Get(m), want)
				}
			}
		}
	}
}

func TestOpsAgainstEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 8; n++ {
		a, b := randomTT(rng, n), randomTT(rng, n)
		and, or, xor, not := a.And(b), a.Or(b), a.Xor(b), a.Not()
		for m := 0; m < a.Size(); m++ {
			av, bv := a.Get(m), b.Get(m)
			if and.Get(m) != (av && bv) {
				t.Fatalf("n=%d AND wrong at %d", n, m)
			}
			if or.Get(m) != (av || bv) {
				t.Fatalf("n=%d OR wrong at %d", n, m)
			}
			if xor.Get(m) != (av != bv) {
				t.Fatalf("n=%d XOR wrong at %d", n, m)
			}
			if not.Get(m) != !av {
				t.Fatalf("n=%d NOT wrong at %d", n, m)
			}
		}
	}
}

func randomTT(rng *rand.Rand, n int) TT {
	t := New(n)
	for m := 0; m < t.Size(); m++ {
		if rng.Intn(2) == 1 {
			t.Set(m, true)
		}
	}
	return t
}

func TestIntervalDetection(t *testing.T) {
	f := FromInterval(4, 5, 10)
	lo, hi, ok := f.IsInterval()
	if !ok || lo != 5 || hi != 10 {
		t.Fatalf("IsInterval = %d %d %v, want 5 10 true", lo, hi, ok)
	}
	g := FromMinterms(4, []int{1, 2, 4})
	if _, _, ok := g.IsInterval(); ok {
		t.Fatal("non-consecutive onset reported as interval")
	}
	if _, _, ok := Const(4, false).IsInterval(); ok {
		t.Fatal("constant 0 reported as interval")
	}
	lo, hi, ok = Const(4, true).IsInterval()
	if !ok || lo != 0 || hi != 15 {
		t.Fatalf("const1 interval = %d %d %v", lo, hi, ok)
	}
}

func TestCofactor(t *testing.T) {
	// f = x1 AND x3 over 3 vars.
	f := Var(3, 1).And(Var(3, 3))
	f1 := f.Cofactor(1, true) // should be x2' independent... = x3 restricted: vars (x2,x3) -> new x2 is old x3
	// After removing x1, remaining vars are old (x2,x3) renumbered (x1,x2).
	want := Var(2, 2)
	if !f1.Equal(want) {
		t.Fatalf("cofactor x1=1: got %s want %s", f1, want)
	}
	f0 := f.Cofactor(1, false)
	if !f0.IsConst(false) {
		t.Fatalf("cofactor x1=0 not const0: %s", f0)
	}
}

func TestCofactorShannon(t *testing.T) {
	// Shannon expansion sanity on random functions:
	// f = x_i f|x_i=1 + x_i' f|x_i=0 for all i.
	rng := rand.New(rand.NewSource(7))
	for n := 2; n <= 7; n++ {
		f := randomTT(rng, n)
		for i := 1; i <= n; i++ {
			c1, c0 := f.Cofactor(i, true), f.Cofactor(i, false)
			for m := 0; m < f.Size(); m++ {
				bit := (m >> (n - i)) & 1
				pos := n - i
				lowMask := (1 << pos) - 1
				reduced := (m>>(pos+1))<<pos | m&lowMask
				var want bool
				if bit == 1 {
					want = c1.Get(reduced)
				} else {
					want = c0.Get(reduced)
				}
				if f.Get(m) != want {
					t.Fatalf("n=%d i=%d m=%d shannon mismatch", n, i, m)
				}
			}
		}
	}
}

func TestPermuteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 1; n <= 6; n++ {
		f := randomTT(rng, n)
		id := make([]int, n)
		for i := range id {
			id[i] = i
		}
		if !f.Permute(id).Equal(f) {
			t.Fatalf("n=%d identity permutation changed function", n)
		}
	}
}

func TestPermuteSemantics(t *testing.T) {
	// f = x1 over 2 vars; swap -> should become x2.
	f := Var(2, 1)
	g := f.Permute([]int{1, 0})
	if !g.Equal(Var(2, 2)) {
		t.Fatalf("swap of x1 gave %s", g)
	}
	// Worked example from the paper (Sec. 3.1): f2 has onset
	// {1,5,6,9,10,14} over (y1..y4); permutation x1=y4, x2=y3, x3=y2, x4=y1
	// yields onset {5,...,10}.
	f2 := FromMinterms(4, []int{1, 5, 6, 9, 10, 14})
	perm := []int{3, 2, 1, 0} // new x_i is old y_{perm[i]+1}
	p := f2.Permute(perm)
	lo, hi, ok := p.IsInterval()
	if !ok || lo != 5 || hi != 10 {
		t.Fatalf("paper example: got interval %d..%d ok=%v, want 5..10", lo, hi, ok)
	}
}

func TestPermuteComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(5)
		f := randomTT(rng, n)
		p := rng.Perm(n)
		q := rng.Perm(n)
		// Applying p then q equals applying the composed permutation r,
		// where r[i] = p[q[i]].
		r := make([]int, n)
		for i := range r {
			r[i] = p[q[i]]
		}
		lhs := f.Permute(p).Permute(q)
		rhs := f.Permute(r)
		if !lhs.Equal(rhs) {
			t.Fatalf("n=%d composition mismatch", n)
		}
	}
}

func TestSupportAndShrink(t *testing.T) {
	// f = x2 XOR x4 over 5 vars: support {2,4}.
	f := Var(5, 2).Xor(Var(5, 4))
	var s TT
	kept := f.Shrink(&s, nil)
	if len(kept) != 2 || kept[0] != 2 || kept[1] != 4 {
		t.Fatalf("support = %v", kept)
	}
	if s.Vars() != 2 {
		t.Fatalf("shrink -> %d vars kept %v", s.Vars(), kept)
	}
	if !s.Equal(Var(2, 1).Xor(Var(2, 2))) {
		t.Fatalf("shrunk function wrong: %s", s)
	}
}

// TestShrinkReusesStorage: a table and index buffer grown once serve a
// wider and then a narrower shrink without allocating, and a table reset
// to fewer variables reads as constant 0 in every word it keeps.
func TestShrinkReusesStorage(t *testing.T) {
	wide := New(8) // the parity of x1..x7: seven variables, two words
	for i := 1; i <= 7; i++ {
		wide = wide.Xor(Var(8, i))
	}
	narrow := Var(6, 3).And(Var(6, 5))
	var s TT
	kept := wide.Shrink(&s, nil)
	if n := testing.AllocsPerRun(50, func() {
		kept = wide.Shrink(&s, kept)
		kept = narrow.Shrink(&s, kept)
	}); n != 0 {
		t.Fatalf("warm Shrink allocates %v times per call pair, want 0", n)
	}
	if s.Vars() != 2 || len(kept) != 2 || kept[0] != 3 || kept[1] != 5 {
		t.Fatalf("shrink -> %d vars kept %v", s.Vars(), kept)
	}
	if !s.Equal(Var(2, 1).And(Var(2, 2))) {
		t.Fatalf("shrunk function wrong: %s", s)
	}
	s.Reset(7)
	if s.Vars() != 7 || !s.IsConst(false) || len(s.Words()) != 2 {
		t.Fatalf("Reset(7): vars %d, words %x", s.Vars(), s.Words())
	}
}

// TestVarWord: VarWord reproduces every word of Var up to the n < 6 mask.
func TestVarWord(t *testing.T) {
	for n := 1; n <= 9; n++ {
		v := New(n)
		mask := v.mask()
		for i := 1; i <= n; i++ {
			for w, want := range Var(n, i).Words() {
				if got := VarWord(n-i, w); got&mask != want {
					t.Fatalf("n=%d x%d word %d: VarWord %x, want %x", n, i, w, got, want)
				}
			}
		}
	}
}

func TestEval(t *testing.T) {
	f := Var(3, 1).And(Var(3, 3)) // x1 AND x3
	cases := []struct {
		in   []bool
		want bool
	}{
		{[]bool{true, false, true}, true},
		{[]bool{true, true, false}, false},
		{[]bool{false, true, true}, false},
	}
	for _, c := range cases {
		if f.Eval(c.in) != c.want {
			t.Errorf("Eval(%v) = %v, want %v", c.in, f.Eval(c.in), c.want)
		}
	}
}

// Property: De Morgan's law holds for random tables.
func TestQuickDeMorgan(t *testing.T) {
	f := func(aw, bw uint64) bool {
		a, b := New(6), New(6)
		a.words[0] = aw
		b.words[0] = bw
		return a.And(b).Not().Equal(a.Not().Or(b.Not()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: double complement is identity; XOR with self is 0.
func TestQuickInvolution(t *testing.T) {
	f := func(aw uint64) bool {
		a := New(6)
		a.words[0] = aw
		return a.Not().Not().Equal(a) && a.Xor(a).IsConst(false)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: permutation preserves onset size.
func TestQuickPermutePreservesCount(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(aw uint64) bool {
		a := New(6)
		a.words[0] = aw
		p := rng.Perm(6)
		return a.Permute(p).CountOnes() == a.CountOnes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestOnsetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 1; n <= 8; n++ {
		f := randomTT(rng, n)
		g := FromMinterms(n, f.Onset())
		if !g.Equal(f) {
			t.Fatalf("n=%d onset round trip failed", n)
		}
	}
}

func TestFromIntervalClamps(t *testing.T) {
	f := FromInterval(3, -5, 100)
	if !f.IsConst(true) {
		t.Fatal("clamped full interval should be const1")
	}
	g := FromInterval(3, 5, 2)
	if !g.IsConst(false) {
		t.Fatal("empty interval should be const0")
	}
}

func TestShrinkNoSupport(t *testing.T) {
	// A constant function has empty support and shrinks to zero variables.
	var s TT
	kept := Const(4, true).Shrink(&s, nil)
	if s.Vars() != 0 || len(kept) != 0 {
		t.Fatalf("const shrink: vars=%d kept=%v", s.Vars(), kept)
	}
	if !s.Get(0) {
		t.Fatal("shrunk constant lost its value")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := FromInterval(4, 3, 9)
	b := a.Clone()
	b.Set(0, true)
	if a.Get(0) {
		t.Fatal("clone shares storage")
	}
}

func TestStringRendering(t *testing.T) {
	f := FromMinterms(2, []int{1, 3})
	if f.String() != "0101" {
		t.Fatalf("String = %q", f.String())
	}
}
