package logic

// Allocation-free, word-parallel kernels for the identification hot path.
// The exact comparison-function search cofactors tables at every recursion
// step; these kernels keep that inner loop free of per-step slice and map
// allocations by writing into caller-owned scratch tables and by operating
// on whole 64-bit words.

// varMask6 marks, within one 64-pattern word, the minterms whose bit at
// position pos (0..5) is 1 — the single-word tables of the six lowest
// variables, the standard truth-table constants.
var varMask6 = [6]uint64{
	0xAAAAAAAAAAAAAAAA, // pos 0
	0xCCCCCCCCCCCCCCCC, // pos 1
	0xF0F0F0F0F0F0F0F0, // pos 2
	0xFF00FF00FF00FF00, // pos 3
	0xFFFF0000FFFF0000, // pos 4
	0xFFFFFFFF00000000, // pos 5
}

// VarWord returns word w of the table of the variable at minterm bit
// position pos (x_i of an n-variable table sits at n-i): the same word for
// every w when pos < 6, otherwise all ones exactly where bit pos-6 of w is
// set. For n < 6 the bits above minterm 2^n - 1 are not masked off. It is
// Var(n, n-pos).Words()[w] computed without a table.
func VarWord(pos, w int) uint64 {
	if pos < 6 {
		return varMask6[pos]
	}
	if w>>(pos-6)&1 != 0 {
		return ^uint64(0)
	}
	return 0
}

// CofactorKeepInto writes the cofactor of t with x_i (1-based) fixed to v
// into dst, KEEPING the variable count: the chosen half is duplicated into
// the other half, so dst is a table over the same n variables that no
// longer depends on x_i. dst must come from New(t.Vars()) (or a previous
// call with the same n); t and dst must not alias.
//
// Keeping tables full-width is what makes the recursive search
// allocation-free: every depth reuses fixed-size scratch instead of
// materializing progressively narrower tables.
func (t TT) CofactorKeepInto(dst TT, i int, v bool) {
	if i < 1 || i > t.n {
		panic("logic: CofactorKeepInto variable out of range")
	}
	if dst.n != t.n {
		panic("logic: CofactorKeepInto width mismatch")
	}
	pos := t.n - i
	if pos < 6 {
		for j, w := range t.words {
			dst.words[j] = CofactorWord(w, pos, v)
		}
		return
	}
	block := 1 << (pos - 6)
	for j := range t.words {
		src := j &^ block
		if v {
			src = j | block
		}
		dst.words[j] = t.words[src]
	}
}

// CofactorWord is CofactorKeepInto on one word of a table: the variable at
// minterm bit position pos (0..5; x_i of an n-variable table sits at n-i)
// is fixed to v and the chosen half duplicated into the other.
func CofactorWord(w uint64, pos int, v bool) uint64 {
	mask, shift := varMask6[pos], uint(1)<<pos
	if v {
		w &= mask
		return w | w>>shift
	}
	w &^= mask
	return w | w<<shift
}

// PermuteInto is Permute writing into caller-owned dst (from New(t.Vars())).
// t and dst must not alias.
func (t TT) PermuteInto(dst TT, perm []int) {
	if len(perm) != t.n {
		panic("logic: permutation length mismatch")
	}
	if dst.n != t.n {
		panic("logic: PermuteInto width mismatch")
	}
	n := t.n
	for j := range dst.words {
		dst.words[j] = 0
	}
	for m := 0; m < t.Size(); m++ {
		var old int
		for i := 0; i < n; i++ {
			bit := (m >> (n - 1 - i)) & 1
			old |= bit << (n - 1 - perm[i])
		}
		if t.Get(old) {
			dst.words[m>>6] |= uint64(1) << (m & 63)
		}
	}
}

// NotInto writes the complement of t into dst (from New(t.Vars())).
func (t TT) NotInto(dst TT) {
	if dst.n != t.n {
		panic("logic: NotInto width mismatch")
	}
	for j, w := range t.words {
		dst.words[j] = ^w
	}
	dst.words[len(dst.words)-1] &= t.mask()
}
