// Package logic provides bit-parallel truth-table representations of Boolean
// functions over a small number of variables (up to MaxVars).
//
// Variable ordering convention: a function f(x1, x2, ..., xn) follows the
// paper's convention that x1 is the most significant bit of a minterm and xn
// the least significant. Minterm m (0 <= m < 2^n) therefore assigns
//
//	x_i = bit (n-i) of m
//
// and bit m of the table holds f(m). Tables are stored LSB-first in 64-bit
// words: word w, bit b encodes minterm 64*w + b.
package logic

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxVars is the largest supported number of variables for a TruthTable.
// 16 variables = 65536 minterms = 1024 words, far beyond the subcircuit
// input limits (K = 5..7) used by the synthesis procedures.
const MaxVars = 16

// TT is a truth table over a fixed number of variables.
type TT struct {
	n     int
	words []uint64
}

// New returns the constant-0 truth table over n variables.
func New(n int) TT {
	if n < 0 || n > MaxVars {
		panic(fmt.Sprintf("logic: invalid variable count %d", n))
	}
	return TT{n: n, words: make([]uint64, wordsFor(n))}
}

func wordsFor(n int) int {
	if n <= 6 {
		return 1
	}
	return 1 << (n - 6)
}

// Size returns the number of minterms (2^n).
func (t TT) Size() int { return 1 << t.n }

// Vars returns the number of variables n.
func (t TT) Vars() int { return t.n }

// mask returns the valid-bit mask for the last word of an n<=6 table.
func (t TT) mask() uint64 {
	if t.n >= 6 {
		return ^uint64(0)
	}
	return (uint64(1) << (1 << t.n)) - 1
}

// Const returns the constant-v truth table over n variables.
func Const(n int, v bool) TT {
	t := New(n)
	if v {
		for i := range t.words {
			t.words[i] = ^uint64(0)
		}
		t.words[len(t.words)-1] &= t.mask()
		if t.n >= 6 {
			// mask() already all ones; nothing to trim.
			t.words[len(t.words)-1] = ^uint64(0)
		}
	}
	return t
}

// Var returns the truth table of variable x_i (1-based, x1 = MSB) over n
// variables: bit m is set iff bit (n-i) of m is 1.
func Var(n, i int) TT {
	if i < 1 || i > n {
		panic(fmt.Sprintf("logic: variable index %d out of range 1..%d", i, n))
	}
	t := New(n)
	pos := n - i // bit position of x_i within a minterm
	if pos < 6 {
		// Pattern repeats within each word.
		var w uint64
		period := 1 << (pos + 1)
		half := 1 << pos
		for b := 0; b < 64; b++ {
			if b%period >= half {
				w |= uint64(1) << b
			}
		}
		for j := range t.words {
			t.words[j] = w
		}
		t.words[len(t.words)-1] &= t.mask()
	} else {
		// Whole words alternate in blocks of 2^(pos-6).
		block := 1 << (pos - 6)
		for j := range t.words {
			if (j/block)%2 == 1 {
				t.words[j] = ^uint64(0)
			}
		}
	}
	return t
}

// FromMinterms returns the table over n variables whose onset is exactly ms.
func FromMinterms(n int, ms []int) TT {
	t := New(n)
	for _, m := range ms {
		t.Set(m, true)
	}
	return t
}

// FromInterval returns the comparison function [L,U] over n variables:
// f(m) = 1 iff L <= m <= U. If L > U the result is constant 0.
func FromInterval(n, l, u int) TT {
	t := New(n)
	if l < 0 {
		l = 0
	}
	if u >= t.Size() {
		u = t.Size() - 1
	}
	for m := l; m <= u; m++ {
		t.Set(m, true)
	}
	return t
}

// Get reports the value of minterm m.
func (t TT) Get(m int) bool {
	return t.words[m>>6]&(uint64(1)<<(m&63)) != 0
}

// Set assigns the value of minterm m.
func (t *TT) Set(m int, v bool) {
	if m < 0 || m >= t.Size() {
		panic(fmt.Sprintf("logic: minterm %d out of range for %d vars", m, t.n))
	}
	if v {
		t.words[m>>6] |= uint64(1) << (m & 63)
	} else {
		t.words[m>>6] &^= uint64(1) << (m & 63)
	}
}

func (t TT) checkSame(o TT) {
	if t.n != o.n {
		panic(fmt.Sprintf("logic: mismatched variable counts %d vs %d", t.n, o.n))
	}
}

// And returns t AND o.
func (t TT) And(o TT) TT {
	t.checkSame(o)
	r := New(t.n)
	for i := range r.words {
		r.words[i] = t.words[i] & o.words[i]
	}
	return r
}

// Or returns t OR o.
func (t TT) Or(o TT) TT {
	t.checkSame(o)
	r := New(t.n)
	for i := range r.words {
		r.words[i] = t.words[i] | o.words[i]
	}
	return r
}

// Xor returns t XOR o.
func (t TT) Xor(o TT) TT {
	t.checkSame(o)
	r := New(t.n)
	for i := range r.words {
		r.words[i] = t.words[i] ^ o.words[i]
	}
	return r
}

// Not returns the complement of t.
func (t TT) Not() TT {
	r := New(t.n)
	for i := range r.words {
		r.words[i] = ^t.words[i]
	}
	r.words[len(r.words)-1] &= t.mask()
	return r
}

// Equal reports whether t and o are the same function over the same variables.
func (t TT) Equal(o TT) bool {
	if t.n != o.n {
		return false
	}
	for i := range t.words {
		if t.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// IsConst reports whether t is the constant function v. It allocates
// nothing: the check runs directly over the words (the search kernels call
// it at every recursion step).
func (t TT) IsConst(v bool) bool {
	if !v {
		for _, w := range t.words {
			if w != 0 {
				return false
			}
		}
		return true
	}
	last := len(t.words) - 1
	for _, w := range t.words[:last] {
		if w != ^uint64(0) {
			return false
		}
	}
	return t.words[last] == t.mask()
}

// CountOnes returns the onset size |{m : f(m)=1}|.
func (t TT) CountOnes() int {
	c := 0
	for _, w := range t.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Onset returns the onset minterms in increasing order.
func (t TT) Onset() []int {
	ms := make([]int, 0, t.CountOnes())
	for wi, w := range t.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			ms = append(ms, wi*64+b)
			w &= w - 1
		}
	}
	return ms
}

// OnsetBounds returns the smallest and largest onset minterms. ok is false
// for the constant-0 function.
func (t TT) OnsetBounds() (lo, hi int, ok bool) {
	lo, hi = -1, -1
	for wi, w := range t.words {
		if w == 0 {
			continue
		}
		if lo < 0 {
			lo = wi*64 + bits.TrailingZeros64(w)
		}
		hi = wi*64 + 63 - bits.LeadingZeros64(w)
	}
	return lo, hi, lo >= 0
}

// IsInterval reports whether the onset of t is a non-empty consecutive
// interval [lo, hi] of minterm values under the current variable order.
func (t TT) IsInterval() (lo, hi int, ok bool) {
	lo, hi, ok = t.OnsetBounds()
	if !ok {
		return 0, 0, false
	}
	if hi-lo+1 != t.CountOnes() {
		return 0, 0, false
	}
	return lo, hi, true
}

// Cofactor returns the (n-1)-variable cofactor of t with x_i (1-based) fixed
// to value v. The remaining variables keep their relative order.
func (t TT) Cofactor(i int, v bool) TT {
	if i < 1 || i > t.n {
		panic(fmt.Sprintf("logic: cofactor variable %d out of range", i))
	}
	r := New(t.n - 1)
	pos := t.n - i // bit position of x_i inside a minterm
	want := 0
	if v {
		want = 1
	}
	lowMask := (1 << pos) - 1
	for m := 0; m < r.Size(); m++ {
		// Insert bit `want` at position pos of m to index into t.
		full := (m&^lowMask)<<1 | want<<pos | m&lowMask
		if t.Get(full) {
			r.Set(m, true)
		}
	}
	return r
}

// Permute returns the table of f under the variable permutation perm, where
// perm[i] = j means new variable x_{i+1} (0-based slot i) is old variable
// y_{j+1}. Equivalently, the returned table g satisfies
//
//	g(x_1..x_n) = f(y_1..y_n) with x_{i+1} = y_{perm[i]+1}.
func (t TT) Permute(perm []int) TT {
	if len(perm) != t.n {
		panic("logic: permutation length mismatch")
	}
	r := New(t.n)
	n := t.n
	for m := 0; m < t.Size(); m++ {
		// m indexes the new variable order; build the old-order minterm.
		var old int
		for i := 0; i < n; i++ {
			bit := (m >> (n - 1 - i)) & 1 // value of new x_{i+1}
			old |= bit << (n - 1 - perm[i])
		}
		if t.Get(old) {
			r.Set(m, true)
		}
	}
	return r
}

// DependsOn reports whether f depends on variable x_i (1-based). The check
// is word-parallel and allocation-free: the two cofactors differ iff some
// minterm pair (x_i=0, x_i=1) disagrees.
func (t TT) DependsOn(i int) bool {
	if i < 1 || i > t.n {
		panic(fmt.Sprintf("logic: DependsOn variable %d out of range", i))
	}
	pos := t.n - i
	if pos < 6 {
		mask := varMask6[pos]
		shift := uint(1) << uint(pos)
		for _, w := range t.words {
			if (w^(w>>shift))&^mask&t.mask() != 0 {
				return true
			}
		}
		return false
	}
	block := 1 << (pos - 6)
	for j := range t.words {
		if j&block != 0 {
			continue
		}
		if t.words[j] != t.words[j|block] {
			return true
		}
	}
	return false
}

// Shrink removes non-support variables: it writes the reduced table into
// dst and returns kept, its storage reused, holding the 1-based original
// indices of the retained variables in order. dst must not share storage
// with t. With dst and kept owned by the caller and grown once, the call
// allocates nothing.
func (t TT) Shrink(dst *TT, kept []int) []int {
	kept = kept[:0]
	for i := 1; i <= t.n; i++ {
		if t.DependsOn(i) {
			kept = append(kept, i)
		}
	}
	dst.Reset(len(kept))
	if len(kept) == t.n {
		copy(dst.words, t.words)
		return kept
	}
	last := len(kept) - 1
	for m := 0; m < dst.Size(); m++ {
		var full int
		for i, v := range kept {
			full |= (m >> (last - i) & 1) << (t.n - v)
		}
		if t.Get(full) {
			dst.words[m>>6] |= uint64(1) << (m & 63)
		}
	}
	return kept
}

// Reset makes t the constant-0 table over n variables. It reuses t's words
// when their capacity suffices, so a caller-owned table reset from call to
// call allocates only while it grows; a table that shares those words (a
// copy of t) sees the reset too.
func (t *TT) Reset(n int) {
	if n < 0 || n > MaxVars {
		panic(fmt.Sprintf("logic: invalid variable count %d", n))
	}
	w := wordsFor(n)
	if cap(t.words) < w {
		t.words = make([]uint64, w)
	} else {
		t.words = t.words[:w]
		clear(t.words)
	}
	t.n = n
}

// Eval evaluates the function on an assignment: vals[i] is the value of
// x_{i+1}.
func (t TT) Eval(vals []bool) bool {
	if len(vals) != t.n {
		panic("logic: assignment length mismatch")
	}
	m := 0
	for i, v := range vals {
		if v {
			m |= 1 << (t.n - 1 - i)
		}
	}
	return t.Get(m)
}

// String renders the table as a binary string, minterm 0 first.
func (t TT) String() string {
	var b strings.Builder
	for m := 0; m < t.Size(); m++ {
		if t.Get(m) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// Hex renders the table's words as lowercase hex, word 0 (minterms 0..63)
// first, 16 digits per word. Together with the variable count (carried
// separately, e.g. in a certificate's evidence record) the rendering is a
// lossless, canonical serialization: FromHex inverts it exactly.
func (t TT) Hex() string {
	var b strings.Builder
	b.Grow(16 * len(t.words))
	for _, w := range t.words {
		fmt.Fprintf(&b, "%016x", w)
	}
	return b.String()
}

// FromHex parses the Hex rendering of a table over n variables. The string
// must supply exactly the right number of digits and the unused high bits of
// an n<6 table must be zero, so corrupted evidence is rejected rather than
// silently masked.
func FromHex(n int, s string) (TT, error) {
	if n < 0 || n > MaxVars {
		return TT{}, fmt.Errorf("logic: invalid variable count %d", n)
	}
	t := New(n)
	if len(s) != 16*len(t.words) {
		return TT{}, fmt.Errorf("logic: hex table for %d vars needs %d digits, got %d", n, 16*len(t.words), len(s))
	}
	for i := range t.words {
		var w uint64
		for _, c := range []byte(s[16*i : 16*i+16]) {
			var v uint64
			switch {
			case c >= '0' && c <= '9':
				v = uint64(c - '0')
			case c >= 'a' && c <= 'f':
				v = uint64(c-'a') + 10
			default:
				return TT{}, fmt.Errorf("logic: invalid hex digit %q in table", c)
			}
			w = w<<4 | v
		}
		t.words[i] = w
	}
	if last := t.words[len(t.words)-1]; last&^t.mask() != 0 {
		return TT{}, fmt.Errorf("logic: hex table has bits beyond 2^%d minterms", n)
	}
	return t, nil
}

// Clone returns an independent copy of t.
func (t TT) Clone() TT {
	r := New(t.n)
	copy(r.words, t.words)
	return r
}

// Words exposes the raw words (read-only use).
func (t TT) Words() []uint64 { return t.words }
