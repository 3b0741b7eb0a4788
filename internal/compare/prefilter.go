package compare

import "compsynth/internal/logic"

// The unateness prefilter: a necessary condition for a comparison function,
// tested on the table word before the exact search runs. Most candidate
// functions resynthesis meets are not comparison functions, and the search
// has to walk its whole order tree to find that out; the filter settles
// almost all of them with a few dozen word operations.
//
// Suppose f's onset is the interval [L, U] under some order.
//
//   - The positions above the first one where L and U differ are exactly
//     the literals f implies: every minterm of [L, U] shares them, and below
//     that position [L, U] holds both prefix·0·1…1 and prefix·1·0…0, so no
//     later variable is fixed. Cofactor the implied literals away to get g.
//     If g is constant 1, f is a cube, which is an interval.
//   - At the first differing position x, L has 0 and U has 1. So
//     g = x'·S + x·P, where S = {m ≥ L'} and P = {m ≤ U'} range over the
//     remaining variables in one common order (L' and U' are the bits of L
//     and U below x).
//   - Flipping any bit of a minterm from 0 to 1 raises its value. So S is
//     positive unate and P negative unate in every remaining variable. This
//     is Sec. 3.1's threshold view: a ≥L block is a threshold gate with
//     positive weights.
//
// Therefore some remaining variable x must leave g|x=0 positive unate and
// g|x=1 negative unate in every other remaining variable. If none does, f is
// not a comparison function in onset form. The complemented form is the same
// test on ¬f.
//
// Up to 6 variables a table is one word, so implied literals, cofactors and
// unateness are mask-and-shift tests: one pass finds where each remaining
// variable breaks unateness, then each of at most 6 choices of x costs two
// tests, and nothing is allocated. Wider tables skip the filter.

// prefilter reports whether the exact search may realize f's onset or, with
// complement, its offset as an interval: false means no order does. It is
// true for every table of more than 6 variables.
func prefilter(f logic.TT, complement bool) bool {
	n := f.Vars()
	if n > 6 {
		return true
	}
	w := f.Words()[0]
	if complement {
		w = ^w & fullWord(n)
	}
	return mayBeInterval(w, n)
}

// fullWord is the constant-1 table over n <= 6 variables.
func fullWord(n int) uint64 { return ^uint64(0) >> (64 - 1<<n) }

// mayBeInterval applies the condition above to the one-word table w over n
// variables.
func mayBeInterval(w uint64, n int) bool {
	if w == 0 {
		return false // the empty onset is no interval
	}
	g := w
	var free uint // the positions f does not fix, one bit each
	for pos := 0; pos < n; pos++ {
		switch {
		case logic.CofactorWord(w, pos, true) == 0: // f implies x' at pos
			g = logic.CofactorWord(g, pos, false)
		case logic.CofactorWord(w, pos, false) == 0: // f implies x at pos
			g = logic.CofactorWord(g, pos, true)
		default:
			free |= 1 << pos
		}
	}
	if g == fullWord(n) {
		return true // a cube
	}
	// up[y] holds the minterms where raising y turns g off, down[y] those
	// where it turns g on (both empty at a fixed y). g|x=0 is positive unate
	// in every other y exactly when the union of up[y] over y != x has no
	// minterm with x = 0, and g|x=1 negative unate when that of down[y] has
	// none with x = 1 (cofactors commute). Each union over y != x joins the
	// sets below x and the sets above it.
	var up, down [6]uint64
	var upAbove, downAbove [7]uint64 // unions over positions y and up
	for y := n - 1; y >= 0; y-- {
		if free&(1<<y) != 0 {
			g0, g1 := logic.CofactorWord(g, y, false), logic.CofactorWord(g, y, true)
			up[y], down[y] = g0&^g1, g1&^g0
		}
		upAbove[y], downAbove[y] = upAbove[y+1]|up[y], downAbove[y+1]|down[y]
	}
	var upBelow, downBelow uint64
	for x := 0; x < n; x++ {
		if free&(1<<x) != 0 {
			upx, downx := upBelow|upAbove[x+1], downBelow|downAbove[x+1]
			if logic.CofactorWord(upx, x, false) == 0 && logic.CofactorWord(downx, x, true) == 0 {
				return true
			}
		}
		upBelow, downBelow = upBelow|up[x], downBelow|down[x]
	}
	return false
}
