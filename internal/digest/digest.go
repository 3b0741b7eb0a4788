// Package digest provides a cheap 128-bit FNV-1a-style fingerprint over
// machine words. It replaces the string-building cache keys that used to
// dominate allocation in the resynthesis hot loops: a D is a fixed-size
// comparable value, so it can key Go maps without ever materializing a
// per-lookup string.
//
// The construction is FNV-1a widened to 128 bits and fed 64 bits at a time
// (xor the word into the low half, multiply by the 128-bit FNV prime
// 2^88 + 0x13B modulo 2^128). Processing whole words instead of bytes keeps
// the per-word cost at one xor plus three multiplies, but it gives up
// FNV's per-byte mixing: a product only carries upward, so the digest of
// one word is an affine function of (offset basis xor word), and no output
// bit depends on a higher input bit. A D is a fingerprint for structured
// keys, not a hash with avalanche, and sums or other linear folds of
// one-word digests collide whenever the folded words do (subckt.Key
// finalizes each ID instead). The digest is deterministic across processes
// — unlike hash/maphash — so values derived from it (e.g. per-truth-table
// RNG seeds) are stable run to run.
package digest

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// fnvPrime128 = 2^88 + 0x13B; split below for 64-bit arithmetic.
const primeLow = 0x13B

// D is a 128-bit fingerprint. The zero value is NOT the initial state; use
// New.
type D struct {
	Lo, Hi uint64
}

// New returns the 128-bit FNV-1a offset basis.
func New() D {
	return D{Lo: 0x62b821756295c58d, Hi: 0x6c62272e07bb0142}
}

// mulPrime multiplies d by the 128-bit FNV prime modulo 2^128.
func (d D) mulPrime() D {
	// d * (2^88 + primeLow) mod 2^128:
	//   low-product  = (Hi,Lo) * primeLow
	//   shift-product = (Hi,Lo) << 88  -> only Lo<<24 survives in the high word
	hi, lo := bits.Mul64(d.Lo, primeLow)
	hi += d.Hi * primeLow
	hi += d.Lo << 24
	return D{Lo: lo, Hi: hi}
}

// Word absorbs one 64-bit word.
func (d D) Word(x uint64) D {
	d.Lo ^= x
	return d.mulPrime()
}

// Int absorbs one int.
func (d D) Int(x int) D {
	return d.Word(uint64(x))
}

// Words absorbs a word slice (length is NOT absorbed; callers that need
// length framing should absorb it explicitly).
func (d D) Words(xs []uint64) D {
	for _, x := range xs {
		d = d.Word(x)
	}
	return d
}

// Ints absorbs an int slice, framing it with its length so [1,2] and
// [1,2,0] cannot collide trivially.
func (d D) Ints(xs []int) D {
	d = d.Int(len(xs))
	for _, x := range xs {
		d = d.Int(x)
	}
	return d
}

// Bytes absorbs a byte slice, framed with its length so concatenations
// cannot collide trivially. Bytes are consumed eight at a time
// (little-endian) with a zero-padded final word; the length framing keeps
// "ab"+"c" distinct from "a"+"bc".
func (d D) Bytes(p []byte) D {
	d = d.Int(len(p))
	for len(p) >= 8 {
		d = d.Word(binary.LittleEndian.Uint64(p))
		p = p[8:]
	}
	if len(p) > 0 {
		var w uint64
		for i, b := range p {
			w |= uint64(b) << (8 * uint(i))
		}
		d = d.Word(w)
	}
	return d
}

// Hex renders the fingerprint as 32 lowercase hex digits, high half first.
// This is the stable textual form used by the run ledger and certificates.
func (d D) Hex() string {
	return fmt.Sprintf("%016x%016x", d.Hi, d.Lo)
}

// Sum64 folds the fingerprint to 64 bits (for RNG seeding).
func (d D) Sum64() uint64 {
	return d.Lo ^ bits.RotateLeft64(d.Hi, 32)
}
