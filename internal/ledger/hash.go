package ledger

// Cryptographic digests for the certificate. The hot-loop fingerprint
// (internal/digest) is a keyless FNV-style mix — cheap, invertible, and
// perfectly fine for cache keys, but useless against an adversary who wants
// a collision. Everything that backs a verification claim here hashes with
// SHA-256 instead: circuit, options and body digests, witness-parameter
// derivation and witness responses.
//
// The framing conventions mirror internal/digest: byte strings are
// length-prefixed and words are absorbed little-endian, so concatenations
// cannot collide trivially.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
)

// H is a 256-bit SHA-256 digest. Its hex form (64 lowercase digits) is the
// stable textual representation used in certificates.
type H [sha256.Size]byte

// Hex renders the digest as 64 lowercase hex digits.
func (h H) Hex() string {
	return hex.EncodeToString(h[:])
}

// hstate is a chainable SHA-256 builder. Copies share the underlying
// hash.Hash, so use it linearly (d = d.word(...)), never fork a state.
type hstate struct {
	h hash.Hash
}

func hnew() hstate {
	return hstate{h: sha256.New()}
}

// word absorbs one 64-bit word, little-endian.
func (s hstate) word(x uint64) hstate {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	s.h.Write(b[:])
	return s
}

// int absorbs one int as a word.
func (s hstate) int(x int) hstate {
	return s.word(uint64(x))
}

// bytes absorbs a length-prefixed byte string.
func (s hstate) bytes(p []byte) hstate {
	s = s.word(uint64(len(p)))
	s.h.Write(p)
	return s
}

func (s hstate) sum() H {
	var out H
	s.h.Sum(out[:0])
	return out
}
