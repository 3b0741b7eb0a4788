// Package badclock injects wallclock-rule violations. It is a lint fixture:
// the go tool never builds testdata, only sftlint's own loader does.
package badclock

import (
	"math/rand"
	randv2 "math/rand/v2"
	"time"
)

// Stamp reads the wall clock twice.
func Stamp() time.Duration {
	start := time.Now()
	return time.Since(start)
}

// Roll uses the process-global v1 RNG.
func Roll() int {
	return rand.Intn(6)
}

// RollV2 uses the process-global v2 RNG.
func RollV2() int {
	return randv2.IntN(6)
}

// RollSeeded is clean: an explicit generator built from a caller-provided
// seed, the pattern par.SeedFor feeds.
func RollSeeded(seed int64) int {
	return rand.New(rand.NewSource(seed)).Intn(6)
}

// clock stores the clock read in a function-typed package variable; the
// reference to time.Now is flagged where it is taken, so no caller of clock
// can read the wall clock unseen.
var clock = time.Now
