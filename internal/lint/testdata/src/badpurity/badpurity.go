// Package badpurity injects purity violations at the two seam kinds: a
// par.Run task writing captured state and a par.MapErr task writing a
// global. Lint fixture; the go tool never builds testdata, only sftlint's
// own loader does.
package badpurity

import "compsynth/internal/par"

// Sum fans out but accumulates into a captured variable with no barrier —
// the canonical impure task.
func Sum(items []int) int {
	total := 0
	par.Run(nil, "badpurity.sum", 4, len(items), func(_, i int) {
		total += items[i]
	})
	return total
}

// SumIndexed is the clean twin: task-indexed writes are private by
// contract, then reduced serially.
func SumIndexed(items []int) int {
	out := make([]int, len(items))
	par.Run(nil, "badpurity.sum_indexed", 4, len(items), func(_, i int) {
		out[i] = items[i]
	})
	total := 0
	for _, v := range out {
		total += v
	}
	return total
}

var calls int

// Double's tasks bump a package-level counter: tasks race on it, so its
// value would depend on scheduling.
func Double(items []int) ([]int, error) {
	return par.MapErr(4, len(items), func(i int) (int, error) {
		calls++
		return items[i] * 2, nil
	})
}
