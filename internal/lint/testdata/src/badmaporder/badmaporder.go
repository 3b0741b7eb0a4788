// Package badmaporder injects maporder-rule violations. It is a lint
// fixture: the go tool never builds testdata, only sftlint's own loader does.
package badmaporder

import (
	"fmt"
	"sort"
)

// Collect accumulates keys in iteration order without sorting.
func Collect(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// CollectSorted is clean: collected, then sorted immediately after the loop.
func CollectSorted(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Last keeps whichever value the iterator happened to visit last.
func Last(m map[string]int) int {
	last := 0
	for _, v := range m {
		last = v
	}
	return last
}

// Sum is clean: compound assignment commutes across orders.
func Sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Grow inserts into the map while ranging over it.
func Grow(m map[int]int) {
	for k := range m {
		m[k+1] = k
	}
}

// Dump emits output in iteration order.
func Dump(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}
