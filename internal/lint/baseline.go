package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// The baseline (lint_baseline.json at the repo root) pins the per-package
// counts of the in-source suppression comment //lint:ordered. The -debt gate
// recomputes them and fails on any drift in either direction: growth means
// new suppressions sneaked in without review; shrinkage means the ledger
// overstates the debt and must be ratcheted down in the same commit.
// Findings are never baselined: any finding fails the tree gate.

// DebtCounts tallies in-source suppression comments for one package.
type DebtCounts struct {
	Ordered int `json:"ordered,omitempty"`
}

// Baseline is the parsed ledger.
type Baseline struct {
	Version int                   `json:"version"`
	Debt    map[string]DebtCounts `json:"debt"`
}

// LoadBaseline reads and validates a ledger file. Unknown fields are
// rejected, so a ledger written for another format fails loudly instead of
// being half read.
func LoadBaseline(file string) (*Baseline, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b Baseline
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("lint: parsing baseline %s: %v", file, err)
	}
	if b.Version != 1 {
		return nil, fmt.Errorf("lint: baseline %s has version %d, want 1", file, b.Version)
	}
	return &b, nil
}

// CountDebt tallies //lint:ordered comments per package (keyed by import
// path relative to the module).
func CountDebt(l *Loader, pkgs []*Package) map[string]DebtCounts {
	out := map[string]DebtCounts{}
	for _, p := range pkgs {
		rel := strings.TrimPrefix(p.Path, l.ModPath+"/")
		c := out[rel]
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, cm := range cg.List {
					if strings.HasPrefix(cm.Text, "//lint:ordered") {
						c.Ordered++
					}
				}
			}
		}
		if c != (DebtCounts{}) {
			out[rel] = c
		}
	}
	return out
}

// sortedKeys returns the union of both tallies' package keys, sorted.
func sortedKeys(a, b map[string]DebtCounts) []string {
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	return sorted
}

// DebtReport renders the suppression-debt tally: per-package counts of
// in-source suppressions, with the total.
func DebtReport(current map[string]DebtCounts) string {
	var sb strings.Builder
	total := 0
	for _, k := range sortedKeys(current, nil) {
		fmt.Fprintf(&sb, "%-40s ordered=%d\n", k, current[k].Ordered)
		total += current[k].Ordered
	}
	fmt.Fprintf(&sb, "%-40s ordered=%d\n", "TOTAL", total)
	return sb.String()
}

// CompareDebt checks the recomputed tally against the ledger's pinned one.
// Any drift fails, with direction-specific messages: growth is unreviewed
// new debt, shrinkage is a stale ledger.
func CompareDebt(current map[string]DebtCounts, b *Baseline) []string {
	var errs []string
	for _, k := range sortedKeys(current, b.Debt) {
		c, p := current[k].Ordered, b.Debt[k].Ordered
		switch {
		case c > p:
			errs = append(errs, fmt.Sprintf("%s: //lint:ordered count grew %d -> %d; new suppressions need review — update the baseline debt in the same commit", k, p, c))
		case c < p:
			errs = append(errs, fmt.Sprintf("%s: //lint:ordered count shrank %d -> %d; ratchet the baseline debt down to match", k, p, c))
		}
	}
	return errs
}
