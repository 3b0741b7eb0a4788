package lint

import (
	"encoding/json"
	"fmt"
	"os"
	"path"
	"sort"
	"strings"
)

// The baseline is the committed ledger of accepted findings and suppression
// debt (lint_baseline.json at the repo root). In -baseline mode, findings
// whose IDs appear in the ledger are suppressed — they are debt, not
// regressions — while any finding NOT in the ledger fails the run, and any
// ledger entry that no longer matches a finding fails too (paid-off debt
// must be deleted from the ledger, keeping it honest). Every entry carries
// a mandatory justification, mirroring the //lint:ordered comment form.
//
// The ledger also pins the per-package counts of the in-source suppression
// comment //lint:ordered. sftlint -debt recomputes them and fails on any
// drift in either direction: growth means new suppressions sneaked in
// without review; shrinkage means the ledger overstates the debt and must
// be ratcheted down in the same commit.

// BaselineEntry is one accepted finding.
type BaselineEntry struct {
	ID            string `json:"id"`
	Justification string `json:"justification"`
}

// DebtCounts tallies in-source suppression comments for one package.
type DebtCounts struct {
	Ordered int `json:"ordered,omitempty"`
}

// Baseline is the parsed ledger.
type Baseline struct {
	Version  int                   `json:"version"`
	Findings []BaselineEntry       `json:"findings"`
	Debt     map[string]DebtCounts `json:"debt"`
}

// LoadBaseline reads and validates a ledger file.
func LoadBaseline(file string) (*Baseline, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("lint: parsing baseline %s: %v", file, err)
	}
	if b.Version != 1 {
		return nil, fmt.Errorf("lint: baseline %s has version %d, want 1", file, b.Version)
	}
	seen := map[string]bool{}
	for _, e := range b.Findings {
		if e.ID == "" {
			return nil, fmt.Errorf("lint: baseline %s has an entry without an id", file)
		}
		if strings.TrimSpace(e.Justification) == "" {
			return nil, fmt.Errorf("lint: baseline entry %s has no justification — accepted findings must say why", e.ID)
		}
		if seen[e.ID] {
			return nil, fmt.Errorf("lint: baseline entry %s is duplicated", e.ID)
		}
		seen[e.ID] = true
	}
	return &b, nil
}

// Apply splits diagnostics against the ledger: fresh findings (not
// baselined — these fail CI) and stale entry IDs (baselined but no longer
// found — the ledger must shed them).
func (b *Baseline) Apply(ds []Diagnostic) (fresh []Diagnostic, stale []string) {
	baselined := map[string]bool{}
	for _, e := range b.Findings {
		baselined[e.ID] = false
	}
	for _, d := range ds {
		if _, ok := baselined[d.ID]; ok {
			baselined[d.ID] = true
		} else {
			fresh = append(fresh, d)
		}
	}
	for _, e := range b.Findings {
		if !baselined[e.ID] {
			stale = append(stale, e.ID)
		}
	}
	sort.Strings(stale)
	return fresh, stale
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

// baselinedPerPackage derives, from the ledger's finding IDs (which embed
// module-relative file paths for syntactic rules), how many accepted
// findings each package directory carries. Interprocedural IDs carry no
// path and are tallied under "(interprocedural)".
func (b *Baseline) baselinedPerPackage() map[string]int {
	out := map[string]int{}
	for _, e := range b.Findings {
		parts := strings.Split(e.ID, "/")
		if len(parts) >= 3 && strings.HasSuffix(parts[len(parts)-2], ".go") {
			out[path.Dir(strings.Join(parts[1:len(parts)-1], "/"))]++
		} else {
			out["(interprocedural)"]++
		}
	}
	return out
}

// DebtReport renders the suppression-debt tally: per-package counts of
// in-source suppressions plus baselined findings, with totals.
func DebtReport(current map[string]DebtCounts, b *Baseline) string {
	perPkg := map[string]int{}
	if b != nil {
		perPkg = b.baselinedPerPackage()
	}
	keys := map[string]bool{}
	for k := range current {
		keys[k] = true
	}
	for k := range perPkg {
		keys[k] = true
	}
	var sorted []string
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	var sb strings.Builder
	var tOrd, tBase int
	for _, k := range sorted {
		c := current[k]
		nb := perPkg[k]
		fmt.Fprintf(&sb, "%-40s ordered=%-3d baselined=%d\n", k, c.Ordered, nb)
		tOrd += c.Ordered
		tBase += nb
	}
	fmt.Fprintf(&sb, "%-40s ordered=%-3d baselined=%d\n", "TOTAL", tOrd, tBase)
	return sb.String()
}

// CompareDebt checks the recomputed tally against the ledger's pinned one.
// Any drift fails, with direction-specific messages: growth is unreviewed
// new debt, shrinkage is a stale ledger.
func CompareDebt(current map[string]DebtCounts, b *Baseline) []string {
	var errs []string
	keys := map[string]bool{}
	for k := range current {
		keys[k] = true
	}
	for k := range b.Debt {
		keys[k] = true
	}
	var sorted []string
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
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
