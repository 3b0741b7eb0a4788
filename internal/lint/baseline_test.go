package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compsynth/internal/lint"
)

func writeBaseline(t *testing.T, content string) string {
	t.Helper()
	f := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(f, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBaselineRejectsBadLedger: an unknown version and a field outside the
// ledger format (such as the findings list of older ledgers) fail the load
// instead of being read in part.
func TestBaselineRejectsBadLedger(t *testing.T) {
	f := writeBaseline(t, `{"version": 2, "debt": {}}`)
	if _, err := lint.LoadBaseline(f); err == nil {
		t.Error("unknown baseline version must be rejected")
	}
	f = writeBaseline(t, `{"version": 1, "findings": [], "debt": {}}`)
	if _, err := lint.LoadBaseline(f); err == nil || !strings.Contains(err.Error(), "findings") {
		t.Errorf("a findings list must be rejected, got %v", err)
	}
	f = writeBaseline(t, `{"version": 1, "debt": {"internal/a": {"ordered": 2}}}`)
	b, err := lint.LoadBaseline(f)
	if err != nil {
		t.Fatal(err)
	}
	if b.Debt["internal/a"].Ordered != 2 {
		t.Errorf("debt = %v, want internal/a ordered=2", b.Debt)
	}
}

func TestDebtCompareDirections(t *testing.T) {
	b := &lint.Baseline{
		Version: 1,
		Debt: map[string]lint.DebtCounts{
			"internal/a": {Ordered: 2},
			"internal/b": {Ordered: 1},
		},
	}
	current := map[string]lint.DebtCounts{
		"internal/a": {Ordered: 3}, // grew
		"internal/b": {},           // shrank (paid off)
	}
	errs := lint.CompareDebt(current, b)
	if len(errs) != 2 {
		t.Fatalf("got %d drift errors, want 2: %v", len(errs), errs)
	}
	if !strings.Contains(errs[0], "grew") || !strings.Contains(errs[0], "internal/a") {
		t.Errorf("growth message wrong: %s", errs[0])
	}
	if !strings.Contains(errs[1], "shrank") || !strings.Contains(errs[1], "internal/b") {
		t.Errorf("shrink message wrong: %s", errs[1])
	}
	if errs := lint.CompareDebt(map[string]lint.DebtCounts{
		"internal/a": {Ordered: 2},
		"internal/b": {Ordered: 1},
	}, b); len(errs) != 0 {
		t.Errorf("matching counts must not drift: %v", errs)
	}
}

// TestRepoBaselineValid: the committed ledger parses and pins no empty
// debt entries.
func TestRepoBaselineValid(t *testing.T) {
	root := repoRoot(t)
	b, err := lint.LoadBaseline(filepath.Join(root, "lint_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	for pkg, c := range b.Debt {
		if c.Ordered <= 0 {
			t.Errorf("debt entry %s pins %d suppressions; drop the entry instead", pkg, c.Ordered)
		}
	}
}
