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

func TestBaselineApply(t *testing.T) {
	f := writeBaseline(t, `{
		"version": 1,
		"findings": [
			{"id": "purity/x/aaaa", "justification": "pre-warmed serially"},
			{"id": "wallclock/gone/bbbb", "justification": "was removed last release"}
		],
		"debt": {}
	}`)
	b, err := lint.LoadBaseline(f)
	if err != nil {
		t.Fatal(err)
	}
	diags := []lint.Diagnostic{
		{File: "a.go", Rule: "purity", Msg: "old", ID: "purity/x/aaaa"},
		{File: "b.go", Rule: "sharedmut", Msg: "new", ID: "sharedmut/y/cccc"},
	}
	fresh, stale := b.Apply(diags)
	if len(fresh) != 1 || fresh[0].ID != "sharedmut/y/cccc" {
		t.Errorf("fresh = %v, want exactly the unbaselined finding", fresh)
	}
	if len(stale) != 1 || stale[0] != "wallclock/gone/bbbb" {
		t.Errorf("stale = %v, want exactly the unmatched entry", stale)
	}
}

func TestBaselineJustificationMandatory(t *testing.T) {
	f := writeBaseline(t, `{
		"version": 1,
		"findings": [{"id": "purity/x/aaaa", "justification": "  "}],
		"debt": {}
	}`)
	if _, err := lint.LoadBaseline(f); err == nil || !strings.Contains(err.Error(), "justification") {
		t.Errorf("blank justification must be rejected, got %v", err)
	}
	f = writeBaseline(t, `{"version": 2, "findings": [], "debt": {}}`)
	if _, err := lint.LoadBaseline(f); err == nil {
		t.Error("unknown baseline version must be rejected")
	}
	f = writeBaseline(t, `{
		"version": 1,
		"findings": [
			{"id": "a", "justification": "x"},
			{"id": "a", "justification": "y"}
		],
		"debt": {}
	}`)
	if _, err := lint.LoadBaseline(f); err == nil {
		t.Error("duplicate baseline IDs must be rejected")
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

// TestRepoBaselineValid: the committed ledger parses, every entry is
// justified, and the debt counts carry the right shape.
func TestRepoBaselineValid(t *testing.T) {
	root := repoRoot(t)
	b, err := lint.LoadBaseline(filepath.Join(root, "lint_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range b.Findings {
		if len(strings.TrimSpace(e.Justification)) < 20 {
			t.Errorf("entry %s: justification too thin to be reviewable: %q", e.ID, e.Justification)
		}
	}
}
