package lint

import (
	"path/filepath"
	"testing"
)

// TestTreeClean is the in-process version of the CI gates: the repository's
// own packages must produce zero diagnostics under every rule, and the
// //lint:ordered counts must match the debt pinned in lint_baseline.json.
// Both gates read one load of the module, so it is type-checked once. It
// lives inside the package to share that load between Analyze's rules and
// CountDebt.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := ExpandPatterns([]string{root + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	l, pkgs, err := loadAll(dirs)
	if err != nil {
		t.Fatal(err)
	}
	if diags := analyzeLoaded(l, pkgs, Config{RelativeTo: root}); len(diags) > 0 {
		t.Errorf("tree has findings:\n%s", FormatText(diags))
	}
	baseline, err := LoadBaseline(filepath.Join(root, "lint_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range CompareDebt(CountDebt(l, pkgs), baseline) {
		t.Errorf("suppression-debt drift: %s", msg)
	}
}
