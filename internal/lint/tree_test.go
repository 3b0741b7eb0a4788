package lint

import "testing"

// TestTreeClean is the in-process version of the CI gate: the repository's
// own packages must produce zero diagnostics under every rule.
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
	diags, err := Analyze(dirs)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) > 0 {
		t.Errorf("tree has findings:\n%s", FormatText(diags))
	}
}
