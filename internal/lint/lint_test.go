package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"compsynth/internal/lint"
)

// repoRoot walks up from the working directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		if filepath.Dir(d) == d {
			t.Fatalf("no go.mod above %s", dir)
		}
	}
}

func fixtureDirs(t *testing.T, root string) []string {
	t.Helper()
	dirs, err := lint.ExpandPatterns([]string{filepath.Join(root, "internal/lint/testdata/src") + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 4 {
		t.Fatalf("expected at least 4 fixture packages, got %v", dirs)
	}
	return dirs
}

// TestFixturesGolden asserts the committed golden is regenerated-clean:
// byte-for-byte what `sftlint -update-golden` would write right now.
func TestFixturesGolden(t *testing.T) {
	root := repoRoot(t)
	gotText, err := lint.GoldenContents(root)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(root, "internal/lint/testdata/golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if gotText != string(want) {
		t.Errorf("golden.txt is stale — run `sftlint -update-golden`\n--- got ---\n%s--- want ---\n%s", gotText, want)
	}
}

// TestFixturesCoverEveryRule guards the fixtures themselves: each rule must
// fire at least once, or a refactor could silently hollow out the gate.
func TestFixturesCoverEveryRule(t *testing.T) {
	root := repoRoot(t)
	diags, err := lint.Analyze(fixtureDirs(t, root))
	if err != nil {
		t.Fatal(err)
	}
	fired := map[string]int{}
	for _, d := range diags {
		fired[d.Rule]++
	}
	for _, rule := range []string{"wallclock", "maporder", "nodemut"} {
		if fired[rule] == 0 {
			t.Errorf("rule %s never fires on the fixtures", rule)
		}
	}
}

// TestNormalizePin pins the output contract: diagnostics sorted by (file,
// line, col, rule, message), exact duplicates dropped, distinct findings at
// the same position kept. Byte-stability of the output across runs reduces
// to exactly this plus deterministic analysis order.
func TestNormalizePin(t *testing.T) {
	in := []lint.Diagnostic{
		{File: "b.go", Line: 2, Col: 1, Rule: "wallclock", Msg: "m1"},
		{File: "a.go", Line: 9, Col: 4, Rule: "maporder", Msg: "m2"},
		{File: "a.go", Line: 9, Col: 4, Rule: "maporder", Msg: "m2"}, // exact dup
		{File: "a.go", Line: 9, Col: 4, Rule: "maporder", Msg: "different site"},
		{File: "a.go", Line: 1, Col: 7, Rule: "nodemut", Msg: "m3"},
	}
	got := lint.Normalize(in)
	want := []string{"m3", "different site", "m2", "m1"}
	if len(got) != len(want) {
		t.Fatalf("Normalize kept %d diagnostics, want %d", len(got), len(want))
	}
	for i, msg := range want {
		if got[i].Msg != msg {
			t.Errorf("position %d: got %s, want %s", i, got[i].Msg, msg)
		}
	}
	// Idempotent and byte-stable: a second pass changes nothing.
	again := lint.Normalize(append([]lint.Diagnostic(nil), got...))
	if lint.FormatText(again) != lint.FormatText(got) {
		t.Error("Normalize is not idempotent")
	}
}
