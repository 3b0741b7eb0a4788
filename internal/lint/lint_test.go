package lint_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
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
	if len(dirs) < 5 {
		t.Fatalf("expected at least 5 fixture packages, got %v", dirs)
	}
	return dirs
}

// TestFixturesGolden asserts the committed goldens are regenerated-clean:
// byte-for-byte what `sftlint -update-golden` would write right now.
func TestFixturesGolden(t *testing.T) {
	root := repoRoot(t)
	gotText, gotJSON, err := lint.GoldenContents(root)
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
	wantJSON, err := os.ReadFile(filepath.Join(root, "internal/lint/testdata/golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if gotJSON != string(wantJSON) {
		t.Errorf("golden.json is stale — run `sftlint -update-golden`\n--- got ---\n%s--- want ---\n%s", gotJSON, wantJSON)
	}
}

// TestFixturesCoverEveryRule guards the fixtures themselves: each rule must
// fire at least once, or a refactor could silently hollow out the gate.
func TestFixturesCoverEveryRule(t *testing.T) {
	root := repoRoot(t)
	diags, err := lint.Analyze(fixtureDirs(t, root), lint.Config{DeterministicAll: true})
	if err != nil {
		t.Fatal(err)
	}
	fired := map[string]int{}
	for _, d := range diags {
		fired[d.Rule]++
	}
	for _, rule := range lint.AllRules() {
		if fired[rule] == 0 {
			t.Errorf("rule %s never fires on the fixtures", rule)
		}
	}
}

// TestRuleFilter checks Config.Rules restricts the run.
func TestRuleFilter(t *testing.T) {
	root := repoRoot(t)
	diags, err := lint.Analyze(fixtureDirs(t, root), lint.Config{
		DeterministicAll: true,
		Rules:            []string{"nodemut"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("nodemut-only run found nothing")
	}
	for _, d := range diags {
		if d.Rule != "nodemut" {
			t.Errorf("rule filter leaked %s diagnostic: %s", d.Rule, d)
		}
	}
}

// TestUnknownRuleRejected: a rule name outside AllRules is an error naming
// the rule and listing the real ones, never a run that checks nothing.
// purity is a retired rule name.
func TestUnknownRuleRejected(t *testing.T) {
	root := repoRoot(t)
	for _, rule := range []string{"bogus", "purity"} {
		diags, err := lint.Analyze(fixtureDirs(t, root), lint.Config{
			DeterministicAll: true,
			Rules:            []string{"nodemut", rule},
		})
		if err == nil {
			t.Errorf("-rules %s: no error, %d diagnostics", rule, len(diags))
			continue
		}
		if !strings.Contains(err.Error(), `"`+rule+`"`) {
			t.Errorf("-rules %s: error does not name the rule: %v", rule, err)
		}
		for _, known := range lint.AllRules() {
			if !strings.Contains(err.Error(), known) {
				t.Errorf("-rules %s: error does not list %s: %v", rule, known, err)
			}
		}
	}
}

// TestNormalizePin pins the output contract both formats rely on:
// diagnostics sorted by (file, line, col, rule, message), exact duplicates
// dropped, distinct findings at the same position kept. Byte-stability of
// -json/text across runs reduces to exactly this plus deterministic
// analysis order.
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

// TestJSONShape checks the JSON encoding round-trips and stays sorted.
func TestJSONShape(t *testing.T) {
	root := repoRoot(t)
	diags, err := lint.Analyze(fixtureDirs(t, root), lint.Config{DeterministicAll: true, RelativeTo: root})
	if err != nil {
		t.Fatal(err)
	}
	out, err := lint.FormatJSON(diags)
	if err != nil {
		t.Fatal(err)
	}
	var back []lint.Diagnostic
	if err := json.Unmarshal([]byte(out), &back); err != nil {
		t.Fatalf("JSON output does not parse: %v", err)
	}
	if len(back) != len(diags) {
		t.Fatalf("round-trip lost diagnostics: %d != %d", len(back), len(diags))
	}
	sorted := sort.SliceIsSorted(back, func(i, j int) bool {
		if back[i].File != back[j].File {
			return back[i].File < back[j].File
		}
		return back[i].Line < back[j].Line
	})
	if !sorted {
		t.Error("JSON diagnostics are not sorted by file/line")
	}
	empty, err := lint.FormatJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(empty) != "[]" {
		t.Errorf("empty diagnostics should encode as [], got %q", empty)
	}
}
