package lint

import (
	"os"
	"path/filepath"
)

// Golden regeneration: the injected-violation fixtures under
// internal/lint/testdata/src pin every rule's exact output in golden.txt
// and golden.json. `sftlint -update-golden` regenerates both in place;
// lint_test.go asserts the committed files match a fresh regeneration, so
// goldens can never drift from what this code actually produces.

// ModuleRoot finds the module root (directory holding go.mod) above dir.
func ModuleRoot(dir string) (string, error) {
	root, _, err := findModule(dir)
	return root, err
}

// fixtureConfig is the exact configuration the golden files are generated
// under: every fixture package treated as deterministic, paths relative to
// the module root.
func fixtureConfig(root string) Config {
	return Config{DeterministicAll: true, RelativeTo: root}
}

// GoldenContents analyzes the fixture packages and renders the two golden
// payloads.
func GoldenContents(root string) (text, jsonOut string, err error) {
	dirs, err := ExpandPatterns([]string{filepath.Join(root, "internal/lint/testdata/src") + "/..."})
	if err != nil {
		return "", "", err
	}
	diags, err := Analyze(dirs, fixtureConfig(root))
	if err != nil {
		return "", "", err
	}
	text = FormatText(diags)
	jsonOut, err = FormatJSON(diags)
	return text, jsonOut, err
}

// UpdateGoldens regenerates golden.txt and golden.json in place and returns
// the files written.
func UpdateGoldens(root string) ([]string, error) {
	text, jsonOut, err := GoldenContents(root)
	if err != nil {
		return nil, err
	}
	txtPath := filepath.Join(root, "internal/lint/testdata/golden.txt")
	jsonPath := filepath.Join(root, "internal/lint/testdata/golden.json")
	if err := os.WriteFile(txtPath, []byte(text), 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(jsonPath, []byte(jsonOut), 0o644); err != nil {
		return nil, err
	}
	return []string{txtPath, jsonPath}, nil
}

// Debt loads the given package directories and tallies their in-source
// suppression comments (the -debt gate's engine).
func Debt(dirs []string) (map[string]DebtCounts, error) {
	l, pkgs, err := loadAll(dirs)
	if err != nil {
		return nil, err
	}
	return CountDebt(l, pkgs), nil
}
