package lint

import (
	"os"
	"path/filepath"
)

// Golden regeneration: the injected-violation fixtures under
// internal/lint/testdata/src pin every rule's exact output in golden.txt.
// `sftlint -update-golden` regenerates it in place; lint_test.go asserts
// the committed file matches a fresh regeneration, so the golden can never
// drift from what this code actually produces.

// ModuleRoot finds the module root (directory holding go.mod) above dir.
func ModuleRoot(dir string) (string, error) {
	root, _, err := findModule(dir)
	return root, err
}

// GoldenContents analyzes the fixture packages and renders golden.txt.
func GoldenContents(root string) (string, error) {
	dirs, err := ExpandPatterns([]string{filepath.Join(root, "internal/lint/testdata/src") + "/..."})
	if err != nil {
		return "", err
	}
	diags, err := Analyze(dirs)
	if err != nil {
		return "", err
	}
	return FormatText(diags), nil
}

// UpdateGolden regenerates golden.txt in place and returns its path.
func UpdateGolden(root string) (string, error) {
	text, err := GoldenContents(root)
	if err != nil {
		return "", err
	}
	path := filepath.Join(root, "internal/lint/testdata/golden.txt")
	return path, os.WriteFile(path, []byte(text), 0o644)
}
