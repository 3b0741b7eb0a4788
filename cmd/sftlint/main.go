// Command sftlint runs the repository's static analysis rules (package
// internal/lint): wall-clock and global-RNG bans in deterministic packages,
// map-iteration-order hazards, and out-of-package circuit-node mutation.
// Every rule is syntactic and runs per package.
//
// Usage:
//
//	sftlint [-update-golden] [packages]
//
// Packages are directories, optionally ending in /... for a recursive walk;
// the default is ./... . Diagnostics name files relative to the module
// root. Exit status: 0 clean, 1 findings, 2 usage or load failure.
//
// CI runs `sftlint ./...`, where any finding fails, and
// `sftlint internal/lint/testdata/src/...`, which must find the injected
// violations. `-update-golden` regenerates the fixture golden in place.
package main

import (
	"flag"
	"fmt"
	"os"

	"compsynth/internal/lint"
)

func main() {
	updateGolden := flag.Bool("update-golden", false, "regenerate internal/lint/testdata/golden.txt in place and exit")
	flag.Parse()

	if *updateGolden {
		cwd, err := os.Getwd()
		if err != nil {
			fatal(err)
		}
		root, err := lint.ModuleRoot(cwd)
		if err != nil {
			fatal(err)
		}
		file, err := lint.UpdateGolden(root)
		if err != nil {
			fatal(err)
		}
		fmt.Println("wrote", file)
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := lint.ExpandPatterns(patterns)
	if err != nil {
		fatal(err)
	}
	if len(dirs) == 0 {
		fatal(fmt.Errorf("no packages matched"))
	}
	diags, err := lint.Analyze(dirs)
	if err != nil {
		fatal(err)
	}
	fmt.Print(lint.FormatText(diags))
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sftlint:", err)
	os.Exit(2)
}
