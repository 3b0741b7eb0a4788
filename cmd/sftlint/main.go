// Command sftlint runs the repository's static analysis rules (package
// internal/lint): wall-clock and global-RNG bans in deterministic packages,
// map-iteration-order hazards, obs metric naming and out-of-package
// circuit-node mutation. Every rule is syntactic and runs per package.
//
// Usage:
//
//	sftlint [flags] [packages]
//
// Packages are directories, optionally ending in /... for a recursive walk;
// the default is ./... . Exit status: 0 clean, 1 findings (or debt drift),
// 2 usage or load failure, an unknown -rules name included.
//
// CI runs `sftlint ./...`, where any finding fails, and
// `sftlint -debt lint_baseline.json`, which tallies the //lint:ordered
// suppression comments per package and fails on drift from the counts
// pinned in that file. `-update-golden` regenerates the fixture goldens in
// place.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"compsynth/internal/lint"
)

func main() {
	var (
		jsonOut      = flag.Bool("json", false, "emit diagnostics as a JSON array instead of text")
		rules        = flag.String("rules", "", "comma-separated rule subset (default: all of "+strings.Join(lint.AllRules(), ",")+")")
		detAll       = flag.Bool("det-all", false, "treat every package as deterministic pipeline code (used on the injected-violation fixtures)")
		relTo        = flag.String("rel", "", "report file paths relative to this directory")
		updateGolden = flag.Bool("update-golden", false, "regenerate internal/lint/testdata goldens in place and exit")
		debtFile     = flag.String("debt", "", "report suppression debt per package and fail on drift from the counts pinned in this baseline file")
	)
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
		files, err := lint.UpdateGoldens(root)
		if err != nil {
			fatal(err)
		}
		for _, f := range files {
			fmt.Println("wrote", f)
		}
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

	if *debtFile != "" {
		os.Exit(runDebt(dirs, *debtFile))
	}

	cfg := lint.Config{DeterministicAll: *detAll, RelativeTo: *relTo}
	if *rules != "" {
		cfg.Rules = strings.Split(*rules, ",")
	}
	diags, err := lint.Analyze(dirs, cfg)
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		out, err := lint.FormatJSON(diags)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
	} else {
		fmt.Print(lint.FormatText(diags))
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// runDebt prints the suppression-debt tally and fails on drift from the
// counts pinned in the baseline file.
func runDebt(dirs []string, file string) int {
	baseline, err := lint.LoadBaseline(file)
	if err != nil {
		fatal(err)
	}
	counts, err := lint.Debt(dirs)
	if err != nil {
		fatal(err)
	}
	fmt.Print(lint.DebtReport(counts))
	errs := lint.CompareDebt(counts, baseline)
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "sftlint:", e)
	}
	if len(errs) > 0 {
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sftlint:", err)
	os.Exit(2)
}
