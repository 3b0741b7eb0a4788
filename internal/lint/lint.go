// Package lint is sftlint's engine: repo-specific static analysis rules
// that turn this repository's determinism and correctness conventions into
// machine-checked gates. It is built entirely on the standard library
// (go/parser, go/types, go/importer) per the no-external-deps design rule.
//
// Rules:
//
//	wallclock - no time.Now/Since/Until and no global math/rand functions in
//	            deterministic pipeline packages; RNGs must be seeded
//	            explicitly (derive per-task seeds via par.SeedFor).
//	maporder  - no iteration over a map that accumulates ordered output or
//	            assigns order-dependent state, unless the loop cannot see
//	            which element it is on or the result is sorted immediately
//	            afterwards.
//	nodemut   - outside internal/circuit, circuit nodes must be mutated via
//	            the Circuit methods, which stamp every edit, never by direct
//	            field writes (protects the incremental-resynthesis contract).
//
// Instrument names are checked where they are created, by package metric.
package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one rule violation.
type Diagnostic struct {
	File string // relative to the module root
	Line int
	Col  int
	Rule string
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Rule, d.Msg)
}

// nondeterministicPkgs are module packages exempt from the wallclock and
// maporder rules: observability and offline tooling legitimately read the
// wall clock. Everything else in the module, this analyzer and its fixtures
// under testdata included, is pipeline code whose results must be a pure
// function of (inputs, options, seed).
var nondeterministicPkgs = []string{
	"internal/obs",     // span durations and event timestamps are its whole job
	"internal/metric",  // registry substrate under obs (snapshot formatting sorts its output)
	"internal/obsdiff", // offline report diffing
	"cmd/",             // command mains time and report their own runs
	"scripts/",
}

func deterministic(pkgPath, modPath string) bool {
	rel, ok := strings.CutPrefix(pkgPath, modPath+"/")
	if !ok {
		return pkgPath == modPath // the root package is pipeline code
	}
	for _, p := range nondeterministicPkgs {
		if rel == strings.TrimSuffix(p, "/") || strings.HasPrefix(rel, p) {
			return false
		}
	}
	return true
}

// Analyze loads every directory and runs every rule on each package,
// returning normalized (deduplicated, position-sorted) diagnostics whose
// file paths are relative to the module root. The returned error reports a
// load or type-check failure, which is distinct from findings: a package
// that does not compile cannot be certified.
func Analyze(dirs []string) ([]Diagnostic, error) {
	l, pkgs, err := loadAll(dirs)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, p := range pkgs {
		r := &runner{l: l, p: p}
		if deterministic(p.Path, l.ModPath) {
			r.wallclock()
			r.maporder()
		}
		if p.Path != l.ModPath+"/internal/circuit" {
			r.nodemut()
		}
		diags = append(diags, r.diags...)
	}
	return Normalize(diags), nil
}

// runner accumulates one package's diagnostics.
type runner struct {
	l     *Loader
	p     *Package
	diags []Diagnostic
}

func (r *runner) report(pos token.Pos, rule, format string, args ...any) {
	position := r.p.Fset.Position(pos)
	file, err := filepath.Rel(r.l.Root, position.Filename)
	if err != nil {
		file = position.Filename
	}
	r.diags = append(r.diags, Diagnostic{
		File: filepath.ToSlash(file),
		Line: position.Line,
		Col:  position.Column,
		Rule: rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// Normalize sorts diagnostics by (file, line, col, rule, message) and drops
// exact duplicates, making the output byte-stable across runs.
func Normalize(ds []Diagnostic) []Diagnostic {
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].File != ds[j].File {
			return ds[i].File < ds[j].File
		}
		if ds[i].Line != ds[j].Line {
			return ds[i].Line < ds[j].Line
		}
		if ds[i].Col != ds[j].Col {
			return ds[i].Col < ds[j].Col
		}
		if ds[i].Rule != ds[j].Rule {
			return ds[i].Rule < ds[j].Rule
		}
		return ds[i].Msg < ds[j].Msg
	})
	out := ds[:0]
	for i, d := range ds {
		if i > 0 && d == out[len(out)-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// FormatText renders diagnostics one per line.
func FormatText(ds []Diagnostic) string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}
