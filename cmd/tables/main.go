// Command tables regenerates the paper's experimental tables (Tables 2-7)
// on the synthetic benchmark suite.
//
// Usage:
//
//	tables [-table all|2|3|4|5|6|7] [-scale f] [-quick] [-seed n]
//	       [-patterns n] [-pairs n] [-circuits a,b,c] [-noverify] [-workers n]
//	       [-trace] [-metrics-out report.json] [-v] [-events file]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"compsynth/internal/exper"
	_ "compsynth/internal/ledger" // wires the -cert certifier
	"compsynth/internal/obs"
)

// options holds the command's own flags.
type options struct {
	table, circuits string
	scale           float64
	quick, noverify bool
	seed            int64
	patterns, pairs int
}

func addFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.table, "table", "all", "which table to regenerate (2..7 or all)")
	fs.Float64Var(&o.scale, "scale", 1.0, "suite size multiplier (above 0)")
	fs.BoolVar(&o.quick, "quick", false, "fast smoke-test configuration")
	fs.Int64Var(&o.seed, "seed", 1995, "campaign seed")
	fs.IntVar(&o.patterns, "patterns", 1<<20, "random patterns for Table 6 (at least 1)")
	fs.IntVar(&o.pairs, "pairs", 20000, "two-pattern budget for Table 7 (at least 1)")
	fs.StringVar(&o.circuits, "circuits", "", "comma-separated circuit filter")
	fs.BoolVar(&o.noverify, "noverify", false, "skip per-pass equivalence checks (faster)")
	return o
}

// config builds the experiment configuration from the full-scale or -quick
// defaults and every flag set on fs, and rejects a value no table can
// honour.
func (o *options) config(fs *flag.FlagSet) (exper.Config, error) {
	cfg := exper.DefaultConfig()
	if o.quick {
		cfg = exper.QuickConfig()
	}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "scale":
			cfg.Scale = o.scale
		case "patterns":
			cfg.StuckPatterns = o.patterns
		case "pairs":
			cfg.PDFPairs = o.pairs
		}
	})
	cfg.Seed = o.seed
	if o.circuits != "" {
		cfg.Circuits = strings.Split(o.circuits, ",")
	}
	cfg.Verify = !o.noverify
	switch {
	case o.table != "all" && (len(o.table) != 1 || !strings.Contains("234567", o.table)):
		return cfg, fmt.Errorf("-table %s: unknown table (want 2..7 or all)", o.table)
	case !(cfg.Scale > 0) || math.IsInf(cfg.Scale, 1):
		return cfg, fmt.Errorf("-scale %v: want a finite multiplier above 0", cfg.Scale)
	case cfg.StuckPatterns < 1:
		return cfg, fmt.Errorf("-patterns %d: want at least 1 pattern", cfg.StuckPatterns)
	case cfg.PDFPairs < 1:
		return cfg, fmt.Errorf("-pairs %d: want at least 1 pair", cfg.PDFPairs)
	}
	if err := exper.CheckCircuits(cfg); err != nil {
		return cfg, fmt.Errorf("-circuits %s: %v", o.circuits, err)
	}
	return cfg, nil
}

func main() {
	o := addFlags(flag.CommandLine)
	oflags := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	cfg, cfgErr := o.config(flag.CommandLine)
	cfg.Workers = oflags.Workers
	cfg.Check = oflags.Check

	orun := oflags.Start("tables")
	lg := orun.Log
	if cfgErr != nil {
		os.Exit(orun.Fail(cfgErr))
	}
	cfg.Tracer = orun.Tracer
	orun.SetCertOptions(struct {
		Table    string   `json:"table"`
		Scale    float64  `json:"scale"`
		Quick    bool     `json:"quick"`
		Seed     int64    `json:"seed"`
		Patterns int      `json:"patterns"`
		Pairs    int      `json:"pairs"`
		Circuits []string `json:"circuits,omitempty"`
		Verify   bool     `json:"verify"`
	}{o.table, cfg.Scale, o.quick, cfg.Seed, cfg.StuckPatterns, cfg.PDFPairs, cfg.Circuits, cfg.Verify})

	start := time.Now()
	lg.Printf("# preparing suite (scale=%.2f, irredundant=%v)", cfg.Scale, cfg.MakeIrredundant)
	psp := orun.Tracer.StartSpan("tables.prepare")
	items, err := exper.PrepareSuite(cfg)
	psp.End()
	if err != nil {
		os.Exit(orun.Fail(err))
	}
	suite := exper.NewSuite(cfg, items)
	for _, nc := range items {
		lg.Printf("#   %-10s %v", nc.Name, nc.Circuit.Stats())
	}
	lg.Printf("# suite ready in %v\n", time.Since(start).Round(time.Millisecond))

	want := func(t string) bool { return o.table == "all" || o.table == t }
	run := func(name string, f func() (string, error)) {
		if !want(name) {
			return
		}
		lg.Verbosef("table %s starting", name)
		t0 := time.Now()
		sp := orun.Tracer.StartSpan("tables.table" + name)
		out, err := f()
		sp.End()
		if err != nil {
			os.Exit(orun.Fail(fmt.Errorf("table %s: %v", name, err)))
		}
		fmt.Print(out)
		orun.Report.AddResult("table"+name, out)
		lg.Printf("# table %s in %v\n", name, time.Since(t0).Round(time.Millisecond))
	}

	run("2", func() (string, error) {
		rows, err := exper.Table2(suite)
		return exper.FormatTable2(rows), err
	})
	run("3", func() (string, error) {
		rows, err := exper.Table3(suite)
		return exper.FormatTable3(rows), err
	})
	run("4", func() (string, error) {
		a, b, err := exper.Table4(suite)
		return exper.FormatTable4(a, b), err
	})
	run("5", func() (string, error) {
		rows, err := exper.Table5(suite)
		return exper.FormatTable5(rows), err
	})
	run("6", func() (string, error) {
		rows, err := exper.Table6(suite)
		return exper.FormatTable6(rows), err
	})
	run("7", func() (string, error) {
		rows, err := exper.Table7(suite)
		return exper.FormatTable7(rows), err
	})
	lg.Printf("# total %v", time.Since(start).Round(time.Millisecond))
	if err := orun.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "tables: %v\n", err)
		os.Exit(1)
	}
}
