// Command tables regenerates the paper's experimental tables (Tables 2-7)
// on the synthetic benchmark suite.
//
// Usage:
//
//	tables [-table all|2|3|4|5|6|7] [-scale f] [-quick] [-seed n]
//	       [-patterns n] [-pairs n] [-circuits a,b,c] [-noverify] [-workers n]
//	       [-trace] [-metrics-out report.json] [-v] [-listen addr] [-events file]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"compsynth/internal/exper"
	_ "compsynth/internal/ledger" // wires the -events ledger and -cert certifier
	"compsynth/internal/obs"
	_ "compsynth/internal/obs/telemetry" // wires the -listen telemetry server
)

func main() {
	var (
		table    = flag.String("table", "all", "which table to regenerate (2..7 or all)")
		scale    = flag.Float64("scale", 1.0, "suite size multiplier")
		quick    = flag.Bool("quick", false, "fast smoke-test configuration")
		seed     = flag.Int64("seed", 1995, "campaign seed")
		patterns = flag.Int("patterns", 1<<20, "random patterns for Table 6")
		pairs    = flag.Int("pairs", 20000, "two-pattern budget for Table 7")
		circuits = flag.String("circuits", "", "comma-separated circuit filter")
		noverify = flag.Bool("noverify", false, "skip per-pass equivalence checks (faster)")
	)
	oflags := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	cfg := exper.DefaultConfig()
	if *quick {
		cfg = exper.QuickConfig()
	}
	if *scale != 1.0 {
		cfg.Scale = *scale
	}
	cfg.Seed = *seed
	if *patterns != 1<<20 {
		cfg.StuckPatterns = *patterns
	}
	if *pairs != 20000 {
		cfg.PDFPairs = *pairs
	}
	if *circuits != "" {
		cfg.Circuits = strings.Split(*circuits, ",")
	}
	cfg.Verify = !*noverify
	cfg.Workers = oflags.Workers
	cfg.Check = oflags.Check

	orun := oflags.Start("tables")
	lg := orun.Log
	if *table != "all" && !strings.ContainsAny(*table, "234567") {
		os.Exit(orun.Fail(fmt.Errorf("-table %s: unknown table (want 2..7 or all)", *table)))
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
	}{*table, cfg.Scale, *quick, cfg.Seed, cfg.StuckPatterns, cfg.PDFPairs, cfg.Circuits, cfg.Verify})

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

	want := func(t string) bool { return *table == "all" || *table == t }
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
