package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"compsynth/internal/exper"
)

// configFrom parses args as the command line would and builds the config.
func configFrom(t *testing.T, args ...string) (exper.Config, error) {
	t.Helper()
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := addFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return o.config(fs)
}

// TestConfigAppliesEverySetFlag pins that a flag the user sets wins over
// the -quick defaults even when its value equals the full-scale default,
// and that an unset flag leaves the -quick value alone.
func TestConfigAppliesEverySetFlag(t *testing.T) {
	quick, full := exper.QuickConfig(), exper.DefaultConfig()
	for _, tc := range []struct {
		args            []string
		scale           float64
		patterns, pairs int
	}{
		{[]string{"-quick"}, quick.Scale, quick.StuckPatterns, quick.PDFPairs},
		{[]string{"-quick", "-scale", "1"}, 1, quick.StuckPatterns, quick.PDFPairs},
		{[]string{"-quick", "-patterns", "1048576"}, quick.Scale, 1 << 20, quick.PDFPairs},
		{[]string{"-quick", "-pairs", "20000"}, quick.Scale, quick.StuckPatterns, 20000},
		{[]string{"-scale", "0.3", "-patterns", "64", "-pairs", "1"}, 0.3, 64, 1},
		{nil, full.Scale, full.StuckPatterns, full.PDFPairs},
	} {
		cfg, err := configFrom(t, tc.args...)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if cfg.Scale != tc.scale || cfg.StuckPatterns != tc.patterns || cfg.PDFPairs != tc.pairs {
			t.Errorf("%v: scale %v, patterns %d, pairs %d; want %v, %d, %d",
				tc.args, cfg.Scale, cfg.StuckPatterns, cfg.PDFPairs, tc.scale, tc.patterns, tc.pairs)
		}
	}
}

// TestConfigRejectsBadValues pins the values that fail before suite
// preparation, each with a message naming its flag.
func TestConfigRejectsBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-table", "23"}, {"-table", "1"}, {"-table", "8"}, {"-table", "2,3"}, {"-table", ""},
		{"-quick", "-pairs", "0"}, {"-pairs", "-5"},
		{"-quick", "-patterns", "0"},
		{"-quick", "-scale", "0"}, {"-scale", "-1"}, {"-scale", "NaN"}, {"-scale", "+Inf"},
		{"-quick", "-table", "6", "-circuits", "nothere"}, {"-circuits", "rs1423,nothere"},
	} {
		_, err := configFrom(t, args...)
		if err == nil {
			t.Errorf("%v: accepted", args)
			continue
		}
		if flagName := args[len(args)-2]; !strings.HasPrefix(err.Error(), flagName+" ") {
			t.Errorf("%v: error %q does not name %s", args, err, flagName)
		}
	}
	for _, table := range []string{"all", "2", "7"} {
		if _, err := configFrom(t, "-table", table); err != nil {
			t.Errorf("-table %s: %v", table, err)
		}
	}
	if _, err := configFrom(t, "-quick", "-circuits", "rs1423,rs13207"); err != nil {
		t.Errorf("-circuits rs1423,rs13207: %v", err)
	}
}
