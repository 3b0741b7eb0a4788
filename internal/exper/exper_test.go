package exper

import (
	"strings"
	"testing"
)

// tinyConfig keeps the full pipeline affordable inside `go test`.
func tinyConfig() Config {
	cfg := QuickConfig()
	cfg.Scale = 0.08
	cfg.StuckPatterns = 1 << 12
	cfg.PDFPairs = 800
	cfg.PDFQuiet = 200
	cfg.Circuits = []string{"rs1423", "rs13207"}
	cfg.Ks = []int{5}
	return cfg
}

func TestPipelineTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test in -short mode")
	}
	cfg := tinyConfig()
	items, err := PrepareSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Fatalf("filter broken: %d circuits", len(items))
	}
	suite := NewSuite(cfg, items)

	rows2, err := Table2(suite)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows2 {
		if r.GatesMod > r.GatesOrig {
			t.Fatalf("%s: Procedure 2 increased gates", r.Name)
		}
		if r.PathsMod > r.PathsOrig {
			t.Fatalf("%s: Procedure 2 increased paths", r.Name)
		}
	}
	out := FormatTable2(rows2)
	if !strings.Contains(out, "rs1423") {
		t.Fatal("format missing circuit name")
	}

	rows5, err := Table5(suite)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows5 {
		if r.PathsMod > r.PathsOrig {
			t.Fatalf("%s: Procedure 3 increased paths", r.Name)
		}
		// Table 5 vs Table 2: Procedure 3 is at least as good on paths.
		if r.PathsMod > rows2[i].PathsMod {
			t.Fatalf("%s: Procedure 3 (%d) worse on paths than Procedure 2 (%d)",
				r.Name, r.PathsMod, rows2[i].PathsMod)
		}
	}

	rows6, err := Table6(suite)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows6 {
		if r.FaultsMod > r.FaultsOrig {
			t.Fatalf("%s: fault universe grew", r.Name)
		}
	}

	rows3, err := Table3(suite)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows3 {
		if r.GatesRambo > r.GatesOrig {
			t.Fatalf("%s: baseline increased gates", r.Name)
		}
		if r.GatesCombo > uint64(r.GatesRambo) {
			t.Fatalf("%s: Proc.2 after baseline increased gates", r.Name)
		}
	}
	if out := FormatTable3(rows3); !strings.Contains(out, "rs13207") {
		t.Fatal("table 3 format missing circuit")
	}

	pa, pb, err := Table4(suite)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pa {
		if pa[i].LitsA <= 0 || pa[i].LitsB <= 0 || pb[i].LitsA <= 0 {
			t.Fatal("degenerate mapping in table 4")
		}
	}
	if out := FormatTable4(pa, pb); !strings.Contains(out, "Technology mapping") {
		t.Fatal("table 4 format broken")
	}

	rows7, err := Table7(suite)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows7) != 2 {
		t.Fatalf("table 7 rows = %d, want 2 versions", len(rows7))
	}
	for _, r := range rows7 {
		if r.FaultsMod > r.FaultsOrig {
			t.Fatalf("%s: path delay faults increased", r.Version)
		}
		if uint64(r.DetOrig) > r.FaultsOrig || uint64(r.DetMod) > r.FaultsMod {
			t.Fatalf("%s: detected exceeds total", r.Version)
		}
	}
}

// TestPrepareSuiteRejectsUnknownCircuit pins that a circuit name outside
// the suite fails preparation before any circuit is built, naming it,
// instead of silently dropping that row.
func TestPrepareSuiteRejectsUnknownCircuit(t *testing.T) {
	cfg := tinyConfig()
	cfg.Circuits = []string{"rs1423", "nothere"}
	before := mPrepared.Value()
	_, err := PrepareSuite(cfg)
	if err == nil || !strings.Contains(err.Error(), `not in the suite: "nothere" (`) {
		t.Fatalf("PrepareSuite(rs1423,nothere) err = %v, want one naming only nothere", err)
	}
	if got := mPrepared.Value() - before; got != 0 {
		t.Fatalf("failed preparation built %d circuits, want 0", got)
	}
	cfg.Circuits = []string{"rs1423"}
	items, err := PrepareSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].Name != "rs1423" {
		t.Fatalf("PrepareSuite(rs1423) prepared %d circuits, want rs1423 alone", len(items))
	}
}

func TestComma(t *testing.T) {
	cases := map[uint64]string{
		0:        "0",
		999:      "999",
		1000:     "1,000",
		23003369: "23,003,369",
	}
	for n, want := range cases {
		if got := Comma(n); got != want {
			t.Errorf("Comma(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	d := DefaultConfig()
	if d.Scale != 1.0 || len(d.Ks) != 2 || !d.MakeIrredundant {
		t.Fatalf("unexpected defaults: %+v", d)
	}
	q := QuickConfig()
	if q.Scale >= d.Scale || q.StuckPatterns >= d.StuckPatterns {
		t.Fatal("quick config not smaller")
	}
}
