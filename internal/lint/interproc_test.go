package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"compsynth/internal/lint"
)

// analyzeFixture runs the interprocedural rules over the named fixture
// packages and returns the diagnostics.
func analyzeFixture(t *testing.T, rules []string, pkgs ...string) []lint.Diagnostic {
	t.Helper()
	root := repoRoot(t)
	var dirs []string
	for _, p := range pkgs {
		dirs = append(dirs, filepath.Join(root, "internal/lint/testdata/src", p))
	}
	diags, err := lint.Analyze(dirs, lint.Config{
		DeterministicAll: true,
		RelativeTo:       root,
		Rules:            rules,
	})
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

func findRule(ds []lint.Diagnostic, rule, msgFragment string) *lint.Diagnostic {
	for i := range ds {
		if ds[i].Rule == rule && strings.Contains(ds[i].Msg, msgFragment) {
			return &ds[i]
		}
	}
	return nil
}

// TestPurityRunTask: a par.Run task writing captured state is flagged with a
// seam-anchored witness, while the task-indexed twin stays clean.
func TestPurityRunTask(t *testing.T) {
	diags := analyzeFixture(t, []string{"purity"}, "badpurity")
	d := findRule(diags, "purity", "write to captured badpurity.total")
	if d == nil {
		t.Fatalf("par.Run captured write not flagged; got:\n%s", lint.FormatText(diags))
	}
	if len(d.Witness) < 2 {
		t.Errorf("finding has no call-path witness: %v", d.Witness)
	}
	if !strings.HasPrefix(d.Witness[0], "seam ") {
		t.Errorf("witness does not start at the seam: %q", d.Witness[0])
	}
	if f := findRule(diags, "purity", "SumIndexed"); f != nil {
		t.Errorf("task-indexed writes must be clean, got: %s", f.Msg)
	}
}

// TestPurityMapErrTask: a par.MapErr task writing a global.
func TestPurityMapErrTask(t *testing.T) {
	diags := analyzeFixture(t, []string{"purity"}, "badpurity")
	d := findRule(diags, "purity", "write to global badpurity.calls")
	if d == nil {
		t.Fatalf("impure MapErr task not flagged; got:\n%s", lint.FormatText(diags))
	}
	if !strings.Contains(d.Msg, "par.MapErr task") {
		t.Errorf("seam label missing from message: %s", d.Msg)
	}
}

// TestWallclockTransitive: clock taint propagates through helper chains and
// function-typed variables; direct reads stay with the syntactic rule.
func TestWallclockTransitive(t *testing.T) {
	diags := analyzeFixture(t, []string{"wallclock"}, "badwallflow")
	stamp := findRule(diags, "wallclock", "badwallflow.Stamp")
	if stamp == nil {
		t.Fatalf("two-deep transitive clock leak not flagged; got:\n%s", lint.FormatText(diags))
	}
	joined := strings.Join(stamp.Witness, "\n")
	for _, hop := range []string{"badwallflow.ticks", "badwallflow.nowNanos", "time.Now"} {
		if !strings.Contains(joined, hop) {
			t.Errorf("witness chain missing %q:\n%s", hop, joined)
		}
	}
	if d := findRule(diags, "wallclock", "resolves to time.Now"); d == nil {
		t.Errorf("call through a clock-holding function variable not flagged; got:\n%s", lint.FormatText(diags))
	}
	// nowNanos carries the direct read: syntactic finding only, never doubled
	// by a transitive one.
	n := 0
	for _, d := range diags {
		if strings.Contains(d.Msg, "nowNanos") && strings.Contains(d.Msg, "through the call graph") {
			n++
		}
	}
	if n != 0 {
		t.Error("direct clock read was double-reported by the transitive rule")
	}
}

// TestSharedmut: unsynchronized captured/global writes from spawned
// goroutines are flagged; the mutex- and channel-disciplined twins pass.
func TestSharedmut(t *testing.T) {
	diags := analyzeFixture(t, []string{"sharedmut"}, "badsharedmut")
	if d := findRule(diags, "sharedmut", "write to captured badsharedmut.n"); d == nil {
		t.Fatalf("unsynchronized captured write not flagged; got:\n%s", lint.FormatText(diags))
	}
	if d := findRule(diags, "sharedmut", "badsharedmut.total"); d == nil {
		t.Errorf("spawned call mutating a global not flagged; got:\n%s", lint.FormatText(diags))
	}
	for _, clean := range []string{"Guarded", "Channeled"} {
		if d := findRule(diags, "sharedmut", clean); d != nil {
			t.Errorf("%s is synchronized and must not be flagged: %s", clean, d.Msg)
		}
	}
}

// TestInterprocIDsStable: interprocedural IDs hash the sink description,
// not positions, so the same finding keeps its ID across unrelated edits —
// the property the baseline depends on.
func TestInterprocIDsStable(t *testing.T) {
	a := analyzeFixture(t, []string{"purity"}, "badpurity")
	b := analyzeFixture(t, []string{"purity"}, "badpurity")
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("runs disagree: %d vs %d findings", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Errorf("ID not stable across runs: %s vs %s", a[i].ID, b[i].ID)
		}
		if a[i].ID == "" {
			t.Errorf("finding without ID: %s", a[i].Msg)
		}
	}
}
