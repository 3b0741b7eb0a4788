package obs_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compsynth/internal/obs"
)

// TestInterruptFlushesArtifacts drives the SIGINT/SIGTERM path in-process:
// an interrupted run must still write the partial run report (carrying the
// interrupt as the run error), flush the -events stream through run_end, and
// report a non-zero exit status. The signal goroutine itself only forwards
// to Run.Interrupt, which is what this test calls.
func TestInterruptFlushesArtifacts(t *testing.T) {
	dir := t.TempDir()
	eventsPath := filepath.Join(dir, "ev.ndjson")
	reportPath := filepath.Join(dir, "report.json")
	f := &obs.Flags{Workers: 1, Events: eventsPath, MetricsOut: reportPath, Heartbeat: 0}
	run := f.Start("sigtest")

	// A live span and some progress, as if resynthesis were mid-pass.
	sp := run.Tracer.StartSpan("sigtest.pass")
	obs.EmitProgress("sigtest.stage", 1, 4)
	_ = sp // deliberately left open: the interrupt arrives mid-span

	status := run.Interrupt(os.Interrupt)
	if status == 0 {
		t.Fatal("Interrupt returned status 0, want non-zero")
	}

	raw, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatalf("partial report not written: %v", err)
	}
	var rep obs.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("partial report is not JSON: %v", err)
	}
	if !strings.Contains(rep.Error, "interrupt") {
		t.Errorf("report error = %q, want the interrupt recorded", rep.Error)
	}

	// The event stream must be flushed and terminated: a run_end event
	// carrying the interrupt error, after the recorded span/progress tail.
	evRaw, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatalf("event stream not written: %v", err)
	}
	var sawEnd, sawProgress bool
	for i, line := range strings.Split(strings.TrimRight(string(evRaw), "\n"), "\n") {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("events line %d is not JSON: %v", i+1, err)
		}
		switch ev.Type {
		case "run_end":
			sawEnd = true
			if !strings.Contains(ev.Error, "interrupt") {
				t.Errorf("run_end error = %q, want the interrupt recorded", ev.Error)
			}
		case "progress":
			sawProgress = true
		}
	}
	if !sawEnd {
		t.Error("event stream lost its run_end tail on interrupt")
	}
	if !sawProgress {
		t.Error("event stream lost the progress tail on interrupt")
	}
}

// TestDtraceFlagValidation pins the -dtrace flag contract: a bad mode and a
// mode without -events both fail Start, and a valid mode yields a live
// tracer whose records land on the event stream.
func TestDtraceFlagValidation(t *testing.T) {
	if run := startErr(t, &obs.Flags{Workers: 1, Dtrace: "verbose"}); run == "" {
		t.Error("start with -dtrace=verbose succeeded, want mode parse error")
	}
	if run := startErr(t, &obs.Flags{Workers: 1, Dtrace: "full"}); !strings.Contains(run, "-events") {
		t.Errorf("start with -dtrace=full and no -events: %q, want an -events requirement error", run)
	}

	dir := t.TempDir()
	f := &obs.Flags{Workers: 1, Events: filepath.Join(dir, "ev.ndjson"), Heartbeat: 0, Dtrace: "full"}
	run := f.Start("dtracetest")
	dt := run.Dtrace()
	if dt == nil {
		t.Fatal("Dtrace() is nil with -dtrace=full")
	}
	if err := run.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}

	// Off is the default and yields the nil (no-op) tracer.
	f2 := &obs.Flags{Workers: 1, Events: filepath.Join(dir, "ev2.ndjson"), Heartbeat: 0}
	run2 := f2.Start("dtracetest")
	if run2.Dtrace() != nil {
		t.Error("Dtrace() is non-nil without -dtrace")
	}
	run2.Finish()
}

// startErr runs Flags.Start's fallible half via a subprocess-free probe:
// Start exits the process on error, so this uses the fact that a failing
// facility must be reported before any artifact exists. It returns the error
// text, or "" when the start succeeded (and finishes the run).
func startErr(t *testing.T, f *obs.Flags) string {
	t.Helper()
	run, err := obs.StartForTest(f, "sigtest")
	if err != nil {
		return err.Error()
	}
	run.Finish()
	return ""
}
