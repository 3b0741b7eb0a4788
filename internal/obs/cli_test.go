// External tests for the run lifecycle: Flags.Start/Finish with -events and
// -metrics-out both enabled, and NDJSON well-formedness of the event stream.
package obs_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"compsynth/internal/metric"
	"compsynth/internal/obs"
)

// mHits is registered the way pipeline packages register their counters:
// at package initialization, under this package's name.
var mHits = metric.C("obs.clitest_hits")

// TestEventsReportRoundTrip drives the full Start/Finish lifecycle with the
// flight recorder and the JSON report on, then checks both artifacts: the
// report is written, every event line parses, and the stream holds exactly
// the run and span lifecycle events — no timed event type rides it.
func TestEventsReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	eventsPath := filepath.Join(dir, "events.ndjson")
	reportPath := filepath.Join(dir, "report.json")
	f := &obs.Flags{Workers: 1, MetricsOut: reportPath, Events: eventsPath}
	run := f.Start("clitest")
	sp := run.Tracer.StartSpan("clitest.phase")
	mHits.Add(3)
	sp.End()
	if err := run.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}

	// The report artifact.
	raw, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var rep obs.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if rep.Tool != "clitest" || rep.Error != "" {
		t.Errorf("report tool=%q error=%q, want clitest/empty", rep.Tool, rep.Error)
	}
	if got := rep.Metrics.Counters["obs.clitest_hits"]; got != 3 {
		t.Errorf("report counters[obs.clitest_hits] = %d, want 3", got)
	}

	// The event stream: every line one JSON object, and the event types
	// exactly the run and span lifecycle.
	types := map[string]int{}
	for i, line := range strings.Split(strings.TrimRight(readFile(t, eventsPath), "\n"), "\n") {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("events line %d is not JSON: %v\n%s", i+1, err, line)
		}
		types[ev.Type]++
	}
	want := map[string]int{"run_start": 1, "span_begin": 2, "span_end": 2, "run_end": 1}
	if !reflect.DeepEqual(types, want) {
		t.Errorf("event types = %v, want %v", types, want)
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}
