// External tests for the live half of the observability substrate: the
// Flags.Start/Finish lifecycle with -listen, -events and -metrics-out all
// enabled, Prometheus exposition conformance of /metrics, the /progress
// snapshot under a live span, and NDJSON well-formedness of the event
// stream. The package is obs_test so it can import obs/telemetry (obs
// itself cannot — that would be an import cycle).
package obs_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"compsynth/internal/obs"
	_ "compsynth/internal/obs/telemetry" // installs the -listen server
)

func get(t *testing.T, url string) (string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body), resp.Header
}

// TestLiveTelemetryRoundTrip drives the full Start/Finish lifecycle with
// every live facility on: a telemetry server on an ephemeral port, a flight
// recorder with a fast heartbeat, and a JSON report, then checks each
// artifact.
func TestLiveTelemetryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	eventsPath := filepath.Join(dir, "events.ndjson")
	reportPath := filepath.Join(dir, "report.json")
	f := &obs.Flags{
		Workers:    1,
		MetricsOut: reportPath,
		Listen:     "127.0.0.1:0",
		Events:     eventsPath,
		Heartbeat:  5 * time.Millisecond,
	}
	run := f.Start("clitest")
	if run.Server() == nil {
		t.Fatal("run.Server() = nil with -listen set")
	}
	base := "http://" + run.Server().Addr()

	// Feed the registry so /metrics has something from every family.
	obs.C("clitest.hits").Add(3)
	obs.G("clitest.pass").Set(2)
	lat := obs.H("clitest.latency_ms")
	for _, v := range []float64{0.5, 2, 30, 2e6} {
		lat.Observe(v)
	}

	if body, _ := get(t, base+"/healthz"); body != "ok\n" {
		t.Errorf("/healthz = %q, want ok", body)
	}

	// /progress while a span is open must show it with a live duration.
	sp := run.Tracer.StartSpan("clitest.phase")
	obs.EmitProgress("clitest.stage", 1, 2)
	body, hdr := get(t, base+"/progress")
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/progress Content-Type = %q", ct)
	}
	var prog struct {
		Tool     string           `json:"tool"`
		Counters map[string]int64 `json:"counters"`
		Spans    []obs.SpanJSON   `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &prog); err != nil {
		t.Fatalf("/progress is not JSON: %v\n%s", err, body)
	}
	if prog.Tool != "clitest" {
		t.Errorf("/progress tool = %q, want clitest", prog.Tool)
	}
	if prog.Counters["clitest.hits"] != 3 {
		t.Errorf("/progress counters[clitest.hits] = %d, want 3", prog.Counters["clitest.hits"])
	}
	root := findSpan(prog.Spans, "clitest")
	if root == nil {
		t.Fatalf("/progress has no root span clitest: %+v", prog.Spans)
	}
	open := findSpan(root.Children, "clitest.phase")
	if open == nil {
		t.Fatalf("open span clitest.phase missing from /progress: %+v", root.Children)
	}

	promBody, promHdr := get(t, base+"/metrics")
	if ct := promHdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q, want exposition format 0.0.4", ct)
	}
	checkExposition(t, promBody)

	if body, _ := get(t, base+"/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline empty")
	}

	// Let a few heartbeats land, then finish the run.
	time.Sleep(30 * time.Millisecond)
	obs.EmitProgress("clitest.stage", 2, 2)
	sp.End()
	if err := run.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("telemetry server still serving after Finish")
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

	// The event stream: every line one JSON object, all lifecycle event
	// types present, progress carrying the stage we emitted.
	types := map[string]int{}
	var progEv []obs.Event
	for i, line := range strings.Split(strings.TrimRight(readFile(t, eventsPath), "\n"), "\n") {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("events line %d is not JSON: %v\n%s", i+1, err, line)
		}
		types[ev.Type]++
		if ev.Type == "progress" {
			progEv = append(progEv, ev)
		}
	}
	for _, want := range []string{"run_start", "span_begin", "span_end", "progress", "heartbeat", "run_end"} {
		if types[want] == 0 {
			t.Errorf("event stream has no %s events (got %v)", want, types)
		}
	}
	found := false
	for _, ev := range progEv {
		if ev.Stage == "clitest.stage" && ev.Done == 2 && ev.Total == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("completion progress event missing: %+v", progEv)
	}
}

func findSpan(spans []obs.SpanJSON, name string) *obs.SpanJSON {
	for i := range spans {
		if spans[i].Name == name {
			return &spans[i]
		}
	}
	return nil
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

var promNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// checkExposition asserts body is valid Prometheus text exposition format
// 0.0.4: TYPE comments with known types, sample lines whose names are valid
// and whose values parse, histogram buckets cumulative with the +Inf bucket
// equal to _count.
func checkExposition(t *testing.T, body string) {
	t.Helper()
	typed := map[string]string{}
	buckets := map[string][]float64{} // histogram name -> bucket counts in order
	counts := map[string]float64{}    // histogram name -> _count value
	for i, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fld := strings.Fields(line)
			if len(fld) != 4 || !promNameRe.MatchString(fld[2]) ||
				(fld[3] != "counter" && fld[3] != "gauge" && fld[3] != "histogram") {
				t.Fatalf("bad TYPE line %d: %q", i+1, line)
			}
			typed[fld[2]] = fld[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("bad sample line %d: %q", i+1, line)
		}
		name, val := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("line %d: value %q does not parse: %v", i+1, val, err)
		}
		var le string
		if br := strings.IndexByte(name, '{'); br >= 0 {
			labels := name[br:]
			name = name[:br]
			m := regexp.MustCompile(`^\{le="([^"]+)"\}$`).FindStringSubmatch(labels)
			if m == nil {
				t.Fatalf("line %d: unexpected labels %q", i+1, labels)
			}
			le = m[1]
		}
		if !promNameRe.MatchString(name) {
			t.Fatalf("line %d: invalid metric name %q", i+1, name)
		}
		switch {
		case strings.HasSuffix(name, "_bucket") && le != "":
			h := strings.TrimSuffix(name, "_bucket")
			buckets[h] = append(buckets[h], v)
		case strings.HasSuffix(name, "_count"):
			counts[strings.TrimSuffix(name, "_count")] = v
		}
	}
	if len(typed) == 0 {
		t.Fatal("no TYPE lines in exposition")
	}
	if typed["clitest_hits"] != "counter" || typed["clitest_pass"] != "gauge" ||
		typed["clitest_latency_ms"] != "histogram" {
		t.Errorf("family types = %v, want clitest_hits/pass/latency_ms typed", typed)
	}
	for h, bs := range buckets {
		for i := 1; i < len(bs); i++ {
			if bs[i] < bs[i-1] {
				t.Errorf("%s buckets not cumulative: %v", h, bs)
				break
			}
		}
		// The last bucket WriteProm emits is +Inf, which must equal _count.
		if c, ok := counts[h]; !ok || bs[len(bs)-1] != c {
			t.Errorf("%s +Inf bucket = %v, want _count %v", h, bs[len(bs)-1], c)
		}
	}
	if len(buckets["clitest_latency_ms"]) == 0 {
		t.Error("clitest_latency_ms has no buckets")
	}
}

// TestMetricsEndpointMatchesSnapshot pins that /metrics is rendered from the
// same registry the run report snapshots.
func TestMetricsEndpointMatchesSnapshot(t *testing.T) {
	f := &obs.Flags{Workers: 1, Listen: "127.0.0.1:0"}
	run := f.Start("clitest2")
	defer run.Finish()
	c := obs.C("clitest2.events")
	c.Add(41)
	body, _ := get(t, "http://"+run.Server().Addr()+"/metrics")
	want := fmt.Sprintf("clitest2_events %d\n", c.Value())
	if !strings.Contains(body, want) {
		t.Errorf("/metrics missing %q", want)
	}
}
