package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"compsynth/internal/metric"
)

func TestSpanNesting(t *testing.T) {
	tr := NewTracer()
	tr.TrackAllocs = false
	root := tr.StartSpan("root")
	a := tr.StartSpan("a")
	a.SetInt("n", 7)
	a.End()
	b := tr.StartSpan("b")
	c := tr.StartSpan("c")
	c.End()
	b.End()
	root.End()

	spans := tr.Export()
	if len(spans) != 1 || spans[0].Name != "root" {
		t.Fatalf("want single root span, got %+v", spans)
	}
	kids := spans[0].Children
	if len(kids) != 2 || kids[0].Name != "a" || kids[1].Name != "b" {
		t.Fatalf("root children = %+v, want [a b]", kids)
	}
	if got := kids[0].Attrs["n"]; got != int64(7) {
		t.Errorf("a.Attrs[n] = %v (%T), want 7", got, got)
	}
	if len(kids[1].Children) != 1 || kids[1].Children[0].Name != "c" {
		t.Errorf("b children = %+v, want [c]", kids[1].Children)
	}
}

func TestSpanEndOutOfOrder(t *testing.T) {
	tr := NewTracer()
	tr.TrackAllocs = false
	a := tr.StartSpan("a")
	b := tr.StartSpan("b")
	// Ending the parent with b still open must pop the cursor past b, so the
	// next span is a sibling of a, not a child of the abandoned b.
	a.End()
	sib := tr.StartSpan("sib")
	sib.End()
	b.End() // late; harmless
	b.End() // double End; harmless

	spans := tr.Export()
	if len(spans) != 2 || spans[0].Name != "a" || spans[1].Name != "sib" {
		t.Fatalf("roots = %+v, want [a sib]", spans)
	}
	if len(spans[0].Children) != 1 || spans[0].Children[0].Name != "b" {
		t.Errorf("a children = %+v, want [b]", spans[0].Children)
	}
}

func TestSpanCap(t *testing.T) {
	tr := NewTracer()
	tr.TrackAllocs = false
	tr.MaxSpans = 2
	a := tr.StartSpan("a")
	tr.StartSpan("b").End()
	if s := tr.StartSpan("over"); s != nil {
		t.Fatalf("span past cap = %+v, want nil", s)
	}
	a.End()
	if got := tr.Dropped(); got != 1 {
		t.Errorf("Dropped() = %d, want 1", got)
	}
	if got := len(tr.Export()); got != 1 {
		t.Errorf("len(Export()) = %d, want 1 root", got)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	m := metric.NewMetrics()
	m.Counter("resynth.passes").Add(2)
	m.Histogram("cand").Observe(3)
	tr := NewTracer()
	tr.TrackAllocs = false
	sp := tr.StartSpan("root")
	tr.StartSpan("child").End()
	sp.End()

	r := &Report{
		Tool:          "test",
		Args:          []string{"-k", "5"},
		Start:         time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC),
		DurationMS:    12.5,
		Env:           Environment(),
		CircuitBefore: &CircuitInfo{Name: "c17", Inputs: 5, Outputs: 2, Gates: 6, Paths: 11},
		Spans:         tr.Export(),
		Metrics:       m.Snapshot(),
	}
	r.AddResult("answer", 42.0)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Tool != r.Tool || back.DurationMS != r.DurationMS || !back.Start.Equal(r.Start) {
		t.Errorf("header fields changed: %+v", back)
	}
	if !reflect.DeepEqual(back.Args, r.Args) {
		t.Errorf("args = %v, want %v", back.Args, r.Args)
	}
	if !reflect.DeepEqual(back.CircuitBefore, r.CircuitBefore) {
		t.Errorf("circuit_before = %+v, want %+v", back.CircuitBefore, r.CircuitBefore)
	}
	if got := back.Metrics.Counters["resynth.passes"]; got != 2 {
		t.Errorf("metrics counter = %d, want 2", got)
	}
	if len(back.Spans) != 1 || back.Spans[0].Name != "root" ||
		len(back.Spans[0].Children) != 1 || back.Spans[0].Children[0].Name != "child" {
		t.Errorf("span tree lost: %+v", back.Spans)
	}
	if got := back.Results["answer"]; got != 42.0 {
		t.Errorf("results[answer] = %v, want 42", got)
	}
}

// TestNilNoopZeroAlloc pins the contract that makes unconditional
// instrumentation safe in hot loops: the whole nil chain must not allocate.
func TestNilNoopZeroAlloc(t *testing.T) {
	var tr *Tracer
	if n := testing.AllocsPerRun(100, func() {
		sp := tr.StartSpan("hot")
		sp.SetInt("i", 1)
		sp.SetStr("s", "x")
		sp.End()
	}); n != 0 {
		t.Errorf("nil tracer span chain allocates %v per run, want 0", n)
	}
	var c *metric.Counter
	var h *metric.Histogram
	var lg *Logger
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		h.Observe(1)
		lg.Verbosef("skipped %d", 1)
	}); n != 0 {
		t.Errorf("nil instruments allocate %v per run, want 0", n)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if sp := tr.StartSpan("x"); sp != nil {
		t.Fatal("nil tracer returned a live span")
	}
	if got := tr.Export(); got != nil {
		t.Errorf("nil Export = %v, want nil", got)
	}
	if got := tr.Dropped(); got != 0 {
		t.Errorf("nil Dropped = %d, want 0", got)
	}
}

func TestLoggerRouting(t *testing.T) {
	var out, errw bytes.Buffer
	lg := NewLogger(&out, &errw, false)
	lg.Printf("result %d", 1)
	lg.Verbosef("hidden")
	if out.String() != "result 1\n" {
		t.Errorf("out = %q", out.String())
	}
	if errw.Len() != 0 {
		t.Errorf("non-verbose logger wrote progress: %q", errw.String())
	}
	lg = NewLogger(&out, &errw, true)
	lg.Verbosef("shown")
	if !bytes.Contains(errw.Bytes(), []byte("shown")) {
		t.Errorf("verbose progress missing: %q", errw.String())
	}
}

// allocSink keeps the span test's allocations reachable.
var allocSink [][]byte

// TestSpanAllocExact pins per-span allocation accounting. A span reads
// runtime.ReadMemStats at start and end, which flushes every mcache first,
// so it is charged its own allocations and none made before it opened. The
// runtime/metrics counter /gc/heap/allocs:bytes is not flushed that way: it
// credits small allocations when their span leaves an mcache, and read
// around an empty region right after a busy one it charged 60-67 KB.
func TestSpanAllocExact(t *testing.T) {
	tr := NewTracer()
	span := func(name string, n int) {
		allocSink = make([][]byte, n)
		sp := tr.StartSpan(name)
		for i := range allocSink {
			allocSink[i] = make([]byte, 48)
		}
		sp.End()
	}
	span("busy", 1000)
	span("empty", 0)
	span("ten", 10)
	got := map[string]int64{}
	for _, s := range tr.Export() {
		got[s.Name] = s.AllocBytes
	}
	if got["busy"] < 48000 || got["empty"] >= 1024 || got["ten"] < 480 {
		t.Fatalf("span allocations busy=%d empty=%d ten=%d, want >= 48000, < 1024, >= 480",
			got["busy"], got["empty"], got["ten"])
	}
}
