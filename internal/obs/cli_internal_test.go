package obs

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestStartTelemetryNotLinked pins the error a command gets when -listen is
// given but the telemetry package was not blank-imported. The test binary
// does link it (the external tests import it), so the registered starter is
// saved and restored around the check; tests in one package run
// sequentially, so the swap is race-free.
func TestStartTelemetryNotLinked(t *testing.T) {
	saved := telemetryStart
	telemetryStart = nil
	defer func() { telemetryStart = saved }()
	f := &Flags{Workers: 1, Listen: "127.0.0.1:0"}
	if _, err := f.start("x"); err == nil || !strings.Contains(err.Error(), "not linked in") {
		t.Fatalf("start with unlinked telemetry: err = %v, want 'not linked in'", err)
	}
}

// TestStartEventsOpenError pins that an -events file that cannot be created
// fails Start (the shell wrapper reports it and exits 2) instead of running
// without the requested artifact.
func TestStartEventsOpenError(t *testing.T) {
	f := &Flags{Workers: 1, Events: filepath.Join(t.TempDir(), "no-such-dir", "ev.ndjson")}
	if _, err := f.start("x"); err == nil || !strings.Contains(err.Error(), "-events") {
		t.Fatalf("start with uncreatable events file: err = %v, want '-events' error", err)
	}
}

// TestStartBadListenAddr exercises the real telemetry starter's bind-failure
// path through start (the external tests link the server in).
func TestStartBadListenAddr(t *testing.T) {
	if telemetryStart == nil {
		t.Skip("telemetry not linked")
	}
	f := &Flags{Workers: 1, Listen: "127.0.0.1:notaport"}
	if _, err := f.start("x"); err == nil || !strings.Contains(err.Error(), "-listen") {
		t.Fatalf("start with bad listen addr: err = %v, want '-listen' error", err)
	}
}

// TestStartRejectsWorkersBelowOne pins that -workers 0 or a negative count
// fails Start (exit 2, naming the flag) instead of silently running with
// GOMAXPROCS workers.
func TestStartRejectsWorkersBelowOne(t *testing.T) {
	for _, w := range []int{0, -3} {
		f := &Flags{Workers: w}
		if _, err := f.start("x"); err == nil || !strings.Contains(err.Error(), "-workers") {
			t.Fatalf("start with -workers %d: err = %v, want '-workers' error", w, err)
		}
	}
}

// TestHistogramBuckets pins the cumulative-bucket computation on the
// snapshot: counts are nondecreasing over DefaultBucketBounds, and values
// past the last bound appear only in the implicit +Inf bucket (== Count).
func TestHistogramBuckets(t *testing.T) {
	m := NewMetrics()
	h := m.Histogram("b")
	for _, v := range []float64{0.5, 1, 2, 30, 2e6} {
		h.Observe(v)
	}
	s := m.Snapshot().Histograms["b"]
	if len(s.Buckets) != len(DefaultBucketBounds) {
		t.Fatalf("got %d buckets, want %d", len(s.Buckets), len(DefaultBucketBounds))
	}
	want := map[float64]int64{1: 2, 2.5: 3, 25: 3, 50: 4, 1e6: 4}
	for i, b := range s.Buckets {
		if b.LE != DefaultBucketBounds[i] {
			t.Errorf("bucket %d LE = %v, want %v", i, b.LE, DefaultBucketBounds[i])
		}
		if i > 0 && b.Count < s.Buckets[i-1].Count {
			t.Errorf("bucket counts not cumulative at %v: %v < %v", b.LE, b.Count, s.Buckets[i-1].Count)
		}
		if w, ok := want[b.LE]; ok && b.Count != w {
			t.Errorf("bucket le=%v count = %d, want %d", b.LE, b.Count, w)
		}
	}
	// 2e6 lies beyond the last bound: only Count (the implicit +Inf bucket)
	// sees it.
	if last := s.Buckets[len(s.Buckets)-1]; last.Count != 4 || s.Count != 5 {
		t.Errorf("last bucket %v / count %d, want 4 / 5", last, s.Count)
	}
}

// TestHistogramSnapshotDiff pins that a histogram observed before the base
// snapshot still appears (with its full stats) in the diff — histograms are
// carried by the later snapshot, not subtracted.
func TestHistogramSnapshotDiff(t *testing.T) {
	m := NewMetrics()
	h := m.Histogram("lat")
	h.Observe(10)
	base := m.Snapshot()
	h.Observe(30)
	d := m.Snapshot().Diff(base)
	hs, ok := d.Histograms["lat"]
	if !ok {
		t.Fatal("observed histogram missing from diff")
	}
	if hs.Count != 2 || hs.Sum != 40 || hs.Max != 30 {
		t.Errorf("diff histogram = %+v, want count=2 sum=40 max=30", hs)
	}
	if len(hs.Buckets) == 0 {
		t.Error("diff histogram lost its buckets")
	}
}
