package metric

import "testing"

func TestHistogramPercentiles(t *testing.T) {
	m := NewMetrics()
	h := m.Histogram("lat")
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	s := m.Snapshot().Histograms["lat"]
	if s.Count != 100 || s.Min != 1 || s.Max != 100 || s.Mean != 50.5 {
		t.Errorf("stats = %+v, want count=100 min=1 max=100 mean=50.5", s)
	}
	// Nearest rank: the smallest value with at least p% of the mass at or
	// below it; the ends of the range give the extremes.
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		name      string
		got, want float64
	}{
		{"p0", percentileSorted(sorted, 0), 1},
		{"P50", s.P50, 50},
		{"P90", s.P90, 90},
		{"P99", s.P99, 99},
		{"p100", percentileSorted(sorted, 100), 100},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

func TestHistogramSampleCap(t *testing.T) {
	h := &Histogram{maxSamples: 4}
	for v := 1; v <= 10; v++ {
		h.Observe(float64(v))
	}
	// Summaries stay exact past the sample cap.
	if s := h.stats(); s.Count != 10 || s.Max != 10 || s.Sum != 55 {
		t.Errorf("stats = %+v, want count=10 max=10 sum=55", s)
	}
}

func TestSnapshotDiff(t *testing.T) {
	m := NewMetrics()
	c := m.Counter("hits")
	m.Counter("idle") // never incremented: must not appear in the diff
	m.Histogram("empty")
	c.Add(3)
	base := m.Snapshot()
	c.Add(4)
	m.Histogram("seen").Observe(1)
	d := m.Snapshot().Diff(base)
	if got := d.Counters["hits"]; got != 4 {
		t.Errorf("diff hits = %d, want 4", got)
	}
	if _, ok := d.Counters["idle"]; ok {
		t.Error("zero-delta counter survived Diff")
	}
	if _, ok := d.Histograms["empty"]; ok {
		t.Error("empty histogram survived Diff")
	}
	if _, ok := d.Histograms["seen"]; !ok {
		t.Error("observed histogram dropped by Diff")
	}
}
