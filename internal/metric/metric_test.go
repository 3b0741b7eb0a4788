package metric

import "testing"

func TestHistogramPercentiles(t *testing.T) {
	m := NewMetrics()
	h := m.Histogram("lat")
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {50, 50}, {90, 90}, {99, 99}, {100, 100},
	} {
		if got := h.Percentile(tc.p); got != tc.want {
			t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	s := m.Snapshot().Histograms["lat"]
	if s.Count != 100 || s.Min != 1 || s.Max != 100 || s.Mean != 50.5 {
		t.Errorf("stats = %+v, want count=100 min=1 max=100 mean=50.5", s)
	}
}

func TestHistogramSampleCap(t *testing.T) {
	h := &Histogram{maxSamples: 4}
	for v := 1; v <= 10; v++ {
		h.Observe(float64(v))
	}
	// Summaries stay exact past the sample cap.
	if got := h.Count(); got != 10 {
		t.Errorf("Count() = %d, want 10", got)
	}
	if s := h.stats(); s.Max != 10 || s.Sum != 55 {
		t.Errorf("stats = %+v, want max=10 sum=55", s)
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
