package par

import (
	"testing"
	"time"

	"compsynth/internal/metric"
	"compsynth/internal/obs"
)

// TestQueueDepthGaugeDrains pins the queue-depth gauge contract: it may take
// any transient value while a fan-out is live, but it is exactly zero by the
// time Run returns — which is what lets it live in the Default registry
// without tripping the obsdiff determinism gates.
func TestQueueDepthGaugeDrains(t *testing.T) {
	g := obs.G("par.queue_depth")
	Run(nil, "t", 4, 64, func(_, _ int) {})
	if v := g.Value(); v != 0 {
		t.Fatalf("par.queue_depth = %d after Run returned, want 0", v)
	}
	// Serial path must not touch the gauge at all (it is a plain loop).
	g.Set(7)
	Run(nil, "t", 1, 8, func(_, _ int) {})
	if v := g.Value(); v != 7 {
		t.Fatalf("serial Run wrote the queue gauge: %d, want untouched 7", v)
	}
	g.Set(0)
}

// TestWorkerCountersSumToTasks pins the per-worker tasks-claimed accounting:
// the live par.worker_tasks.wN counters grow by exactly the task count of a
// parallel fan-out, however the claims were distributed.
func TestWorkerCountersSumToTasks(t *testing.T) {
	const workers, tasks = 4, 100
	sum := func() int64 {
		var s int64
		for wk := 0; wk < workers; wk++ {
			s += workerCounter(wk).Value()
		}
		return s
	}
	before := sum()
	Run(nil, "t", workers, tasks, func(_, _ int) {})
	if got := sum() - before; got != tasks {
		t.Fatalf("worker counters grew by %d, want %d", got, tasks)
	}
}

// TestClockFeedsTimingHistograms pins the clock seam: with a clock installed
// (as internal/obs/telemetry does at init) a parallel fan-out observes one
// wait and one run sample per task; with the clock removed the histograms
// stay silent and Run stays free of wall-clock reads.
func TestClockFeedsTimingHistograms(t *testing.T) {
	wait := metric.Live().Histogram("par.task_wait_ms")
	run := metric.Live().Histogram("par.task_run_ms")
	defer SetClock(nil)

	SetClock(nil)
	w0, r0 := wait.Count(), run.Count()
	Run(nil, "t", 4, 32, func(_, _ int) {})
	if wait.Count() != w0 || run.Count() != r0 {
		t.Fatal("timing histograms observed samples with no clock installed")
	}

	SetClock(time.Now)
	Run(nil, "t", 4, 32, func(_, _ int) {})
	if got := wait.Count() - w0; got != 32 {
		t.Errorf("task_wait_ms grew by %d samples, want 32", got)
	}
	if got := run.Count() - r0; got != 32 {
		t.Errorf("task_run_ms grew by %d samples, want 32", got)
	}
}
