// Package par provides the deterministic worker-pool primitives shared by
// the pipeline's hot paths: fault-region partitioning in fault simulation,
// the redundancy-removal filter, and independent circuits/rows in the
// experiment driver.
//
// The contract throughout is that parallelism never changes results: tasks
// write only task-indexed state, so the output of every fan-out is
// bit-identical for any worker count, including 1. Which worker runs which task IS nondeterministic (tasks are
// claimed from an atomic counter), so anything order- or worker-dependent
// must be derived per task — see SeedFor for deterministic per-key RNG
// seeding.
package par

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"compsynth/internal/metric"
	"compsynth/internal/obs"
)

// Pool metrics (process-wide; atomic adds only). The queue-depth gauge lives
// in the Default registry — it is deterministic at every snapshot point the
// reports see (always back to 0 when Run returns) — while everything
// scheduling-dependent goes to the Live registry below.
var (
	mRuns  = obs.C("par.parallel_runs")
	mTasks = obs.C("par.tasks")
	gDepth = obs.G("par.queue_depth")
)

// Live pool telemetry: values here depend on scheduling and wall-clock, so
// they are surfaced on /metrics and /progress but never snapshot into run
// reports (see metric.Live). Per-worker tasks-claimed counters are
// registered lazily per worker id in workerCounter.
var (
	lWaitMS  = metric.Live().Histogram("par.task_wait_ms")
	lRunMS   = metric.Live().Histogram("par.task_run_ms")
	workerMu sync.Mutex
	workerCs []*metric.Counter
)

// workerCounter returns the live tasks-claimed counter for one dense worker
// id ("par.worker_tasks.wN"), memoized so the per-Run accounting loop does
// not rebuild names.
func workerCounter(wk int) *metric.Counter {
	workerMu.Lock()
	defer workerMu.Unlock()
	for len(workerCs) <= wk {
		workerCs = append(workerCs,
			metric.Live().Counter("par.worker_tasks.w"+strconv.Itoa(len(workerCs))))
	}
	return workerCs[wk]
}

// clock, when installed, timestamps task claim/completion for the live
// wait/run histograms. It is nil by default: par is a deterministic pipeline
// package (sftlint's wallclock rule bans time.Now here), so the wall-clock
// read is injected by the observability layer — internal/obs/telemetry
// installs time.Now from its init, which every command links in. With no
// clock the histograms simply stay empty; results never depend on it.
var clock atomic.Pointer[func() time.Time]

// SetClock installs the wall-clock source for the live task-timing
// histograms (nil uninstalls). Called from non-deterministic packages only.
func SetClock(fn func() time.Time) {
	if fn == nil {
		clock.Store(nil)
		return
	}
	clock.Store(&fn)
}

// Workers resolves a worker-count option: n <= 0 selects
// runtime.GOMAXPROCS(0) (all available CPUs), anything else is returned
// as-is. This is the shared meaning of Options.Workers / -workers across
// the pipeline.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Run executes fn(worker, task) for every task in [0, n), distributing the
// tasks over min(Workers(workers), n) goroutines via an atomic claim
// counter. Each task runs exactly once; worker IDs are dense in [0, w), so
// fn may index per-worker scratch state (e.g. a private simulator) with its
// worker argument. Run returns after every task has completed.
//
// With one worker (or one task) fn runs inline on the calling goroutine and
// no span is recorded, keeping the serial path identical to a plain loop.
//
// tr may be nil. When tracing is on and the fan-out is real, one span named
// name is recorded with the worker count, the task count, and per-worker
// task tallies as attributes.
func Run(tr *obs.Tracer, name string, workers, n int, fn func(worker, task int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		mTasks.Add(int64(n))
		return
	}
	sp := tr.StartSpan(name)
	sp.SetInt("workers", int64(w))
	sp.SetInt("tasks", int64(n))
	ck := clock.Load()
	var fanout time.Time
	if ck != nil {
		fanout = (*ck)()
	}
	gDepth.Set(int64(n))
	counts := make([]int64, w)
	var next atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < w; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				// Depth is the tasks still unclaimed; last-write-wins races
				// between workers only ever disagree by a few claims, which
				// is fine for a live gauge (it is exact again — zero — by
				// the time Run returns and anything deterministic looks).
				gDepth.Set(int64(n - i - 1))
				var t0 time.Time
				if ck != nil {
					t0 = (*ck)()
					lWaitMS.Observe(float64(t0.Sub(fanout)) / float64(time.Millisecond))
				}
				fn(wk, i)
				if ck != nil {
					lRunMS.Observe(float64((*ck)().Sub(t0)) / float64(time.Millisecond))
				}
				counts[wk]++
			}
		}(wk)
	}
	wg.Wait()
	gDepth.Set(0)
	for wk, c := range counts {
		sp.SetInt(fmt.Sprintf("worker%d_tasks", wk), c)
		workerCounter(wk).Add(c)
	}
	sp.End()
	mRuns.Inc()
	mTasks.Add(int64(n))
}

// MapErr runs fn for every index in [0, n) with the given parallelism and
// returns the results in index order. All tasks run to completion; if any
// failed, the error of the lowest-indexed failing task is returned (so the
// reported error does not depend on scheduling).
func MapErr[T any](workers, n int, fn func(task int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	Run(nil, "par.map", workers, n, func(_, i int) {
		out[i], errs[i] = fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SeedFor derives a deterministic RNG seed from a base seed and a string
// key (FNV-1a). Sampling-style algorithms inside parallel regions must not
// share one rand.Rand — the interleaving would leak into results — nor use
// per-worker streams with dynamically claimed tasks. Deriving the seed from
// the task's own key makes the draw a pure function of (base, key),
// independent of worker count and visit order.
func SeedFor(base int64, key string) int64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(base) >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(key))
	return int64(h.Sum64())
}
