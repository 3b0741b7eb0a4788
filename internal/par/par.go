// Package par provides the deterministic worker-pool primitives shared by
// the pipeline's hot paths: fault-region partitioning in fault simulation,
// the redundancy-removal filter, block-parallel path-delay campaigns, and
// independent circuits/rows in the experiment driver.
//
// The contract throughout is that parallelism never changes results: tasks
// write only task-indexed state, so the output of every fan-out is
// bit-identical for any worker count, including 1. Which worker runs which task IS nondeterministic (tasks are
// claimed from an atomic counter), so anything order- or worker-dependent
// must be derived per task — see SeedFor for deterministic per-key RNG
// seeding — or taken and merged in a fixed order under a lock, as the
// path-delay campaign draws its Stream and merges its blocks.
package par

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"compsynth/internal/metric"
	"compsynth/internal/obs"
)

// Pool metrics (process-wide; atomic adds only).
var (
	mRuns  = metric.C("par.parallel_runs")
	mTasks = metric.C("par.tasks")
)

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
				fn(wk, i)
				counts[wk]++
			}
		}(wk)
	}
	wg.Wait()
	if sp != nil {
		for wk, c := range counts {
			sp.SetInt(fmt.Sprintf("worker%d_tasks", wk), c)
		}
		sp.End()
	}
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

// Stream yields the values of rand.New(rand.NewSource(seed)).Uint64, value
// for value, in batches. math/rand's seeded source is an additive
// lagged-Fibonacci generator, o[k] = o[k-607] + o[k-273] mod 2^64, whose
// seeded output Go 1 keeps stable: Seed primes a ring with the source's
// first 607 values, and each later batch of 607 follows from the ring
// alone in two loops, with no call per value.
type Stream struct {
	ring [streamLen]uint64
	pos  int // values of ring already handed out
}

const (
	streamLen = 607 // the lag of math/rand's source
	streamTap = 273 // its shorter lag
)

// sources are math/rand sources for priming streams (about 5 KB each).
var sources = sync.Pool{New: func() any { return rand.NewSource(0).(rand.Source64) }}

// Seed restarts s at the first value of rand.NewSource(seed).
func (s *Stream) Seed(seed int64) {
	src := sources.Get().(rand.Source64)
	src.Seed(seed)
	for i := range s.ring {
		s.ring[i] = src.Uint64()
	}
	sources.Put(src)
	s.pos = 0
}

// Next returns the stream's next values, at least one and at most n (n
// must be at least 1). The slice aliases s and is valid until the next
// call.
func (s *Stream) Next(n int) []uint64 {
	if s.pos == streamLen {
		r := &s.ring
		for i := 0; i < streamTap; i++ {
			r[i] += r[i+streamLen-streamTap]
		}
		for i := streamTap; i < streamLen; i++ {
			r[i] += r[i-streamTap]
		}
		s.pos = 0
	}
	lo := s.pos
	s.pos = min(streamLen, lo+n)
	return s.ring[lo:s.pos]
}
