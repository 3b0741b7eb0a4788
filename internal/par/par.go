// Package par provides the deterministic worker-pool primitives shared by
// the pipeline's hot paths: the stuck-at and path-delay campaigns, which
// run their blocks through one ordered pipeline (Ordered), and independent
// circuits/rows in the experiment driver.
//
// The contract throughout is that parallelism never changes results: tasks
// write only task-indexed state, so the output of every fan-out is
// bit-identical for any worker count, including 1. Which worker runs which
// task IS nondeterministic (tasks are claimed from an atomic counter), so
// anything order- or worker-dependent must be derived per task — see
// SeedFor for deterministic per-key RNG seeding — or claimed and merged in
// block order, as an Ordered run does.
package par

import (
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"compsynth/internal/metric"
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
// With one worker (or one task) fn runs inline on the calling goroutine,
// keeping the serial path identical to a plain loop.
func Run(workers, n int, fn func(worker, task int)) {
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
			}
		}(wk)
	}
	wg.Wait()
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
	Run(workers, n, func(_, i int) {
		out[i], errs[i] = fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Ahead is how many blocks per worker an Ordered run keeps in flight
// (claimed, not yet merged), so a slow block holds up the others only this
// far. Two-worker stuck-at campaigns took the same time at 2, 4, 8 and 16
// (EXPERIMENTS.md, "Claimed wide blocks in the stuck-at campaign").
const Ahead = 4

// Blocks is what an Ordered run does with each block.
type Blocks interface {
	// Claim takes block b for worker. It runs under the run's lock, in
	// block order, once block b-Ahead·w is merged, so a caller can keep
	// its blocks in flight in a ring of Ahead·w slots, indexed by b mod
	// Ahead·w.
	Claim(b, worker int)
	// Run runs block b on the worker that claimed it, without the lock.
	Run(b, worker int)
	// Merge applies block b under the lock, strictly in block order, and
	// reports whether the run stops: once it does, no block is claimed or
	// merged, and blocks claimed but not merged are dropped.
	Merge(b int) (stop bool)
}

// Ordered runs blocks in parallel and merges them in block order. Its zero
// value is ready to use, and one Ordered may run any number of times,
// though not concurrently; it lives in its caller's storage, so a run
// allocates nothing per block.
type Ordered struct {
	mu      sync.Mutex
	ready   sync.Cond // signalled when a block is merged or the run stops
	claimed int       // blocks claimed
	merged  int       // blocks merged
	stop    bool      // a merge stopped the run
	ran     []bool    // per ring slot: its block has run and awaits its merge
}

// Run runs blocks [0, n) of bl on min(w, n) workers (w at least 1), fanned
// out by the package's Run, and returns once the last block is merged or a
// merge stops the run. With one worker each block is claimed, run and
// merged in turn on the calling goroutine.
func (o *Ordered) Run(w, n int, bl Blocks) {
	w = min(w, n)
	o.claimed, o.merged, o.stop = 0, 0, false
	o.ran = slices.Grow(o.ran[:0], Ahead*w)[:Ahead*w]
	clear(o.ran)
	o.ready.L = &o.mu
	Run(w, w, func(worker, _ int) { o.work(worker, n, bl) })
}

// work claims, runs and merges blocks below n until none is left or the
// run has stopped. It runs the blocks without the lock.
func (o *Ordered) work(worker, n int, bl Blocks) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for {
		for o.claimed < n && o.claimed-o.merged >= len(o.ran) && !o.stop {
			o.ready.Wait()
		}
		if o.claimed == n || o.stop {
			return
		}
		b := o.claimed
		o.claimed++
		bl.Claim(b, worker)
		o.mu.Unlock()
		bl.Run(b, worker)
		o.mu.Lock()
		o.ran[b%len(o.ran)] = true
		for !o.stop && o.ran[o.merged%len(o.ran)] {
			o.ran[o.merged%len(o.ran)] = false
			o.stop = bl.Merge(o.merged)
			o.merged++
		}
		o.ready.Broadcast()
	}
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
	pos  int           // values of ring already handed out
	src  rand.Source64 // primes ring; made on the first Seed (about 5 KB)
}

const (
	streamLen = 607 // the lag of math/rand's source
	streamTap = 273 // its shorter lag
)

// Seed restarts s at the first value of rand.NewSource(seed).
func (s *Stream) Seed(seed int64) {
	if s.src == nil {
		s.src = rand.NewSource(seed).(rand.Source64)
	} else {
		s.src.Seed(seed)
	}
	for i := range s.ring {
		s.ring[i] = s.src.Uint64()
	}
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
