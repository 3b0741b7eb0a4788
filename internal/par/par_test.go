package par

import (
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d", got)
	}
	if got := Workers(7); got != 7 {
		t.Fatalf("Workers(7) = %d", got)
	}
}

func TestRunCoversEveryTaskOnce(t *testing.T) {
	for _, w := range []int{1, 2, 8, 100} {
		const n = 537
		var hits [n]atomic.Int32
		Run(w, n, func(worker, task int) {
			if worker < 0 || worker >= w {
				t.Errorf("worker %d out of range [0,%d)", worker, w)
			}
			hits[task].Add(1)
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("w=%d: task %d ran %d times", w, i, got)
			}
		}
	}
}

func TestRunZeroTasks(t *testing.T) {
	Run(4, 0, func(worker, task int) {
		t.Fatal("task ran")
	})
}

func TestMapErrPreservesOrder(t *testing.T) {
	got, err := MapErr(5, 100, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestMapErrReturnsLowestIndexError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	// Both tasks 10 and 90 fail; the reported error must always be task
	// 10's regardless of scheduling.
	for trial := 0; trial < 20; trial++ {
		_, err := MapErr(8, 100, func(i int) (int, error) {
			switch i {
			case 10:
				return 0, errA
			case 90:
				return 0, errB
			}
			return i, nil
		})
		if err != errA {
			t.Fatalf("trial %d: err = %v, want %v", trial, err, errA)
		}
	}
}

// TestRunUntracedAllocs pins that a fan-out allocates only for its
// goroutines and bookkeeping, and nothing per task.
func TestRunUntracedAllocs(t *testing.T) {
	for _, tc := range []struct {
		workers int
		max     float64
	}{{2, 6}, {8, 18}} {
		allocs := testing.AllocsPerRun(50, func() {
			Run(tc.workers, tc.workers, func(worker, task int) {})
		})
		if allocs > tc.max {
			t.Errorf("Run(%d workers, %d tasks): %v allocs, want at most %v",
				tc.workers, tc.workers, allocs, tc.max)
		}
	}
}

// TestStreamMatchesMathRand pins Stream to math/rand's seeded source value
// for value, across many refills, for batch sizes that do and do not
// divide the ring, and after a reseed.
func TestStreamMatchesMathRand(t *testing.T) {
	const values = 1_100_000
	var s Stream
	for i, seed := range []int64{0, 1, -7, 1995, 1 << 40} {
		batch := []int{1, 2, 64, 607, 1000}[i]
		s.Seed(seed)
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < values; {
			for _, got := range s.Next(batch) {
				if want := rng.Uint64(); got != want {
					t.Fatalf("seed %d, batch %d: value %d is %#x, math/rand gives %#x", seed, batch, k, got, want)
				}
				k++
			}
		}
	}
}

func TestSeedForStableAndDistinct(t *testing.T) {
	a1 := SeedFor(1995, "4:beef")
	a2 := SeedFor(1995, "4:beef")
	b := SeedFor(1995, "4:dead")
	c := SeedFor(1996, "4:beef")
	if a1 != a2 {
		t.Fatal("SeedFor not deterministic")
	}
	if a1 == b || a1 == c {
		t.Fatalf("SeedFor collisions: %d %d %d", a1, b, c)
	}
}

// pipeline records an Ordered run and checks its contract as it goes:
// Claim and Merge run under the run's lock, so they keep the record. Each
// Run yields a number of times drawn at claim time, and now and then
// sleeps 5 ms instead, so fast blocks pile up behind a slow one.
type pipeline struct {
	t       *testing.T
	w, n    int
	stopAt  int // the block whose Merge stops the run; -1 for none
	rng     *rand.Rand
	delay   []int  // per block, drawn at claim time: yields, or -1 to sleep
	by      []int  // per block: the worker that claimed it
	ran     []bool // per block: its Run returned
	claimed int
	merged  int
	stopped bool
	most    int // the most blocks claimed and unmerged at once
}

func (p *pipeline) Claim(b, worker int) {
	if b != p.claimed || p.stopped || worker < 0 || worker >= p.w {
		p.t.Errorf("w=%d n=%d: claim of block %d by worker %d after %d claims (stopped %v)", p.w, p.n, b, worker, p.claimed, p.stopped)
		return
	}
	p.claimed++
	p.most = max(p.most, p.claimed-p.merged)
	if p.claimed-p.merged > Ahead*p.w {
		p.t.Errorf("w=%d n=%d: %d blocks claimed and unmerged, at most %d allowed", p.w, p.n, p.claimed-p.merged, Ahead*p.w)
	}
	p.by[b] = worker
	p.delay[b] = p.rng.Intn(20)
	if p.rng.Intn(16) == 0 {
		p.delay[b] = -1
	}
}

func (p *pipeline) Run(b, worker int) {
	if p.by[b] != worker {
		p.t.Errorf("w=%d n=%d: block %d claimed by worker %d runs on worker %d", p.w, p.n, b, p.by[b], worker)
	}
	if p.delay[b] < 0 {
		time.Sleep(5 * time.Millisecond)
	}
	for range p.delay[b] {
		runtime.Gosched()
	}
	p.ran[b] = true
}

func (p *pipeline) Merge(b int) bool {
	if b != p.merged || p.stopped || !p.ran[b] {
		p.t.Errorf("w=%d n=%d: merge of block %d after %d merges (stopped %v, ran %v)", p.w, p.n, b, p.merged, p.stopped, p.ran[b])
	}
	p.merged++
	p.stopped = b == p.stopAt
	return p.stopped
}

// TestOrderedContract drives one Ordered through runs of 0 to 300 blocks
// on 1 to 8 workers, some stopped by a merge: claims come in block order,
// each block runs on the worker that claimed it and is merged strictly in
// block order after it ran, and never more than Ahead·w blocks are claimed
// and unmerged. A stop ends claiming and merging, and the blocks claimed
// but unmerged are dropped. One worker keeps one block in flight.
func TestOrderedContract(t *testing.T) {
	var o Ordered
	for _, tc := range []struct{ w, n, stopAt int }{
		{1, 0, -1}, {4, 0, -1}, {1, 9, -1}, {1, 9, 4}, {2, 1, -1}, {3, 2, -1},
		{2, 300, -1}, {3, 300, -1}, {8, 300, -1}, {2, 300, 0}, {4, 300, 37}, {8, 300, 150},
	} {
		p := &pipeline{t: t, w: tc.w, n: tc.n, stopAt: tc.stopAt, rng: rand.New(rand.NewSource(int64(tc.n + tc.w))),
			delay: make([]int, tc.n), by: make([]int, tc.n), ran: make([]bool, tc.n)}
		o.Run(tc.w, tc.n, p)
		want := tc.n
		if tc.stopAt >= 0 {
			want = tc.stopAt + 1
		}
		if p.merged != want {
			t.Errorf("w=%d n=%d stop at %d: %d blocks merged, want %d", tc.w, tc.n, tc.stopAt, p.merged, want)
		}
		for b, ran := range p.ran {
			if ran != (b < p.claimed) {
				t.Errorf("w=%d n=%d: block %d ran %v after %d claims", tc.w, tc.n, b, ran, p.claimed)
			}
		}
		switch {
		case tc.w == 1 && p.most > 1:
			t.Errorf("one worker: %d blocks in flight", p.most)
		case tc.n == 300 && tc.stopAt != 0 && p.most != Ahead*tc.w:
			t.Errorf("w=%d: at most %d blocks in flight, want the bound %d reached", tc.w, p.most, Ahead*tc.w)
		}
	}
}
