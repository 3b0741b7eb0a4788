package par

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"compsynth/internal/obs"
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
		Run(nil, "test", w, n, func(worker, task int) {
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
	Run(nil, "test", 4, 0, func(worker, task int) {
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

func TestRunRecordsSpan(t *testing.T) {
	tr := obs.NewTracer()
	tr.TrackAllocs = false
	Run(tr, "par.test", 4, 16, func(worker, task int) {})
	spans := tr.Export()
	if runtime.GOMAXPROCS(0) == 1 && len(spans) == 0 {
		// Single-proc environments may still fan out: Workers(4) = 4.
		t.Fatal("no span recorded")
	}
	if len(spans) != 1 || spans[0].Name != "par.test" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Attrs["workers"] != int64(4) || spans[0].Attrs["tasks"] != int64(16) {
		t.Fatalf("attrs = %v", spans[0].Attrs)
	}
}

func TestRunSerialRecordsNoSpan(t *testing.T) {
	tr := obs.NewTracer()
	Run(tr, "par.test", 1, 4, func(worker, task int) {})
	if got := len(tr.Export()); got != 0 {
		t.Fatalf("serial Run recorded %d spans", got)
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
