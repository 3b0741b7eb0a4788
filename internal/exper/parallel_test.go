package exper

import (
	"reflect"
	"testing"
)

// smallConfig is an even smaller configuration than tinyConfig, sized so
// the serial-vs-parallel comparison runs twice inside -short budgets.
func smallConfig(workers int) Config {
	cfg := tinyConfig()
	cfg.Scale = 0.05
	cfg.StuckPatterns = 1 << 10
	cfg.Workers = workers
	return cfg
}

// TestTablesParallelMatchSerial is the driver-level determinism contract:
// suite preparation and every row-parallel table (2 through 7, both parts
// of Table 4) produce identical rows in identical order at 1 and 4 workers.
// Under -race it is also the purity check of each par.MapErr seam in this
// package: a task that writes shared state is reported at 4 workers. That
// needs two or more CPUs: at GOMAXPROCS=1 a write injected into the Table 3
// task went unreported.
func TestTablesParallelMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("table determinism test in -short mode")
	}
	type outcome struct {
		rows2          []Table2Row
		rows3          []Table3Row
		rows4a, rows4b []Table4Row
		rows5          []Table5Row
		rows6          []Table6Row
		rows7          []Table7Row
	}
	run := func(workers int) outcome {
		cfg := smallConfig(workers)
		items, err := PrepareSuite(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSuite(cfg, items)
		var o outcome
		if o.rows2, err = Table2(s); err != nil {
			t.Fatal(err)
		}
		if o.rows3, err = Table3(s); err != nil {
			t.Fatal(err)
		}
		if o.rows4a, o.rows4b, err = Table4(s); err != nil {
			t.Fatal(err)
		}
		if o.rows5, err = Table5(s); err != nil {
			t.Fatal(err)
		}
		if o.rows6, err = Table6(s); err != nil {
			t.Fatal(err)
		}
		if o.rows7, err = Table7(s); err != nil {
			t.Fatal(err)
		}
		return o
	}
	serial := run(1)
	parallel := run(4)
	for _, tc := range []struct {
		table            string
		serial, parallel any
	}{
		{"Table 2", serial.rows2, parallel.rows2},
		{"Table 3", serial.rows3, parallel.rows3},
		{"Table 4a", serial.rows4a, parallel.rows4a},
		{"Table 4b", serial.rows4b, parallel.rows4b},
		{"Table 5", serial.rows5, parallel.rows5},
		{"Table 6", serial.rows6, parallel.rows6},
		{"Table 7", serial.rows7, parallel.rows7},
	} {
		if reflect.ValueOf(tc.serial).Len() == 0 {
			t.Errorf("%s has no rows", tc.table)
		}
		if !reflect.DeepEqual(tc.serial, tc.parallel) {
			t.Errorf("%s diverges:\nserial   %+v\nparallel %+v", tc.table, tc.serial, tc.parallel)
		}
	}
}

// TestSuiteWorkerSplit pins the pool/inner split policy.
func TestSuiteWorkerSplit(t *testing.T) {
	cfg := Config{Workers: 4}
	multi := NewSuite(cfg, []Named{{Name: "a"}, {Name: "b"}})
	if multi.pool != 4 || multi.inner != 1 {
		t.Fatalf("multi-item split = pool %d inner %d, want 4/1", multi.pool, multi.inner)
	}
	single := NewSuite(cfg, []Named{{Name: "a"}})
	if single.pool != 4 || single.inner != 4 {
		t.Fatalf("single-item split = pool %d inner %d, want 4/4", single.pool, single.inner)
	}
	serial := NewSuite(Config{Workers: 1}, []Named{{Name: "a"}, {Name: "b"}})
	if serial.pool != 1 || serial.inner != 1 {
		t.Fatalf("serial split = pool %d inner %d, want 1/1", serial.pool, serial.inner)
	}
}
