package metric_test

import (
	"fmt"
	"strings"
	"testing"

	"compsynth/internal/metric"
)

// Created while this external test package initializes: its first segment
// is the tested package's name, and creating it must not panic.
var (
	initCounter = metric.C("metric.test_init_counter")
	initHist    = metric.H("metric.test_init_hist")
)

// declaredAtInit is a closure declared while the package initializes but
// called later, so what it creates is not created at initialization.
var declaredAtInit = func() { metric.C("metric.test_closure") }

// panicOf runs f and returns what it panicked with, or "" if it returned.
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestNamingContract pins the checks C and H make when they create an
// instrument, and the calls they leave unchecked.
func TestNamingContract(t *testing.T) {
	create := map[string]func(string){
		"C": func(n string) { metric.C(n) },
		"H": func(n string) { metric.H(n) },
	}
	for _, kind := range []string{"C", "H"} {
		for _, tc := range []struct{ name, want string }{
			{"metric.EventCount", "does not match"},
			{"metric", "does not match"},
			{"resynth.stolen_name", `its first segment must be "metric"`},
			{"metric.made_at_run_time", "outside package initialization"},
		} {
			got := panicOf(func() { create[kind](tc.name + "_" + strings.ToLower(kind)) })
			if !strings.Contains(got, tc.want) {
				t.Errorf("%s(%q): panic %q, want one containing %q", kind, tc.name, got, tc.want)
			}
		}
	}
	if got := panicOf(declaredAtInit); !strings.Contains(got, "outside package initialization") {
		t.Errorf("closure declared at init, called later: panic %q", got)
	}
	if _, ok := metric.Default().Snapshot().Counters["metric.made_at_run_time_c"]; ok {
		t.Error("a rejected name was registered")
	}

	// Not checked: the init-time registrations above, lookups of existing
	// names (here one another package owns), the registry's own methods,
	// whatever the name, and private registries.
	if initCounter == nil || initHist == nil {
		t.Fatal("init-time registration returned nil")
	}
	unchecked := []struct {
		what string
		f    func()
	}{
		{"Default().Counter of an unregistered name", func() { metric.Default().Counter("Not A Name") }},
		{"lookup of another package's existing name", func() {
			owned := metric.Default().Counter("par.parallel_runs") // as if par had registered it
			if metric.C("par.parallel_runs") != owned {
				t.Error("C returned a new counter for an existing name")
			}
		}},
		{"lookup of this package's init-time name", func() {
			if metric.C("metric.test_init_counter") != initCounter {
				t.Error("C returned a new counter for an existing name")
			}
		}},
		{"private registry", func() {
			m := metric.NewMetrics()
			m.Counter("hits")
			m.Histogram("x.Y")
			m.Histogram("lat")
		}},
	}
	for _, u := range unchecked {
		if got := panicOf(u.f); got != "" {
			t.Errorf("%s panicked: %s", u.what, got)
		}
	}
}
