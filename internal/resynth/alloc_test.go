package resynth

import (
	"testing"

	"compsynth/internal/gen"
	"compsynth/internal/logic"
	"compsynth/internal/subckt"
)

// Warm-path allocation pins: a repeated candidate function must cost
// nothing beyond the map lookup. The identification caches key on the
// fixed-size comparable logic.Key, so a hit allocates nothing — these
// tests keep it that way.

func warmOptimizer(t *testing.T) (*optimizer, *subckt.Subcircuit, logic.TT) {
	t.Helper()
	c := gen.SmallSuite()[0].Build()
	c.Simplify()
	o := &optimizer{
		opt:   DefaultOptions(),
		cache: map[logic.Key][]realization{},
	}
	o.refresh(c)
	var sub *subckt.Subcircuit
	for i := len(o.topo) - 1; i >= 0 && sub == nil; i-- {
		for _, s := range o.db.EnumerateFromCuts(c, o.topo[i]) {
			if len(s.Gates) > 1 {
				sub = s
				break
			}
		}
	}
	if sub == nil {
		t.Fatal("no multi-gate candidate in the warm-up circuit")
	}
	stt, _ := sub.Extract(c).Shrink()
	o.identify(stt) // warm the cache
	return o, sub, stt
}

func TestIdentifyCacheHitZeroAlloc(t *testing.T) {
	o, _, stt := warmOptimizer(t)
	if n := testing.AllocsPerRun(200, func() {
		o.identify(stt)
	}); n != 0 {
		t.Fatalf("warm identify allocates %v times per call, want 0", n)
	}
}

// TestTraceGateOffZeroAlloc pins the -dtrace=off contract end to end at the
// sweep's emission site: with no tracer installed (o.dt == nil, the default)
// traceGate must return before building a record, so tracing costs the
// untraced pipeline nothing.
func TestTraceGateOffZeroAlloc(t *testing.T) {
	o, sub, _ := warmOptimizer(t)
	c := gen.SmallSuite()[0].Build()
	c.Simplify()
	cand := &candidate{sub: sub}
	if n := testing.AllocsPerRun(200, func() {
		o.traceGate(c, sub.Out, 0, cand)
	}); n != 0 {
		t.Fatalf("traceGate with tracing off allocates %v times per call, want 0", n)
	}
}
