package resynth

import (
	"testing"

	"compsynth/internal/circuit"
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
		subs := o.db.EnumerateFromCuts(c, o.topo[i], &o.ksc)
		for j := range subs {
			if len(subs[j].Gates) > 1 {
				sub = &subs[j]
				break
			}
		}
	}
	if sub == nil {
		t.Fatal("no multi-gate candidate in the warm-up circuit")
	}
	var tt, stt logic.TT
	o.ksc.Extract(sub, c, &tt)
	tt.Shrink(&stt, nil)
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

// TestSelectReplacementWarmZeroAlloc pins the candidate loop end to end:
// with tracing off and every candidate function of a gate cached, choosing
// the gate's replacement (enumeration, extraction, support reduction,
// identification, savings and scoring) allocates nothing. The gate is the
// one with the most realized candidates.
func TestSelectReplacementWarmZeroAlloc(t *testing.T) {
	c := gen.SmallSuite()[0].Build()
	c.Simplify()
	o := &optimizer{
		opt:   DefaultOptions(),
		cache: map[logic.Key][]realization{},
	}
	o.refresh(c)
	g, most := -1, 0
	for _, id := range o.topo {
		if t := c.Nodes[id].Type; t == circuit.Input || t == circuit.Const0 || t == circuit.Const1 {
			continue
		}
		o.selectReplacement(c, id) // fills the caches and grows the scratch
		realized := 0
		for _, sub := range o.db.EnumerateFromCuts(c, id, &o.ksc) {
			var tt, stt logic.TT
			o.ksc.Extract(&sub, c, &tt)
			tt.Shrink(&stt, nil)
			if stt.Vars() > 0 && len(o.identify(stt)) > 0 {
				realized++
			}
		}
		if realized > most {
			g, most = id, realized
		}
	}
	if most < 2 {
		t.Fatalf("no gate with two realized candidates (best %d)", most)
	}
	if n := testing.AllocsPerRun(100, func() { o.selectReplacement(c, g) }); n != 0 {
		t.Fatalf("warm selectReplacement allocates %v times per call, want 0", n)
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
