// Benchmarks regenerating every table and figure of the paper, plus
// ablation benches for the design choices called out in DESIGN.md. Each
// BenchmarkTableN runs the same code path as `cmd/tables -table N`, at a
// reduced scale so `go test -bench .` completes on a laptop; run cmd/tables
// for full-scale numbers (recorded in EXPERIMENTS.md).
package compsynth

import (
	"fmt"
	"testing"

	"compsynth/internal/compare"
	"compsynth/internal/delay"
	"compsynth/internal/exper"
	"compsynth/internal/faults"
	"compsynth/internal/faultsim"
	"compsynth/internal/gen"
	"compsynth/internal/logic"
	"compsynth/internal/obs"
	"compsynth/internal/paths"
	"compsynth/internal/rambo"
	"compsynth/internal/resynth"
	"compsynth/internal/subckt"
	"compsynth/internal/techmap"
)

func benchConfig() exper.Config {
	cfg := exper.QuickConfig()
	cfg.Verify = false // benchmarked separately
	return cfg
}

var suiteCache *exper.Suite

func benchSuite(b *testing.B) *exper.Suite {
	b.Helper()
	if suiteCache == nil {
		items, err := exper.PrepareSuite(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		suiteCache = exper.NewSuite(benchConfig(), items)
	}
	return suiteCache
}

func BenchmarkTable2Procedure2(b *testing.B) {
	suite := benchSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := exper.Table2(suite)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exper.FormatTable2(rows))
		}
	}
}

func BenchmarkTable3Rambo(b *testing.B) {
	suite := benchSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := exper.Table3(suite)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exper.FormatTable3(rows))
		}
	}
}

func BenchmarkTable4Techmap(b *testing.B) {
	suite := benchSuite(b)
	for i := 0; i < b.N; i++ {
		pa, pb, err := exper.Table4(suite)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exper.FormatTable4(pa, pb))
		}
	}
}

func BenchmarkTable5Procedure3(b *testing.B) {
	suite := benchSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := exper.Table5(suite)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exper.FormatTable5(rows))
		}
	}
}

func BenchmarkTable6StuckAt(b *testing.B) {
	suite := benchSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := exper.Table6(suite)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exper.FormatTable6(rows))
		}
	}
}

func BenchmarkTable7PathDelay(b *testing.B) {
	suite := benchSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := exper.Table7(suite)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exper.FormatTable7(rows))
		}
	}
}

// Figure benches: construction and verification of the paper's figures.

func BenchmarkFigure1Unit(b *testing.B) {
	s := compare.Spec{N: 4, Perm: []int{0, 1, 2, 3}, L: 5, U: 10}
	for i := 0; i < b.N; i++ {
		c := s.BuildStandalone("f1", compare.BuildOptions{Merge: false})
		if c.Equiv2Count() != s.GateCost() {
			b.Fatal("cost model mismatch")
		}
	}
}

func BenchmarkFigure2BlockConstruction(b *testing.B) {
	// All >=L / <=U blocks for n=6.
	for i := 0; i < b.N; i++ {
		for l := 0; l < 64; l += 7 {
			s := compare.Spec{N: 6, Perm: []int{0, 1, 2, 3, 4, 5}, L: l, U: 63}
			s.BuildStandalone("g", compare.BuildOptions{Merge: false})
		}
	}
}

func BenchmarkFigure6TestSet(b *testing.B) {
	s := compare.Spec{N: 4, Perm: []int{0, 1, 2, 3}, L: 11, U: 12}
	c := s.BuildStandalone("f6", compare.BuildOptions{Merge: true})
	ps := delay.EnumeratePaths(c, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ut := range s.TestSet() {
			ok := false
			for _, p := range ps {
				if delay.PathRobust(c, p.Nodes, p.Pins, ut.V1, ut.V2) {
					ok = true
					break
				}
			}
			if !ok {
				b.Fatal("non-robust test")
			}
		}
	}
}

// Ablation benches (DESIGN.md section 5).

func BenchmarkAblationKSweep(b *testing.B) {
	c := gen.SmallSuite()[0].Build()
	for _, k := range []int{4, 5, 6, 7} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := resynth.DefaultOptions()
				opt.K = k
				opt.Verify = false
				res, err := resynth.Optimize(c, opt)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("K=%d: %v", k, res)
				}
			}
		})
	}
}

func BenchmarkAblationIdentify(b *testing.B) {
	// Exact recursive identification vs the paper's 200-permutation
	// sampling, on the set of all 4-variable interval functions.
	var fns []logic.TT
	for l := 0; l < 16; l++ {
		for u := l; u < 16; u++ {
			fns = append(fns, logic.FromInterval(4, l, u).Permute([]int{2, 0, 3, 1}))
		}
	}
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, f := range fns {
				if _, ok := compare.IdentifyBest(f); !ok {
					b.Fatal("missed interval")
				}
			}
		}
	})
	b.Run("sampling200", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, f := range fns {
				compare.IdentifySampling(f, 200, nil)
			}
		}
	})
}

func BenchmarkAblationCombined(b *testing.B) {
	c := gen.SmallSuite()[1].Build()
	for _, obj := range []resynth.Objective{resynth.MinGates, resynth.MinPaths, resynth.Combined} {
		b.Run(obj.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := resynth.DefaultOptions()
				opt.Objective = obj
				opt.Verify = false
				res, err := resynth.Optimize(c, opt)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("%v: %v", obj, res)
				}
			}
		})
	}
}

// BenchmarkObservabilityOverhead measures what the internal/obs
// instrumentation costs resynthesis: "off" is the production default (nil
// tracer, counters still ticking), "on" records the full span tree with
// allocation tracking. The "off" case must stay within noise of the
// pre-instrumentation baseline.
func BenchmarkObservabilityOverhead(b *testing.B) {
	c := gen.SmallSuite()[0].Build()
	run := func(b *testing.B, tracer func() *obs.Tracer) {
		for i := 0; i < b.N; i++ {
			opt := resynth.DefaultOptions()
			opt.Verify = false
			opt.Tracer = tracer() // fresh per run, as in the tools
			if _, err := resynth.Optimize(c, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, func() *obs.Tracer { return nil }) })
	b.Run("on", func(b *testing.B) { run(b, obs.NewTracer) })
}

// Micro-benchmarks of the substrates.

func BenchmarkPathCountProcedure1(b *testing.B) {
	c := gen.Suite(0.3)[3].Build() // rs13207 analog
	b.Run("csr", func(b *testing.B) {
		b.ReportAllocs()
		c.Freeze()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := paths.Count(c); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkResynth runs Procedure 2 on the first small-suite circuit with a
// fresh optimizer every iteration, so no iteration rides another's caches.
func BenchmarkResynth(b *testing.B) {
	c := gen.SmallSuite()[0].Build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := resynth.DefaultOptions()
		opt.Verify = false
		if _, err := resynth.Optimize(c, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResynthScale runs one Procedure 2 pass (K = 5, Verify on) on
// gen.Random circuits of 10^4, 3·10^4 and 10^5 generated gates, 8,422,
// 24,713 and 83,390 after the sweep, and reports the time per gate. Each
// replacement's edit costs what it touches, so ns/gate stays about flat
// across the sizes; whole-circuit scans per edit made it grow with them.
func BenchmarkResynthScale(b *testing.B) {
	for _, sz := range []struct {
		name  string
		gates int
	}{{"1e4", 1e4}, {"3e4", 3e4}, {"1e5", 1e5}} {
		b.Run(sz.name, func(b *testing.B) {
			n := sz.gates
			c := gen.Random(gen.Params{Name: "scale" + sz.name, Gates: n, Inputs: n / 50,
				Outputs: n / 60, Layers: 40, MaxFanin: 4, Locality: 0.6, InvProb: 0.1,
				MacroProb: 0.3, Seed: 7})
			opt := resynth.DefaultOptions()
			opt.MaxPasses = 1
			runs := 0
			for b.Loop() {
				if _, err := resynth.Optimize(c, opt); err != nil {
					b.Fatal(err)
				}
				runs++
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(runs*c.NumGates()), "ns/gate")
		})
	}
}

// BenchmarkComputeCuts enumerates the cuts resynthesis builds on its first
// pass, K = 6 with 32 cuts per node, on quick-scale rs9234 and rs35932,
// simplified and compacted as Optimize does. The signature filter and the
// dedupe table are what keep it fast and allocating only the cut lists.
func BenchmarkComputeCuts(b *testing.B) {
	var cs []*Circuit
	for _, bn := range gen.Suite(0.15) {
		if bn.Name == "rs9234" || bn.Name == "rs35932" {
			c := bn.Build()
			c.Simplify()
			c, _ = c.Compact()
			c.Freeze()
			cs = append(cs, c)
		}
	}
	if len(cs) != 2 {
		b.Fatalf("quick suite gave %d of rs9234 and rs35932", len(cs))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cs {
			subckt.ComputeCuts(c, 6, 32)
		}
	}
}

func BenchmarkFaultSimulation(b *testing.B) {
	c := gen.Suite(0.2)[0].Build()
	fl := faults.Collapse(c)
	b.Run("csr", func(b *testing.B) {
		b.ReportAllocs()
		c.Freeze()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			faultsim.RunRandom(c, fl, 4096, int64(i))
		}
	})
}

func BenchmarkRobustPDFCampaign(b *testing.B) {
	c := gen.Suite(0.2)[0].Build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delay.RunRandom(c, delay.CampaignOptions{MaxPairs: 1000, Seed: int64(i)})
	}
}

func BenchmarkTechnologyMapping(b *testing.B) {
	c := gen.Suite(0.3)[0].Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		techmap.Map(c)
	}
}

func BenchmarkQuineMcCluskey(b *testing.B) {
	var fns []logic.TT
	for seedOffset := 0; seedOffset < 16; seedOffset++ {
		f := logic.New(6)
		for m := 0; m < 64; m += seedOffset + 2 {
			f.Set(m, true)
		}
		fns = append(fns, f)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range fns {
			rambo.Minimize(f)
		}
	}
}

func BenchmarkAblationExtensions(b *testing.B) {
	// Section 6 extensions: plain Procedure 2 vs +multi-unit vs +SDC.
	c := gen.SmallSuite()[0].Build()
	variants := []struct {
		name string
		mod  func(*resynth.Options)
	}{
		{"plain", func(*resynth.Options) {}},
		{"multi3", func(o *resynth.Options) { o.MaxUnits = 3 }},
		{"sdc", func(o *resynth.Options) { o.UseSDC = true }},
		{"multi3+sdc", func(o *resynth.Options) { o.MaxUnits = 3; o.UseSDC = true }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := resynth.DefaultOptions()
				opt.Verify = false
				v.mod(&opt)
				res, err := resynth.Optimize(c, opt)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("%s: %v", v.name, res)
				}
			}
		})
	}
}
