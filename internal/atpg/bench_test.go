package atpg

import (
	"testing"

	"compsynth/internal/circuit"
	"compsynth/internal/faults"
	"compsynth/internal/faultsim"
	"compsynth/internal/gen"
)

// hardFaults builds quick-scale suite circuit idx, prepares it as the first
// round of redundancy removal does (Simplify, Strash, Compact), and returns
// it with the collapsed faults that survive that round's random filter:
// 2,048 patterns at seed 15. These are the faults PODEM decides there.
func hardFaults(idx int) (*circuit.Circuit, []faults.Fault) {
	c := gen.Suite(0.15)[idx].Build()
	c.Simplify()
	c.Strash()
	c, _ = c.Compact()
	sim := faultsim.Campaign(c, faults.Collapse(c), faultsim.CampaignOptions{
		Patterns: 2048, Seed: 15, Workers: 1,
	})
	return c, sim.Remaining
}

// BenchmarkGenerate times PODEM over the faults the first removal round
// leaves for it on quick rs9234 (long searches, many redundancy proofs) and
// quick rs35932 (wide gates, aborts), at removal's 20,000-backtrack limit.
// One op is one pass over every fault, on the unmodified circuit, by one
// search the bench holds and warms itself: Generate's pooled search is
// dropped by any GC, and re-growing its scratch made allocs/op vary between
// runs of identical code.
func BenchmarkGenerate(b *testing.B) {
	for _, bc := range []struct {
		name string
		idx  int
	}{{"rs9234", 2}, {"rs35932", 5}} {
		b.Run(bc.name, func(b *testing.B) {
			c, fl := hardFaults(bc.idx)
			s := new(search)
			pass := func() (backs int) {
				for _, f := range fl {
					backs += s.run(c, f, 20000).Backtracks
				}
				return backs
			}
			backs := pass() // warm: the scratch grows to the largest cone
			b.ReportAllocs()
			for b.Loop() {
				backs = pass()
			}
			b.ReportMetric(float64(len(fl)), "faults/op")
			b.ReportMetric(float64(backs), "backtracks/op")
		})
	}
}
