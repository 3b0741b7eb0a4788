package delay

import (
	"fmt"
	"math/rand"
	"testing"

	"compsynth/internal/bench"
	"compsynth/internal/circuit"
	"compsynth/internal/gen"
)

// laneValue decodes lane l of dense node d.
func (s *laneSim) laneValue(d int32, l int) V5 {
	bit := uint64(1) << l
	switch i, f := s.ini[d]&bit != 0, s.fin[d]&bit != 0; {
	case s.haz[d]&bit != 0:
		return XX
	case !i && !f:
		return S0
	case i && f:
		return S1
	case !i:
		return R
	default:
		return F
	}
}

// oddGates exercises what the generated suites lack: XOR/XNOR with two
// transitioning inputs, BUF, constant fanins, one net on two pins of a
// gate, an output designated twice and a primary input that is also a
// primary output.
func oddGates() *circuit.Circuit {
	c := circuit.New("odd")
	a, b, d, e := c.AddInput("a"), c.AddInput("b"), c.AddInput("d"), c.AddInput("e")
	one := c.AddGate(circuit.Const1, "")
	zero := c.AddGate(circuit.Const0, "")
	x3 := c.AddGate(circuit.Xor, "", a, b, d)
	xn3 := c.AddGate(circuit.Xnor, "", b, d, e)
	buf := c.AddGate(circuit.Buf, "", x3)
	and1 := c.AddGate(circuit.And, "", buf, one, e)
	or0 := c.AddGate(circuit.Or, "", xn3, zero, a)
	twice := c.AddGate(circuit.Nand, "", and1, and1, b)
	twiceX := c.AddGate(circuit.Xor, "", or0, or0, d)
	nor := c.AddGate(circuit.Nor, "", twice, twiceX)
	inv := c.AddGate(circuit.Not, "", nor)
	mix := c.AddGate(circuit.Xnor, "", inv, buf)
	c.MarkOutput(mix)
	c.MarkOutput(mix)
	c.MarkOutput(twice)
	c.MarkOutput(e)
	c.MarkOutput(c.AddGate(circuit.And, "", zero, one, a))
	return c
}

// ladder chains n stages of AND(x, x): one rising input reaches 2^n paths
// through 2^(n+1)-1 path prefixes.
func ladder(n int) *circuit.Circuit {
	c := circuit.New("ladder")
	x := c.AddInput("x")
	for i := 0; i < n; i++ {
		x = c.AddGate(circuit.And, "", x, x)
	}
	c.MarkOutput(x)
	return c
}

type namedCircuit struct {
	name string
	c    *circuit.Circuit
}

func laneCircuits(t *testing.T) []namedCircuit {
	t.Helper()
	c17, err := bench.ParseString(bench.C17, "c17")
	if err != nil {
		t.Fatal(err)
	}
	adder, err := bench.ParseString(bench.Adder4, "adder4")
	if err != nil {
		t.Fatal(err)
	}
	cs := []namedCircuit{{"c17", c17}, {"adder4", adder}, {"odd", oddGates()}}
	for _, b := range gen.SmallSuite() {
		cs = append(cs, namedCircuit{b.Name, b.Build()})
	}
	return cs
}

func TestSimWordsMatchesSim5(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, nc := range laneCircuits(t) {
		c := nc.c
		s := newLaneSim(c.Freeze())
		in1 := make([]uint64, len(c.Inputs))
		in2 := make([]uint64, len(c.Inputs))
		for j := range in1 {
			in1[j], in2[j] = rng.Uint64(), rng.Uint64()
		}
		s.run(in1, in2)
		v1 := make([]bool, len(c.Inputs))
		v2 := make([]bool, len(c.Inputs))
		for l := 0; l < 64; l++ {
			for j := range v1 {
				v1[j], v2[j] = in1[j]>>l&1 != 0, in2[j]>>l&1 != 0
			}
			want := Sim5(c, v1, v2)
			for d, id := range s.v.NodeID {
				if got := s.laneValue(int32(d), l); got != want[id] {
					t.Fatalf("%s lane %d node %d (%v): %v, Sim5 says %v",
						nc.name, l, id, c.Nodes[id].Type, got, want[id])
				}
			}
		}
	}
}

func TestRunRandomMatchesRef(t *testing.T) {
	// Counter deltas are process-wide, so the cases run one at a time.
	cases := laneCircuits(t)
	for _, b := range gen.Suite(0.15)[:3] {
		cases = append(cases, namedCircuit{"quick-" + b.Name, b.Build()})
	}
	opts := []CampaignOptions{
		{MaxPairs: 1000, Seed: 1},
		{MaxPairs: 1000, QuietPairs: 50, Seed: 2},
		{MaxPairs: 777, QuietPairs: 5, Seed: 3},
		{MaxPairs: 130, QuietPairs: 20, Seed: 1995},
	}
	for _, nc := range cases {
		for _, opt := range opts {
			name := fmt.Sprintf("%s/%d-%d-%d", nc.name, opt.MaxPairs, opt.QuietPairs, opt.Seed)
			t.Run(name, func(t *testing.T) { matchRef(t, nc.c, opt) })
		}
	}
	// The visit cap binds: a rising input reaches 2^21-1 prefixes, and
	// the walk stops after 2^20 of them, having reached 2^19 of the 2^20
	// paths. Seed 1 draws two rising pairs in eight (a falling one is
	// blocked at the first stage), and the second finds nothing new.
	t.Run("cap-ladder", func(t *testing.T) {
		if got := matchRef(t, ladder(20), CampaignOptions{MaxPairs: 8, Seed: 1}); got.Detected != 1<<19 {
			t.Fatalf("ladder detected %d, want %d", got.Detected, 1<<19)
		}
	})
}

// matchRef runs both campaigns and requires equal results and equal
// delay.* counter deltas.
func matchRef(t *testing.T, c *circuit.Circuit, opt CampaignOptions) CampaignResult {
	t.Helper()
	p0, d0 := mPairs.Value(), mPDFDetected.Value()
	want := refRunRandom(c, opt)
	p1, d1 := mPairs.Value(), mPDFDetected.Value()
	got := RunRandom(c, opt)
	p2, d2 := mPairs.Value(), mPDFDetected.Value()
	if got != want {
		t.Fatalf("RunRandom = %+v, scalar campaign = %+v", got, want)
	}
	if p2-p1 != p1-p0 || d2-d1 != d1-d0 {
		t.Fatalf("counter deltas: pairs %d, detected %d; scalar campaign: %d, %d",
			p2-p1, d2-d1, p1-p0, d1-d0)
	}
	return got
}

func TestRunRandomAllocsIndependentOfPairs(t *testing.T) {
	// Nothing is allocated per pair or per block: once every fault is
	// detected, a longer campaign allocates exactly as much. The pin
	// drives runPairs, leaving out the path count, whose scratch sits in
	// a sync.Pool that the race detector empties at random.
	c, _ := bench.ParseString(bench.C17, "c17")
	if r := RunRandom(c, CampaignOptions{MaxPairs: 1024, Seed: 3}); r.Detected != 22 || r.LastEffective > 317 {
		t.Fatalf("c17 seed 3: %+v, want all 22 faults by pair 317", r)
	}
	allocs := func(pairs int) float64 {
		return testing.AllocsPerRun(10, func() {
			runPairs(c, CampaignOptions{MaxPairs: pairs, Seed: 3})
		})
	}
	if short, long := allocs(1024), allocs(16384); short != long {
		t.Fatalf("allocs per campaign: %v at 1024 pairs, %v at 16384", short, long)
	}
}
