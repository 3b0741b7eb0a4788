package delay

import (
	"errors"
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
		pat := make([]uint64, 2*len(c.Inputs))
		for j := range pat {
			pat[j] = rng.Uint64()
		}
		s.run(pat)
		v1 := make([]bool, len(c.Inputs))
		v2 := make([]bool, len(c.Inputs))
		for l := 0; l < 64; l++ {
			for j := range v1 {
				v1[j], v2[j] = pat[2*j]>>l&1 != 0, pat[2*j+1]>>l&1 != 0
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
	wantDeltas := [2]int64{mPairs.Value() - p0, mPDFDetected.Value() - d0}
	got, deltas := runWithDeltas(c, opt)
	if got != want {
		t.Fatalf("RunRandom = %+v, scalar campaign = %+v", got, want)
	}
	if deltas != wantDeltas {
		t.Fatalf("counter deltas: pairs %d, detected %d; scalar campaign: %d, %d",
			deltas[0], deltas[1], wantDeltas[0], wantDeltas[1])
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

// TestRunRandomWorkersMatchSerial is the determinism contract of the
// block-parallel campaign: at 2, 3 and 8 workers it gives the serial
// result and moves both delay.* counters exactly as the serial campaign
// does, through budgets that end inside a block and quiet stops inside a
// block.
func TestRunRandomWorkersMatchSerial(t *testing.T) {
	var cases []namedCircuit
	for _, b := range gen.Suite(0.15)[:3] {
		cases = append(cases, namedCircuit{"quick-" + b.Name, b.Build()})
	}
	cases = append(cases, namedCircuit{"c17x8", c17s(8)})
	opts := []CampaignOptions{
		{MaxPairs: 1000, Seed: 1},
		{MaxPairs: 1000, QuietPairs: 50, Seed: 2},
		{MaxPairs: 777, QuietPairs: 5, Seed: 3},
		{MaxPairs: 4000, QuietPairs: 300, Seed: 1995},
	}
	stopsInside := 0
	for _, nc := range cases {
		if n := nc.c.Freeze().N(); n < walkGrain {
			t.Fatalf("%s has %d nodes, below the fan-out grain %d", nc.name, n, walkGrain)
		}
		for _, opt := range opts {
			opt.Workers = 1
			serial, serialDeltas := runWithDeltas(nc.c, opt)
			if serial.Pairs < opt.MaxPairs && serial.Pairs%64 != 0 {
				stopsInside++
			}
			for _, w := range []int{2, 3, 8} {
				opt.Workers = w
				got, deltas := runWithDeltas(nc.c, opt)
				if got != serial || deltas != serialDeltas {
					t.Fatalf("%s %+v: %+v with counter deltas %v; serial %+v with %v",
						nc.name, opt, got, deltas, serial, serialDeltas)
				}
			}
		}
	}
	if stopsInside == 0 {
		t.Fatal("no campaign stopped inside a block")
	}
}

// runWithDeltas runs one campaign and returns its result with the deltas
// of delay.pairs_simulated and delay.path_faults_detected.
func runWithDeltas(c *circuit.Circuit, opt CampaignOptions) (CampaignResult, [2]int64) {
	p0, d0 := mPairs.Value(), mPDFDetected.Value()
	res := RunRandom(c, opt)
	return res, [2]int64{mPairs.Value() - p0, mPDFDetected.Value() - d0}
}

// c17s places k copies of c17 side by side: 11k nodes and 22k path delay
// faults, every one robustly testable.
func c17s(k int) *circuit.Circuit {
	c := circuit.New("c17s")
	for i := 0; i < k; i++ {
		var in [5]int
		for j := range in {
			in[j] = c.AddInput("")
		}
		g10 := c.AddGate(circuit.Nand, "", in[0], in[2])
		g11 := c.AddGate(circuit.Nand, "", in[2], in[3])
		g16 := c.AddGate(circuit.Nand, "", in[1], g11)
		g19 := c.AddGate(circuit.Nand, "", g11, in[4])
		c.MarkOutput(c.AddGate(circuit.Nand, "", g10, g16))
		c.MarkOutput(c.AddGate(circuit.Nand, "", g16, g19))
	}
	return c
}

func TestRunRandomAllocsIndependentOfPairsParallel(t *testing.T) {
	// The pin above on a campaign that fans out: blocks in flight live in
	// a fixed ring of slots, so two workers allocate exactly as much for
	// 16,384 pairs as for 1,024 once every fault is detected.
	c := c17s(8)
	if n := c.Freeze().N(); n < walkGrain {
		t.Fatalf("%d nodes, below the fan-out grain %d", n, walkGrain)
	}
	if r := RunRandom(c, CampaignOptions{MaxPairs: 1024, Seed: 3, Workers: 2}); r.Detected != 176 {
		t.Fatalf("c17 x 8 seed 3: %+v, want all 176 faults in 1,024 pairs", r)
	}
	allocs := func(pairs int) float64 {
		return testing.AllocsPerRun(10, func() {
			runPairs(c, CampaignOptions{MaxPairs: pairs, Seed: 3, Workers: 2})
		})
	}
	if short, long := allocs(1024), allocs(16384); short != long {
		t.Fatalf("allocs per campaign: %v at 1024 pairs, %v at 16384", short, long)
	}
}

// TestRunRandomPathCountLimit: the campaign's fault count is twice the path
// count. A 62-stage AND(x, x) ladder has 2^62 paths and runs with 2^63
// faults; at 63 stages the double does not fit in a uint64, and at 64 the
// path count itself does not. Both return ErrTooManyFaults without
// simulating, and without panicking.
func TestRunRandomPathCountLimit(t *testing.T) {
	opt := CampaignOptions{MaxPairs: 8, Seed: 1}
	got := RunRandom(ladder(62), opt)
	if got.Err != nil || got.TotalFaults != 1<<63 || got.Pairs != 8 || got.Detected == 0 {
		t.Fatalf("62-stage ladder: %+v, want 2^63 faults, 8 pairs and detections", got)
	}
	for _, n := range []int{63, 64} {
		p0 := mPairs.Value()
		got := RunRandom(ladder(n), opt)
		if !errors.Is(got.Err, ErrTooManyFaults) || got != (CampaignResult{Err: got.Err}) {
			t.Fatalf("%d-stage ladder: %+v, want only ErrTooManyFaults", n, got)
		}
		if d := mPairs.Value() - p0; d != 0 {
			t.Fatalf("%d-stage ladder: %d pairs simulated, want none", n, d)
		}
	}
}
