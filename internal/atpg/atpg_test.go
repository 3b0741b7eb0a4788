package atpg

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"compsynth/internal/bench"
	"compsynth/internal/circuit"
	"compsynth/internal/faults"
	"compsynth/internal/faultsim"
	"compsynth/internal/gen"
)

func TestGenerateOnC17AllTestable(t *testing.T) {
	// c17 is irredundant: every collapsed fault has a test, and each
	// generated test must actually detect its fault.
	c, _ := bench.ParseString(bench.C17, "c17")
	for _, f := range faults.Collapse(c) {
		res := Generate(c, f, Options{})
		if res.Status != Testable {
			t.Fatalf("fault %v: %v", f, res.Status)
		}
		if !faultsim.DetectedBy(c, f, res.Test) {
			t.Fatalf("fault %v: generated test %v does not detect it", f, res.Test)
		}
	}
}

func TestGenerateProvesRedundancy(t *testing.T) {
	// f = a OR (a AND b): AND-output sa0 is undetectable.
	c := circuit.New("red")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g1 := c.AddGate(circuit.And, "g1", a, b)
	g2 := c.AddGate(circuit.Or, "g2", a, g1)
	c.MarkOutput(g2)
	res := Generate(c, faults.Fault{Node: g1, Pin: -1, Stuck: false}, Options{})
	if res.Status != Redundant {
		t.Fatalf("expected redundant, got %v (test %v)", res.Status, res.Test)
	}
	// The same line sa1 is testable (a=0, b=0 gives out 0 vs 1 faulty...
	// check: good g1=0, out=a=0; faulty g1=1, out=1).
	res = Generate(c, faults.Fault{Node: g1, Pin: -1, Stuck: true}, Options{})
	if res.Status != Testable {
		t.Fatalf("sa1 should be testable, got %v", res.Status)
	}
	if !faultsim.DetectedBy(c, faults.Fault{Node: g1, Pin: -1, Stuck: true}, res.Test) {
		t.Fatal("test does not detect g1 sa1")
	}
}

func TestGenerateBranchFault(t *testing.T) {
	// a fans out to AND(a,b) and OR(a,b): branch faults are distinct.
	c := circuit.New("br")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g1 := c.AddGate(circuit.And, "g1", a, b)
	g2 := c.AddGate(circuit.Or, "g2", a, b)
	c.MarkOutput(g1)
	c.MarkOutput(g2)
	for _, f := range []faults.Fault{
		{Node: g1, Pin: 0, Stuck: false},
		{Node: g1, Pin: 0, Stuck: true},
		{Node: g2, Pin: 0, Stuck: false},
		{Node: g2, Pin: 0, Stuck: true},
	} {
		res := Generate(c, f, Options{})
		if res.Status != Testable {
			t.Fatalf("branch fault %v: %v", f, res.Status)
		}
		if !faultsim.DetectedBy(c, f, res.Test) {
			t.Fatalf("branch fault %v: test %v misses", f, res.Test)
		}
	}
}

func TestGenerateAgreesWithFaultSim(t *testing.T) {
	// Cross-validation on random circuits: any fault PODEM calls testable
	// must be detected by its own test; any fault random simulation detects
	// must not be called redundant.
	for _, bn := range gen.SmallSuite()[:2] {
		c := bn.Build()
		fl := faults.Collapse(c)
		sim := faultsim.RunRandom(c, fl, 2048, 5)
		detected := map[faults.Fault]bool{}
		remaining := map[faults.Fault]bool{}
		for _, f := range sim.Remaining {
			remaining[f] = true
		}
		for _, f := range fl {
			if !remaining[f] {
				detected[f] = true
			}
		}
		for _, f := range fl {
			res := Generate(c, f, Options{BacktrackLimit: 3000})
			switch res.Status {
			case Testable:
				if !faultsim.DetectedBy(c, f, res.Test) {
					t.Fatalf("%s: fault %v test %v does not detect", bn.Name, f, res.Test)
				}
			case Redundant:
				if detected[f] {
					t.Fatalf("%s: fault %v proved redundant but random-sim detected it", bn.Name, f)
				}
			}
		}
	}
}

func TestGenerateXorChain(t *testing.T) {
	// Parity trees exercise the no-controlling-value paths.
	c := circuit.New("x")
	a := c.AddInput("a")
	b := c.AddInput("b")
	d := c.AddInput("d")
	g1 := c.AddGate(circuit.Xor, "", a, b)
	g2 := c.AddGate(circuit.Xnor, "", g1, d)
	c.MarkOutput(g2)
	for _, f := range faults.Collapse(c) {
		res := Generate(c, f, Options{})
		if res.Status != Testable {
			t.Fatalf("xor fault %v: %v", f, res.Status)
		}
		if !faultsim.DetectedBy(c, f, res.Test) {
			t.Fatalf("xor fault %v: bad test", f)
		}
	}
}

func TestValueAlgebra(t *testing.T) {
	// Every value's planes, components, name and fault-effect flag, and the
	// pair that builds it.
	for _, tc := range []struct {
		v, planes Value
		good, bad int
		name      string
		isD       bool
	}{
		{X, 0, -1, -1, "X", false},
		{Zero, g0 | b0, 0, 0, "0", false},
		{One, g1 | b1, 1, 1, "1", false},
		{D, g1 | b0, 1, 0, "D", true},
		{Dbar, g0 | b1, 0, 1, "D'", true},
	} {
		if tc.v != tc.planes || tc.v.good() != tc.good || tc.v.bad() != tc.bad ||
			tc.v.String() != tc.name || tc.v.isD() != tc.isD {
			t.Errorf("%s: planes %04b, good %d, bad %d, isD %v; want %04b, %d, %d, %v",
				tc.v, uint8(tc.v), tc.v.good(), tc.v.bad(), tc.v.isD(), uint8(tc.planes), tc.good, tc.bad, tc.isD)
		}
		if got := fromPair(tc.good, tc.bad); got != tc.v {
			t.Errorf("fromPair(%d, %d) = %v, want %v", tc.good, tc.bad, got, tc.v)
		}
	}
	// A pair with an unknown component is X, and so is every plane set
	// collapse sees with a component missing; full pairs stay themselves.
	for _, gp := range []Value{0, g0, g1} {
		for _, bp := range []Value{0, b0, b1} {
			want := gp | bp
			if gp == 0 || bp == 0 {
				want = X
			}
			if got := collapse(gp | bp); got != want {
				t.Errorf("collapse(%04b) = %04b, want %04b", uint8(gp|bp), uint8(got), uint8(want))
			}
			if got := fromPair((gp | bp).good(), (gp | bp).bad()); got != want {
				t.Errorf("fromPair of %04b's components = %04b, want %04b", uint8(gp|bp), uint8(got), uint8(want))
			}
		}
	}
}

// TestEvalMatchesRef pins eval, on its table path and its slow path, to the
// summary-bit oracle refEval: every gate kind at fanin 1 to 4 (BUF and NOT
// at 1) and the constants, under every tuple of the five values on the
// gate's inputs, with the gate fault-free, each of its pins stuck at 0 and
// at 1, and its output stuck at 0 and at 1.
func TestEvalMatchesRef(t *testing.T) {
	values := []Value{X, Zero, One, D, Dbar}
	type shape struct {
		kind  circuit.GateType
		fanin int
	}
	shapes := []shape{{circuit.Buf, 1}, {circuit.Not, 1}, {circuit.Const0, 0}, {circuit.Const1, 0}}
	for _, k := range []circuit.GateType{circuit.And, circuit.Nand, circuit.Or, circuit.Nor, circuit.Xor, circuit.Xnor} {
		for n := 1; n <= 4; n++ {
			shapes = append(shapes, shape{k, n})
		}
	}
	s := new(search)
	evals := 0
	for _, sh := range shapes {
		// Gate g drives the output buffer o: a fault on o leaves g
		// fault-free, and a fault on g makes it the site.
		c := circuit.New("gate")
		in := make([]int, sh.fanin)
		for j := range in {
			in[j] = c.AddInput(fmt.Sprintf("i%d", j))
		}
		g := c.AddGate(sh.kind, "g", in...)
		o := c.AddGate(circuit.Buf, "o", g)
		c.MarkOutput(o)
		fl := []faults.Fault{{Node: o, Pin: -1}}
		for pin := -1; pin < sh.fanin; pin++ {
			fl = append(fl, faults.Fault{Node: g, Pin: pin}, faults.Fault{Node: g, Pin: pin, Stuck: true})
		}
		for _, f := range fl {
			s.load(c, f)
			line := int32(slices.Index(s.cone, g))
			ins := make([]int32, len(in))
			for j, id := range in {
				ins[j] = int32(slices.Index(s.cone, id))
				if got, want := s.eval(ins[j]), s.refEval(ins[j]); got != want {
					t.Fatalf("input line %d: eval %v, reference %v", j, got, want)
				}
			}
			tuples := 1
			for range ins {
				tuples *= len(values)
			}
			for code := range tuples {
				rest := code
				for _, l := range ins {
					s.val[l] = values[rest%len(values)]
					rest /= len(values)
				}
				evals++
				if got, want := s.eval(line), s.refEval(line); got != want {
					tuple := make([]Value, len(ins))
					for j, l := range ins {
						tuple[j] = s.val[l]
					}
					t.Fatalf("%v/%d, fault %v, inputs %v: eval %v, reference %v",
						sh.kind, sh.fanin, f, tuple, got, want)
				}
			}
		}
	}
	// Each shape's 5^fanin tuples under its 2*fanin+3 fault placements: BUF
	// and NOT, the constants, and 6 kinds at fanin 1 to 4.
	if want := 2*5*5 + 2*3 + 6*(5*5+25*7+125*9+625*11); evals != want {
		t.Fatalf("%d evaluations, want %d", evals, want)
	}
}

func TestConstantFaultInfeasible(t *testing.T) {
	// A fault requiring a constant to take its opposite value is redundant.
	c := circuit.New("k")
	a := c.AddInput("a")
	one := c.AddGate(circuit.Const1, "")
	g := c.AddGate(circuit.And, "g", a, one)
	c.MarkOutput(g)
	// Branch fault: pin 1 (the constant) stuck at 1 is unexcitable.
	res := Generate(c, faults.Fault{Node: g, Pin: 1, Stuck: true}, Options{})
	if res.Status != Redundant {
		t.Fatalf("const-equal stuck fault: %v", res.Status)
	}
}

func TestGenerateAbortsOnTinyLimit(t *testing.T) {
	// A hard redundant fault with backtrack limit 1 must abort (or prove
	// redundancy if the space is that small), never loop.
	c := circuit.New("t")
	a := c.AddInput("a")
	b := c.AddInput("b")
	d := c.AddInput("d")
	g1 := c.AddGate(circuit.And, "g1", a, b)
	g2 := c.AddGate(circuit.Or, "g2", a, g1)
	g3 := c.AddGate(circuit.And, "g3", g2, d)
	c.MarkOutput(g3)
	res := Generate(c, faults.Fault{Node: g1, Pin: -1, Stuck: false}, Options{BacktrackLimit: 1})
	if res.Status == Testable {
		t.Fatalf("redundant fault reported testable")
	}
}

func TestStatusStrings(t *testing.T) {
	if Testable.String() != "testable" || Redundant.String() != "redundant" || Aborted.String() != "aborted" {
		t.Fatal("status strings wrong")
	}
}

// matchRef runs Generate and the reference engine on fault f and fails the
// test unless Status, Test and Backtracks agree.
func matchRef(t *testing.T, name string, c *circuit.Circuit, f faults.Fault, limit int) Result {
	t.Helper()
	opt := Options{BacktrackLimit: limit}
	got, want := Generate(c, f, opt), refGenerate(c, f, opt)
	if got.Status != want.Status || got.Backtracks != want.Backtracks || !slices.Equal(got.Test, want.Test) {
		t.Fatalf("%s: fault %v: got %v/%d backtracks/test %v, reference %v/%d/%v",
			name, f, got.Status, got.Backtracks, got.Test, want.Status, want.Backtracks, want.Test)
	}
	return got
}

// shuffleDecl re-parses c with its gate declarations in a seeded random
// order: the same function and names, different node IDs and c.Topo().
func shuffleDecl(t *testing.T, c *circuit.Circuit, seed int64) *circuit.Circuit {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(bench.String(c)), "\n")
	var head, gates []string
	for _, l := range lines {
		if strings.Contains(l, " = ") {
			gates = append(gates, l)
		} else {
			head = append(head, l)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(gates), func(i, j int) { gates[i], gates[j] = gates[j], gates[i] })
	s, err := bench.ParseString(strings.Join(append(head, gates...), "\n"), c.Name+"-shuffled")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// removalRound replays one round of redundancy removal's ATPG loop: every
// collapsed fault is decided against the live circuit, and each redundant
// one folds its line to a constant before the next fault is tried, so later
// calls see the constant lines removal leaves mid-round.
func removalRound(t *testing.T, name string, c *circuit.Circuit, limit int) (removed int) {
	t.Helper()
	for _, f := range faults.Collapse(c) {
		if !c.Alive(f.Node) || f.Pin >= len(c.Nodes[f.Node].Fanin) {
			continue
		}
		if matchRef(t, name, c, f, limit).Status != Redundant {
			continue
		}
		removed++
		nd := c.Nodes[f.Node]
		switch {
		case f.Pin < 0:
			c.SetConstant(f.Node, f.Stuck)
		case nd.Type == circuit.Not:
			c.SetConstant(f.Node, !f.Stuck)
		case nd.Type == circuit.Buf:
			c.SetConstant(f.Node, f.Stuck)
		case f.Stuck:
			c.SetFanin(f.Node, f.Pin, c.AddGate(circuit.Const1, ""))
		default:
			c.SetFanin(f.Node, f.Pin, c.AddGate(circuit.Const0, ""))
		}
	}
	return removed
}

func TestGenerateMatchesRef(t *testing.T) {
	c17, _ := bench.ParseString(bench.C17, "c17")
	adder, err := os.ReadFile("../../circuits/adder4.bench")
	if err != nil {
		t.Fatal(err)
	}
	adder4, err := bench.ParseString(string(adder), "adder4")
	if err != nil {
		t.Fatal(err)
	}
	rs9234 := gen.Suite(0.15)[2].Build()
	rs35932, hard := hardFaults(5)
	type run struct {
		c     *circuit.Circuit
		fl    []faults.Fault // nil: every collapsed fault
		limit int
	}
	// The small circuits get room for deep searches; quick-scale rs9234
	// gets a limit at which a third of its faults abort, which also keeps
	// the reference engine's full re-simulations affordable under -race.
	// Quick rs35932 contributes the faults redundancy removal leaves for
	// PODEM after its random filter: its wide gates and its aborts.
	runs := []run{{c17, nil, 200}, {adder4, nil, 200}, {rs9234, nil, 5},
		{shuffleDecl(t, rs9234, 1), nil, 5}, {rs35932, hard, 5}}
	for _, b := range gen.SmallSuite() {
		runs = append(runs, run{b.Build(), nil, 200})
	}
	var mu sync.Mutex
	seen := map[Status]int{}
	// Subtests share nothing but seen, so they run in parallel; the group
	// returns once every one of them has.
	t.Run("group", func(t *testing.T) {
		for _, r := range runs {
			t.Run(r.c.Name, func(t *testing.T) {
				t.Parallel()
				fl := r.fl
				if fl == nil {
					fl = faults.Collapse(r.c)
				}
				for _, f := range fl {
					st := matchRef(t, r.c.Name, r.c, f, r.limit).Status
					mu.Lock()
					seen[st]++
					mu.Unlock()
				}
			})
		}
		// Mid-round circuits: constant lines that no simplification has
		// yet propagated, on two declaration orders.
		for i, b := range gen.SmallSuite() {
			t.Run("midround-"+b.Name, func(t *testing.T) {
				t.Parallel()
				c := b.Build()
				for _, c := range []*circuit.Circuit{c, shuffleDecl(t, c, int64(i))} {
					if removalRound(t, c.Name, c, 200) == 0 {
						t.Errorf("%s: removal round folded no line", c.Name)
					}
				}
			})
		}
	})
	for _, st := range []Status{Testable, Redundant, Aborted} {
		if seen[st] == 0 {
			t.Errorf("no %v call: the pin misses an outcome (%v)", st, seen)
		}
	}
}

// parityMiter returns a circuit whose output AND(p, NOT q) is constant 0,
// where p and q are two separately built parity chains over n inputs. Its
// output stuck-at-0 fault is redundant, and PODEM can only prove it by
// enumerating the inputs, so any backtrack limit below 2^n aborts.
func parityMiter(n int) (*circuit.Circuit, faults.Fault) {
	c := circuit.New("miter")
	in := make([]int, n)
	for i := range in {
		in[i] = c.AddInput(fmt.Sprintf("a%d", i))
	}
	p, q := in[0], in[n-1]
	for i := 1; i < n; i++ {
		p = c.AddGate(circuit.Xor, "", p, in[i])
		q = c.AddGate(circuit.Xor, "", q, in[n-1-i])
	}
	out := c.AddGate(circuit.And, "out", p, c.AddGate(circuit.Not, "", q))
	c.MarkOutput(out)
	return c, faults.Fault{Node: out, Pin: -1, Stuck: false}
}

func TestGenerateAllocsIndependentOfSearch(t *testing.T) {
	// Search scratch is reused and sized per cone, so a search that runs
	// 25x longer allocates exactly as much: nothing is allocated per
	// decision or per backtrack. The pin drives one search directly rather
	// than through the pool, which the race detector empties at random.
	c, f := parityMiter(16)
	s := new(search)
	allocs := func(limit int) float64 {
		if r := s.run(c, f, limit); r.Status != Aborted {
			t.Fatalf("limit %d: %v, want aborted", limit, r.Status)
		}
		return testing.AllocsPerRun(20, func() { s.run(c, f, limit) })
	}
	if short, long := allocs(200), allocs(5000); short != long {
		t.Fatalf("allocs per call: %v at limit 200, %v at limit 5000", short, long)
	}
}
