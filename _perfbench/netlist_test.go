package main

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"compsynth/internal/bench"
	"compsynth/internal/gen"
	"compsynth/internal/paths"
	"compsynth/internal/resynth"
)

// c17 is listed out of order on purpose: the parser must place gates.
const c17 = `# c17
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
22 = NAND(10, 16)
23 = NAND(16, 19)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
`

func TestParseAndEvalC17(t *testing.T) {
	n, err := parseBench(c17)
	if err != nil {
		t.Fatal(err)
	}
	if n.equiv2() != 6 {
		t.Errorf("equiv2 = %d, want 6", n.equiv2())
	}
	if p, err := n.paths(); err != nil || p != 11 {
		t.Errorf("paths = %d, %v; want 11", p, err)
	}
	in := make([]uint64, 5)
	for j := range in {
		in[j] = lanePattern[j]
	}
	val := n.eval(in, nil)
	for lane := 0; lane < 32; lane++ {
		b := func(j int) bool { return lane>>j&1 == 1 }
		x1, x2, x3, x6, x7 := b(0), b(1), b(2), b(3), b(4)
		nand := func(a, b bool) bool { return !(a && b) }
		g10, g11 := nand(x1, x3), nand(x3, x6)
		g16, g19 := nand(x2, g11), nand(g11, x7)
		want := []bool{nand(g10, g16), nand(g16, g19)}
		for i, o := range n.outputs {
			if got := val[o]>>lane&1 == 1; got != want[i] {
				t.Fatalf("lane %d output %d = %v, want %v", lane, i, got, want[i])
			}
		}
	}
}

func TestParseRejects(t *testing.T) {
	for name, text := range map[string]string{
		"cycle":     "INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = OR(x, a)\n",
		"undefined": "INPUT(a)\nOUTPUT(x)\nx = AND(a, b)\n",
		"undriven":  "INPUT(a)\nOUTPUT(z)\nx = NOT(a)\n",
		"arity":     "INPUT(a)\nINPUT(b)\nOUTPUT(x)\nx = NOT(a, b)\n",
		"type":      "INPUT(a)\nOUTPUT(x)\nx = DFF(a)\n",
		"garbage":   "INPUT(a)\nOUTPUT(x)\nx AND a\n",
		"duplicate": "INPUT(a)\nOUTPUT(x)\nx = NOT(a)\nx = BUF(a)\n",
	} {
		if _, err := parseBench(text); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

// quick returns the quick-scale gen.Suite netlist as .bench text.
func quick(t *testing.T, name string) string {
	t.Helper()
	for _, b := range gen.Suite(quickScale) {
		if b.Name == name {
			return bench.String(b.Build())
		}
	}
	t.Fatalf("no %s", name)
	return ""
}

// The counts must agree with the program's on the same text, and a
// reordered variant must keep the function and the counts.
func TestCountsAndVariants(t *testing.T) {
	for _, name := range []string{"rs1423", "rs9234", "rs35932"} {
		text := quick(t, name)
		ref, err := parseBench(text)
		if err != nil {
			t.Fatal(err)
		}
		c, err := bench.ParseString(text, name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ref.paths()
		if err != nil {
			t.Fatal(err)
		}
		if ref.equiv2() != c.Equiv2Count() || p != paths.MustCount(c) {
			t.Errorf("%s: benchmark counts %d gates %d paths, program %d, %d",
				name, ref.equiv2(), p, c.Equiv2Count(), paths.MustCount(c))
		}
		v := ref.writeBench(rand.New(rand.NewSource(7)))
		if v == text {
			t.Fatalf("%s: variant equals the original text", name)
		}
		got, err := parseBench(v)
		if err != nil {
			t.Fatal(err)
		}
		vp, _ := got.paths()
		if bad, _, err := mismatch(ref, got, 1); err != nil || bad != 0 || got.equiv2() != ref.equiv2() || vp != p {
			t.Errorf("%s: variant differs: %d bad patterns, %v, gates %d paths %d", name, bad, err, got.equiv2(), vp)
		}
		pc, err := bench.ParseString(v, name)
		if err != nil {
			t.Fatal(err)
		}
		back, err := fromCircuit(pc)
		if err != nil {
			t.Fatal(err)
		}
		if bad, _, err := mismatch(ref, back, 2); err != nil || bad != 0 {
			t.Errorf("%s: program's parse of the variant differs: %d, %v", name, bad, err)
		}
	}
}

func TestMismatchCountsPatterns(t *testing.T) {
	ref, _ := parseBench(c17)
	// Complementing gate 19 flips output 23 = NAND(16, 19) exactly where
	// gate 16 is 1, and leaves output 22 alone.
	broken, err := parseBench(strings.Replace(c17, "19 = NAND(11, 7)", "19 = AND(11, 7)", 1))
	if err != nil {
		t.Fatal(err)
	}
	bad, applied, err := mismatch(ref, broken, 1)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 32 {
		t.Errorf("applied %d patterns to 5 inputs, want all 32", applied)
	}
	want := 0
	for lane := 0; lane < 32; lane++ {
		x2, x3, x6 := lane>>1&1 == 1, lane>>2&1 == 1, lane>>3&1 == 1
		if g16 := !(x2 && !(x3 && x6)); g16 {
			want++
		}
	}
	if bad != want {
		t.Errorf("bad = %d, want %d", bad, want)
	}
	if _, _, err := mismatch(ref, &netlist{}, 1); err == nil {
		t.Error("interface mismatch not reported")
	}
	// Three inputs fill 8 of a word's 64 lanes; the rest must not count.
	and, _ := parseBench("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(x)\nx = AND(a, b, c)\n")
	or, _ := parseBench("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(x)\nx = OR(a, b, c)\n")
	if bad, applied, err := mismatch(and, or, 1); err != nil || bad != 6 || applied != 8 {
		t.Errorf("AND vs OR of 3 inputs: %d of %d differ (%v), want 6 of 8", bad, applied, err)
	}
}

// The known Procedure 3 defect: with per-pass Verify off, K = 5 on the
// quick-scale rs35932 analog returns a netlist that differs from its input,
// and the checker must say so; K = 6 returns an equivalent one.
func TestCheckerOnProcedure3(t *testing.T) {
	if testing.Short() {
		t.Skip("runs resynthesis on a 954-gate netlist")
	}
	text := quick(t, "rs35932")
	ref, err := parseBench(text)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := ref.paths()
	in := &input{net: "rs35932", text: text, ref: ref, paths: p, checkSeed: 1}
	c, err := bench.ParseString(text, "rs35932")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{5, 6} {
		opt := resynth.DefaultOptions()
		opt.Objective = resynth.MinPaths
		opt.K = k
		opt.Verify = k == 6
		res, err := resynth.Optimize(c, opt)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		_, err = checkRewrite(in, res.Circuit, res.GatesBefore, res.GatesAfter, res.PathsBefore, res.PathsAfter)
		var me *mismatchError
		if k == 5 && !errors.As(err, &me) {
			t.Errorf("K=5 with Verify off: checker returned %v, want a mismatch", err)
		}
		if k == 6 && err != nil {
			t.Errorf("K=6: checker rejected the output: %v", err)
		}
	}
}
