package ledger_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"compsynth/internal/bench"
	"compsynth/internal/circuit"
	"compsynth/internal/compare"
	"compsynth/internal/ledger"
	"compsynth/internal/logic"
	"compsynth/internal/obs"
)

func TestEvidenceVerify(t *testing.T) {
	spec := compare.Spec{N: 3, Perm: []int{2, 0, 1}, L: 2, U: 5}
	tt := spec.Table()
	ev := ledger.Evidence{
		Pass: 1, Gate: "g7", Vars: 3,
		TT:   tt.Hex(),
		Spec: ledger.SpecInfoOf(spec),
	}
	if err := ledger.VerifyEvidence(ev); err != nil {
		t.Fatalf("valid evidence rejected: %v", err)
	}

	// A flipped minterm must be caught...
	bad := ev
	flipped := tt.Clone()
	flipped.Set(0, !tt.Get(0))
	bad.TT = flipped.Hex()
	if err := ledger.VerifyEvidence(bad); err == nil {
		t.Fatal("corrupt truth table accepted")
	}
	// ...unless the care set marks that minterm as a don't-care.
	care := logic.New(3).Not()
	care.Set(0, false)
	bad.Care = care.Hex()
	if err := ledger.VerifyEvidence(bad); err != nil {
		t.Fatalf("don't-care disagreement rejected: %v", err)
	}

	multi := compare.MultiSpec{N: 3, Perm: []int{0, 1, 2}, Intervals: [][2]int{{1, 2}, {5, 6}}}
	mev := ledger.Evidence{
		Pass: 2, Gate: "g9", Vars: 3,
		TT:   multi.Table().Hex(),
		Spec: ledger.SpecInfoOf(multi),
	}
	if err := ledger.VerifyEvidence(mev); err != nil {
		t.Fatalf("valid multi evidence rejected: %v", err)
	}

	mangled := ev
	mangled.Spec.Kind = "nonsense"
	if err := ledger.VerifyEvidence(mangled); err == nil {
		t.Fatal("unknown spec kind accepted")
	}
}

// TestCircuitDigestRoundTrip pins the canonical digest's invariance under a
// .bench write/parse round trip, and its sensitivity to actual edits.
func TestCircuitDigestRoundTrip(t *testing.T) {
	for _, path := range []string{"../../circuits/c17.bench", "../../circuits/adder4.bench"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		c, err := bench.ParseString(string(raw), "x")
		if err != nil {
			t.Fatal(err)
		}
		d1 := ledger.CircuitDigest(c).Hex()
		c2, err := bench.ParseString(bench.String(c), "x")
		if err != nil {
			t.Fatal(err)
		}
		if d2 := ledger.CircuitDigest(c2).Hex(); d2 != d1 {
			t.Fatalf("%s: digest not stable under round trip: %s vs %s", path, d1, d2)
		}
	}
	a := circuit.New("t")
	x, y := a.AddInput("x"), a.AddInput("y")
	a.MarkOutput(a.AddGate(circuit.And, "g", x, y))
	da := ledger.CircuitDigest(a).Hex()
	b := circuit.New("t")
	x, y = b.AddInput("x"), b.AddInput("y")
	b.MarkOutput(b.AddGate(circuit.Or, "g", x, y))
	if db := ledger.CircuitDigest(b).Hex(); db == da {
		t.Fatal("AND and OR circuits digest identically")
	}
}

// twoGateCircuit builds a tiny netlist for the lifecycle tests.
func twoGateCircuit() *circuit.Circuit {
	c := circuit.New("tiny")
	x, y, z := c.AddInput("x"), c.AddInput("y"), c.AddInput("z")
	g1 := c.AddGate(circuit.And, "g1", x, y)
	c.MarkOutput(c.AddGate(circuit.Or, "g2", g1, z))
	return c
}

// readEvents parses an -events file and pins its format: every line is one
// plain obs.Event with a type, with no seq/chain envelope around it, and no
// certificate-digest event rides the stream.
func readEvents(t *testing.T, path string) []obs.Event {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var evs []obs.Event
	for i, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(line, &fields); err != nil {
			t.Fatalf("events line %d is not one JSON object: %v\n%s", i+1, err, line)
		}
		for _, key := range []string{"seq", "chain", "ev"} {
			if _, ok := fields[key]; ok {
				t.Fatalf("events line %d carries a %q envelope: %s", i+1, key, line)
			}
		}
		var ev obs.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("events line %d is not an obs.Event: %v", i+1, err)
		}
		if ev.Type == "" || ev.Type == "cert" {
			t.Fatalf("events line %d has type %q: %s", i+1, ev.Type, line)
		}
		evs = append(evs, ev)
	}
	return evs
}

// TestRunLifecycle drives the full obs wiring: -events written as plain
// NDJSON, -cert built, and the certificate verifiable afterwards.
func TestRunLifecycle(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "events.ndjson")
	cert := filepath.Join(dir, "cert.json")
	f := &obs.Flags{Workers: 1, Events: events, Cert: cert}
	run := f.Start("ledgertest")
	c := twoGateCircuit()
	run.CircuitBefore(c)
	run.CircuitAfter(c)
	run.SetCertOptions(struct {
		K int `json:"k"`
	}{5})
	spec := compare.Spec{N: 2, Perm: []int{0, 1}, L: 3, U: 3}
	run.AddEvidence(ledger.Evidence{
		Pass: 1, Gate: "g1", Vars: 2, TT: spec.Table().Hex(), Spec: ledger.SpecInfoOf(spec),
	})
	if err := run.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}

	evs := readEvents(t, events)
	if first, last := evs[0].Type, evs[len(evs)-1].Type; first != "run_start" || last != "run_end" {
		t.Fatalf("event stream runs %s ... %s, want run_start ... run_end", first, last)
	}

	cc, err := ledger.ReadCertificate(cert)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := ledger.BodyDigest(cc)
	if err != nil {
		t.Fatal(err)
	}
	if dg != cc.BodyDigest {
		t.Fatalf("certificate body digest mismatch: %s vs %s", dg, cc.BodyDigest)
	}
	if cc.Input == nil || cc.Output == nil || cc.Input.Digest != cc.Output.Digest {
		t.Fatalf("unexpected circuit certs: %+v %+v", cc.Input, cc.Output)
	}
	if cc.Equivalence == nil || cc.Equivalence.Mode != "exhaustive" {
		t.Fatalf("unexpected witness: %+v", cc.Equivalence)
	}
	w, err := ledger.WitnessResponse(c, cc.Equivalence.Mode, cc.Equivalence.Seed, cc.Equivalence.Rounds)
	if err != nil {
		t.Fatal(err)
	}
	if w != cc.Equivalence.Response {
		t.Fatalf("witness replay mismatch: %s vs %s", w, cc.Equivalence.Response)
	}
	if len(cc.Evidence) != 1 {
		t.Fatalf("want 1 evidence entry, got %d", len(cc.Evidence))
	}
	if err := ledger.VerifyEvidence(cc.Evidence[0]); err != nil {
		t.Fatalf("evidence verify: %v", err)
	}
}

// TestCertDeterministic pins the byte-reproducibility contract: -cert runs
// on identical inputs write byte-identical certificate files, with or
// without -events. It also pins that a certificate carrying the "ledger"
// block earlier versions added under -events still loads and still matches
// its body digest.
func TestCertDeterministic(t *testing.T) {
	dir := t.TempDir()
	write := func(path, events string) []byte {
		f := &obs.Flags{Workers: 1, Cert: path, Events: events}
		run := f.Start("ledgertest")
		c := twoGateCircuit()
		run.CircuitBefore(c)
		run.CircuitAfter(c)
		run.SetCertOptions(struct {
			K int `json:"k"`
		}{5})
		if err := run.Finish(); err != nil {
			t.Fatalf("finish: %v", err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	b1 := write(filepath.Join(dir, "a.json"), "")
	if b2 := write(filepath.Join(dir, "b.json"), ""); !bytes.Equal(b1, b2) {
		t.Fatal("certificates differ between identical runs")
	}
	if b3 := write(filepath.Join(dir, "c.json"), filepath.Join(dir, "c.ndjson")); !bytes.Equal(b1, b3) {
		t.Fatalf("certificate written with -events differs from one without:\n%s\n%s", b1, b3)
	}

	// The binding block earlier versions appended after body_digest.
	const binding = `,
  "ledger": {
    "records": 86,
    "batches": 2,
    "head": "cf074fa3f636d614058843e1ef2b0b74f96d7586056f5d537e6aa80b1fd6a836",
    "final_root": "81e268f348a77998b19e24651216d1803e910438a09986e418df65a0b87a462c"
  }
}
`
	body, ok := bytes.CutSuffix(b1, []byte("\n}\n"))
	if !ok {
		t.Fatalf("certificate does not end in a closing brace:\n%s", b1)
	}
	old := filepath.Join(dir, "old.json")
	if err := os.WriteFile(old, append(body, binding...), 0o644); err != nil {
		t.Fatal(err)
	}
	oc, err := ledger.ReadCertificate(old)
	if err != nil {
		t.Fatalf("certificate with a ledger block: %v", err)
	}
	dg, err := ledger.BodyDigest(oc)
	if err != nil {
		t.Fatal(err)
	}
	if dg != oc.BodyDigest {
		t.Fatalf("certificate with a ledger block: body digest %s, content hashes to %s", oc.BodyDigest, dg)
	}
	nc, err := ledger.ReadCertificate(filepath.Join(dir, "a.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(oc, nc) {
		t.Fatalf("the ledger block changed the loaded certificate:\n%+v\n%+v", oc, nc)
	}
}

// TestRunFailWritesArtifacts pins the crash-path contract: a run that ends
// in Fail still writes its certificate and an event stream that ends in
// run_end, both carrying the error.
func TestRunFailWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "events.ndjson")
	cert := filepath.Join(dir, "cert.json")
	f := &obs.Flags{Workers: 1, Events: events, Cert: cert}
	run := f.Start("ledgertest")
	run.CircuitBefore(twoGateCircuit())
	if code := run.Fail(errors.New("synthetic failure")); code == 0 {
		t.Fatal("Fail returned zero status")
	}
	evs := readEvents(t, events)
	if last := evs[len(evs)-1]; last.Type != "run_end" || last.Error != "synthetic failure" {
		t.Fatalf("failed run's stream ends in %+v, want run_end carrying the error", last)
	}
	cc, err := ledger.ReadCertificate(cert)
	if err != nil {
		t.Fatal(err)
	}
	if cc.Error != "synthetic failure" {
		t.Fatalf("certificate error = %q", cc.Error)
	}
}

// TestWitnessModes pins the mode split and the sampled witness's sensitivity
// to functional change.
func TestWitnessModes(t *testing.T) {
	mode, _, _ := ledger.WitnessParams("a", "b", 14)
	if mode != "exhaustive" {
		t.Fatalf("14 inputs: mode %s", mode)
	}
	mode, seed, rounds := ledger.WitnessParams("a", "b", 15)
	if mode != "sampled" || rounds <= 0 {
		t.Fatalf("15 inputs: mode %s rounds %d", mode, rounds)
	}
	mode2, seed2, _ := ledger.WitnessParams("a", "c", 15)
	if mode2 != "sampled" || seed == seed2 {
		t.Fatal("witness seed does not depend on the circuit digests")
	}

	and := func(name string, typ circuit.GateType) *circuit.Circuit {
		c := circuit.New(name)
		x, y := c.AddInput("x"), c.AddInput("y")
		c.MarkOutput(c.AddGate(typ, "g", x, y))
		return c
	}
	ra, err := ledger.WitnessResponse(and("a", circuit.And), "sampled", 42, 4)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := ledger.WitnessResponse(and("b", circuit.Nand), "sampled", 42, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ra == rb {
		t.Fatal("AND and NAND share a sampled response digest")
	}
	if _, err := ledger.WitnessResponse(and("c", circuit.And), "martian", 0, 0); err == nil {
		t.Fatal("unknown witness mode accepted")
	}
}

// TestVerifyEquivalenceForgery pins the witness-parameter enforcement: the
// verifier re-derives mode/seed/rounds from the circuit digests, so a
// forged certificate cannot pick its own pattern set.
func TestVerifyEquivalenceForgery(t *testing.T) {
	build := func(typ circuit.GateType) *circuit.Circuit {
		c := circuit.New("tiny")
		x, y, z := c.AddInput("x"), c.AddInput("y"), c.AddInput("z")
		g1 := c.AddGate(typ, "g1", x, y)
		c.MarkOutput(c.AddGate(circuit.Or, "g2", g1, z))
		return c
	}
	certFor := func(a, b *circuit.Circuit, w *ledger.EquivWitness) *ledger.Certificate {
		cc := func(c *circuit.Circuit) *ledger.CircuitCert {
			return &ledger.CircuitCert{
				Inputs: len(c.Inputs), Outputs: len(c.Outputs),
				Digest: ledger.CircuitDigest(c).Hex(),
			}
		}
		return &ledger.Certificate{Input: cc(a), Output: cc(b), Equivalence: w}
	}
	in, out := build(circuit.And), build(circuit.Or) // NOT equivalent

	// The forgery from the attack: mode "sampled" with zero rounds — the
	// response digest of zero patterns is identical for any two circuits,
	// so without parameter re-derivation this cert would verify.
	empty, err := ledger.WitnessResponse(in, "sampled", 12345, 0)
	if err != nil {
		t.Fatal(err)
	}
	forged := &ledger.EquivWitness{Mode: "sampled", Seed: 12345, Rounds: 0, Inputs: 3, Outputs: 1, Response: empty}
	if _, err := ledger.VerifyEquivalence(certFor(in, out, forged), in, out); err == nil {
		t.Fatal("zero-round sampled forgery accepted")
	} else if !strings.Contains(err.Error(), "forced derivation") {
		t.Fatalf("forgery rejected for the wrong reason: %v", err)
	}

	// Omitting the witness entirely must fail, not silently skip.
	if _, err := ledger.VerifyEquivalence(certFor(in, out, nil), in, out); err == nil {
		t.Fatal("certificate without a witness accepted")
	}

	// Honest parameters on non-equivalent circuits: the exhaustive replay
	// itself must catch the disagreement.
	mode, seed, rounds := ledger.WitnessParams(
		ledger.CircuitDigest(in).Hex(), ledger.CircuitDigest(out).Hex(), len(in.Inputs))
	respIn, err := ledger.WitnessResponse(in, mode, seed, rounds)
	if err != nil {
		t.Fatal(err)
	}
	honest := &ledger.EquivWitness{Mode: mode, Seed: seed, Rounds: rounds, Inputs: 3, Outputs: 1, Response: respIn}
	if _, err := ledger.VerifyEquivalence(certFor(in, out, honest), in, out); err == nil {
		t.Fatal("non-equivalent circuits verified under honest parameters")
	}

	// An equivalent pair under the honest derivation passes.
	in2 := build(circuit.And)
	mode, seed, rounds = ledger.WitnessParams(
		ledger.CircuitDigest(in).Hex(), ledger.CircuitDigest(in2).Hex(), len(in.Inputs))
	resp, err := ledger.WitnessResponse(in, mode, seed, rounds)
	if err != nil {
		t.Fatal(err)
	}
	ok := &ledger.EquivWitness{Mode: mode, Seed: seed, Rounds: rounds, Inputs: 3, Outputs: 1, Response: resp}
	if gotMode, err := ledger.VerifyEquivalence(certFor(in, in2, ok), in, in2); err != nil {
		t.Fatalf("honest witness rejected: %v", err)
	} else if gotMode != "exhaustive" {
		t.Fatalf("3-input witness mode %s", gotMode)
	}

	// Sampled regime (>14 inputs): a forged seed or round count is caught
	// by the same derivation check.
	wide := func(typ circuit.GateType) *circuit.Circuit {
		c := circuit.New("wide")
		acc := c.AddInput("x0")
		for i := 1; i < 15; i++ {
			acc = c.AddGate(typ, fmt.Sprintf("g%d", i), acc, c.AddInput(fmt.Sprintf("x%d", i)))
		}
		c.MarkOutput(acc)
		return c
	}
	wa, wb := wide(circuit.And), wide(circuit.And)
	mode, seed, rounds = ledger.WitnessParams(
		ledger.CircuitDigest(wa).Hex(), ledger.CircuitDigest(wb).Hex(), len(wa.Inputs))
	if mode != "sampled" {
		t.Fatalf("15-input witness mode %s", mode)
	}
	resp, err = ledger.WitnessResponse(wa, mode, seed+1, rounds)
	if err != nil {
		t.Fatal(err)
	}
	badSeed := &ledger.EquivWitness{Mode: mode, Seed: seed + 1, Rounds: rounds, Inputs: 15, Outputs: 1, Response: resp}
	if _, err := ledger.VerifyEquivalence(certFor(wa, wb, badSeed), wa, wb); err == nil {
		t.Fatal("attacker-chosen seed accepted")
	} else if !strings.Contains(err.Error(), "forced derivation") {
		t.Fatalf("seed forgery rejected for the wrong reason: %v", err)
	}
}
