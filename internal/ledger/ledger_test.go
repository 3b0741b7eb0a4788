package ledger_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compsynth/internal/bench"
	"compsynth/internal/circuit"
	"compsynth/internal/compare"
	"compsynth/internal/ledger"
	"compsynth/internal/logic"
	"compsynth/internal/obs"
	_ "compsynth/internal/obs/telemetry"
)

// buildStream produces a sealed ledger of n generic events with the given
// batch size.
func buildStream(t *testing.T, n, batchSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := ledger.NewWriterSize(&buf, batchSize)
	for i := 0; i < n; i++ {
		if err := w.Append(obs.Event{Type: "progress", Stage: "s", Done: int64(i + 1), Total: int64(n)}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return buf.Bytes()
}

func TestChainRoundTrip(t *testing.T) {
	data := buildStream(t, 10, 4)
	res, err := ledger.VerifyChain(data)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !res.Final || res.Truncated {
		t.Fatalf("want final, non-truncated; got %+v", res)
	}
	// 10 events + 3 batch seals (4+4+2) + 1 final record.
	if res.Events != 10 || res.Batches != 3 || res.Records != 14 {
		t.Fatalf("got %d events, %d batches, %d records", res.Events, res.Batches, res.Records)
	}
	if res.FinalRoot == "" || res.Head == "" {
		t.Fatalf("missing final root or head: %+v", res)
	}
}

func TestChainDeterministic(t *testing.T) {
	a := buildStream(t, 20, 8)
	b := buildStream(t, 20, 8)
	if !bytes.Equal(a, b) {
		t.Fatal("identical event sequences produced different ledgers")
	}
}

// TestTamperTable mutates a sealed stream in each of the classic ways and
// requires a distinct diagnosis naming the first bad sequence number.
func TestTamperTable(t *testing.T) {
	lines := func(data []byte) [][]byte {
		ls := bytes.Split(data, []byte("\n"))
		return ls[:len(ls)-1] // drop the empty tail after the final newline
	}
	join := func(ls [][]byte) []byte {
		return append(bytes.Join(ls, []byte("\n")), '\n')
	}
	cases := []struct {
		name    string
		mutate  func(ls [][]byte) [][]byte
		wantErr string
	}{
		{
			name: "flip-byte",
			mutate: func(ls [][]byte) [][]byte {
				// Flip a digit inside event 3's payload (Done: 4 -> 5).
				ls[3] = bytes.Replace(ls[3], []byte(`"done":4`), []byte(`"done":5`), 1)
				return ls
			},
			wantErr: "record 3: chain mismatch",
		},
		{
			name: "drop-record",
			mutate: func(ls [][]byte) [][]byte {
				return append(ls[:5:5], ls[6:]...)
			},
			wantErr: "record 5 missing",
		},
		{
			name: "reorder-records",
			mutate: func(ls [][]byte) [][]byte {
				ls[2], ls[3] = ls[3], ls[2]
				return ls
			},
			wantErr: "record 3 out of order",
		},
		{
			name: "splice-streams",
			mutate: func(ls [][]byte) [][]byte {
				// Graft the tail of a different (also internally valid)
				// stream onto our prefix.
				other := lines(func() []byte {
					var buf bytes.Buffer
					w := ledger.NewWriterSize(&buf, 4)
					for i := 0; i < 10; i++ {
						w.Append(obs.Event{Type: "progress", Stage: "other", Done: int64(i + 1), Total: 10})
					}
					w.Close()
					return buf.Bytes()
				}())
				return append(ls[:6:6], other[6:]...)
			},
			wantErr: "record 6: chain mismatch",
		},
		{
			name: "forged-batch-root",
			mutate: func(ls [][]byte) [][]byte {
				// Record 4 is the first batch seal (events 0-3). Flip one
				// hex digit of its root: the chain covers the seal payload,
				// so the forgery breaks the link.
				i := bytes.Index(ls[4], []byte(`"root":"`)) + len(`"root":"`)
				forged := append([]byte(nil), ls[4]...)
				if forged[i] == '0' {
					forged[i] = '1'
				} else {
					forged[i] = '0'
				}
				ls[4] = forged
				return ls
			},
			wantErr: "record 4: chain mismatch",
		},
		{
			name: "data-after-final",
			mutate: func(ls [][]byte) [][]byte {
				return append(ls, ls[0])
			},
			wantErr: "data after final root record",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := buildStream(t, 10, 4)
			mutated := join(tc.mutate(lines(data)))
			_, err := ledger.VerifyChain(mutated)
			if err == nil {
				t.Fatalf("tampered stream verified clean")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("got %q, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestTruncationTolerance cuts a sealed stream at every byte position: every
// prefix must verify as a valid (truncated) prefix, never as tampering.
func TestTruncationTolerance(t *testing.T) {
	data := buildStream(t, 10, 4)
	for cut := 0; cut < len(data); cut++ {
		res, err := ledger.VerifyChain(data[:cut])
		if err != nil {
			t.Fatalf("cut at byte %d: %v", cut, err)
		}
		if res.Final {
			// Only the cut that removes nothing but the trailing newline
			// leaves a complete, sealed stream.
			if cut != len(data)-1 {
				t.Fatalf("cut at byte %d: final root on a truncated stream", cut)
			}
			continue
		}
		if !res.Truncated {
			t.Fatalf("cut at byte %d: not reported truncated (%d records)", cut, res.Records)
		}
	}
	// Cutting whole records off the tail must keep the verified prefix
	// counting exactly the surviving records.
	ls := bytes.Split(data, []byte("\n"))
	ls = ls[:len(ls)-1]
	for keep := 0; keep < len(ls); keep++ {
		prefix := append(bytes.Join(ls[:keep], []byte("\n")), '\n')
		if keep == 0 {
			prefix = nil
		}
		res, err := ledger.VerifyChain(prefix)
		if err != nil {
			t.Fatalf("keep %d records: %v", keep, err)
		}
		if res.Records != int64(keep) {
			t.Fatalf("keep %d records: verified %d", keep, res.Records)
		}
	}
}

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

// TestRunLifecycle drives the full obs wiring: -events framed by the ledger,
// -cert built and cross-bound, everything verifiable afterwards.
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

	data, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := ledger.VerifyChain(data)
	if err != nil {
		t.Fatalf("ledger verify: %v", err)
	}
	if !chain.Final {
		t.Fatal("run ledger not sealed")
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
	if cc.Ledger == nil {
		t.Fatal("certificate carries no ledger binding")
	}
	if cc.Ledger.Head != chain.Head || cc.Ledger.FinalRoot != chain.FinalRoot {
		t.Fatalf("binding mismatch: cert %+v, chain head %s root %s", cc.Ledger, chain.Head, chain.FinalRoot)
	}
	found := false
	for _, d := range chain.CertDigests {
		if d == cc.BodyDigest {
			found = true
		}
	}
	if !found {
		t.Fatal("certificate digest not recorded in the ledger")
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

// TestCertDeterministic pins the byte-reproducibility contract: two -cert
// runs (no -events, so no wall-clock-bearing ledger) on identical inputs
// must produce byte-identical certificate files.
func TestCertDeterministic(t *testing.T) {
	dir := t.TempDir()
	write := func(path string) {
		f := &obs.Flags{Workers: 1, Cert: path}
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
	}
	p1, p2 := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	write(p1)
	write(p2)
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("certificates differ between identical runs")
	}
	var cc ledger.Certificate
	if err := json.Unmarshal(b1, &cc); err != nil {
		t.Fatal(err)
	}
	if cc.Ledger != nil {
		t.Fatal("certificate without -events carries a ledger binding")
	}
}

// TestRunFailSealsLedger pins the crash-path contract: a run that ends in
// Fail still seals its event ledger (final root present) and writes its
// certificate, carrying the error.
func TestRunFailSealsLedger(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "events.ndjson")
	cert := filepath.Join(dir, "cert.json")
	f := &obs.Flags{Workers: 1, Events: events, Cert: cert}
	run := f.Start("ledgertest")
	run.CircuitBefore(twoGateCircuit())
	if code := run.Fail(errors.New("synthetic failure")); code == 0 {
		t.Fatal("Fail returned zero status")
	}
	data, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := ledger.VerifyChain(data)
	if err != nil {
		t.Fatalf("failed run left an unverifiable ledger: %v", err)
	}
	if !chain.Final {
		t.Fatal("failed run left an unsealed ledger")
	}
	cc, err := ledger.ReadCertificate(cert)
	if err != nil {
		t.Fatal(err)
	}
	if cc.Error != "synthetic failure" {
		t.Fatalf("certificate error = %q", cc.Error)
	}
	if cc.Ledger == nil || cc.Ledger.FinalRoot != chain.FinalRoot {
		t.Fatalf("failed run's certificate not bound to its ledger: %+v", cc.Ledger)
	}
}

// TestTelemetryLedgerState checks the live surfaces: the chain-head info
// metric on /metrics and the ledger block in /progress.
func TestTelemetryLedgerState(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "events.ndjson")
	f := &obs.Flags{Workers: 1, Events: events, Listen: "127.0.0.1:0"}
	run := f.Start("ledgertest")
	addr := run.Server().Addr()

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	metrics := get("/metrics")
	if !strings.Contains(metrics, "ledger_chain_head_info{head=\"") {
		t.Fatalf("/metrics missing chain head info metric:\n%s", metrics)
	}
	var prog struct {
		Ledger *obs.LedgerState `json:"ledger"`
	}
	if err := json.Unmarshal([]byte(get("/progress")), &prog); err != nil {
		t.Fatal(err)
	}
	if prog.Ledger == nil || prog.Ledger.Head == "" {
		t.Fatalf("/progress missing ledger state: %+v", prog.Ledger)
	}
	if prog.Ledger.FinalRoot != "" {
		t.Fatal("/progress shows a final root on a live run")
	}
	if err := run.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	if ls, ok := run.LedgerState(); !ok || ls.FinalRoot == "" {
		t.Fatalf("post-run ledger state not retained: %+v ok=%v", ls, ok)
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

// TestTamperFixture keeps the committed tampered stream failing: ci.sh feeds
// it to sftverify and requires exit 1, so it must never start verifying.
func TestTamperFixture(t *testing.T) {
	data, err := os.ReadFile("testdata/tampered_c17.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ledger.VerifyChain(data); err == nil {
		t.Fatal("committed tampered fixture verifies clean")
	} else if !strings.Contains(err.Error(), "chain mismatch") {
		t.Fatalf("fixture fails for an unexpected reason: %v", err)
	}
}

func TestMerkleBatchBounds(t *testing.T) {
	// One event, huge batch: Close must seal the partial batch.
	var buf bytes.Buffer
	w := ledger.NewWriterSize(&buf, 1000)
	if err := w.Append(obs.Event{Type: "run_start"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := ledger.VerifyChain(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != 1 || res.Batches != 1 || !res.Final {
		t.Fatalf("got %+v", res)
	}
	// Zero events: still a sealed, verifiable (empty) ledger.
	var empty bytes.Buffer
	w = ledger.NewWriterSize(&empty, 4)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err = ledger.VerifyChain(empty.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != 0 || res.Batches != 0 || !res.Final {
		t.Fatalf("empty ledger: %+v", res)
	}
	if err := w.Append(obs.Event{Type: "late"}); err == nil {
		t.Fatal("append after close accepted")
	}
}

func ExampleVerifyChain() {
	var buf bytes.Buffer
	w := ledger.NewWriter(&buf)
	w.Append(obs.Event{Type: "run_start", Tool: "sft"})
	w.Append(obs.Event{Type: "run_end"})
	w.Close()
	res, err := ledger.VerifyChain(buf.Bytes())
	fmt.Println(err, res.Events, res.Final)
	// Output: <nil> 2 true
}
