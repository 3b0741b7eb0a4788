// Package ledger builds the run certificate (-cert) and the checks that
// replay it. A certificate records what a run claims: canonical digests of
// the input and output netlists, a digest of the semantic options, an
// equivalence witness between the two circuits, per-replacement evidence
// recorded by the resynthesis engine at replacement time, and the
// comparison-unit path-bound proof summary (Section 2 of Pomeranz & Reddy,
// DAC 1995). It holds no wall-clock or host-dependent content, so two runs on
// identical inputs and semantic options write byte-identical files.
// cmd/sftverify re-derives every claim offline from the two netlists.
//
// Trust model: all digests are SHA-256 and unkeyed. The body digest catches
// corruption of the certificate, not forgery: whoever can rewrite the file
// can recompute it. The other checks do not rest on it. The circuit
// digests, the equivalence witness (its patterns derived from the circuit
// digests) and the path proof are recomputed from the netlists, and each
// replacement's evidence from its recorded cone function, so a certificate
// whose claims do not hold fails however it was produced.
//
// Importing the package installs the certificate writer into internal/obs
// (side-effect registration, mirroring net/http/pprof):
//
//	import _ "compsynth/internal/ledger"
package ledger

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"

	"compsynth/internal/circuit"
	"compsynth/internal/obs"
	"compsynth/internal/simulate"
)

func init() {
	obs.RegisterCertifier(writeCert)
}

// CertVersion is the certificate format version. v2: SHA-256 digests.
const CertVersion = 2

// circuitMagic versions the canonical netlist serialization CircuitDigest
// hashes.
const circuitMagic = "sft-circuit/v2"

// Witness parameters: cones up to maxExhaustiveInputs primary inputs get an
// exhaustive response digest; larger circuits get sampledRounds*64 seeded
// random patterns (matching the pipeline's own equivalence-check defaults).
const (
	maxExhaustiveInputs = 14
	sampledRounds       = 32
)

// Certificate is the verifiable record of one run: what went in, what came
// out, and the evidence that the two agree. Every field is deterministic —
// no wall clock, no host state — so two runs on identical inputs and
// options produce byte-identical certificates.
type Certificate struct {
	Version int    `json:"version"`
	Tool    string `json:"tool"`
	Error   string `json:"error,omitempty"`

	Options *OptionsInfo `json:"options,omitempty"`
	Input   *CircuitCert `json:"input,omitempty"`
	Output  *CircuitCert `json:"output,omitempty"`

	// Equivalence is the input/output functional-agreement witness (present
	// when the run observed both circuits).
	Equivalence *EquivWitness `json:"equivalence,omitempty"`

	// Evidence holds one entry per resynthesis replacement, recorded at
	// replacement time (resynth.Options.Certify).
	Evidence []Evidence `json:"evidence,omitempty"`

	// PathProof summarizes the paper's testability guarantee on the output
	// circuit: every comparison unit keeps at most Bound paths from any
	// input to any output (Lemma 1 / CheckComparisonUnits).
	PathProof *PathProof `json:"path_proof,omitempty"`

	// BodyDigest is the digest of this certificate marshaled with BodyDigest
	// cleared.
	BodyDigest string `json:"body_digest"`
}

// OptionsInfo echoes the command's semantic options and their digest.
type OptionsInfo struct {
	Echo   json.RawMessage `json:"echo"`
	Digest string          `json:"digest"`
}

// CircuitCert identifies one netlist by shape and canonical digest.
type CircuitCert struct {
	Name    string `json:"name"`
	Inputs  int    `json:"inputs"`
	Outputs int    `json:"outputs"`
	Gates   int    `json:"gates"`
	Equiv2  int    `json:"equiv2"`
	Digest  string `json:"digest"`
}

// EquivWitness records how input/output agreement was established: an
// exhaustive sweep for small input counts, otherwise Rounds*64 random
// patterns from Seed. Response is the shared output-response digest; a
// verifier with the two netlists replays the same patterns and must land on
// the same value for both.
type EquivWitness struct {
	Mode     string `json:"mode"` // "exhaustive" or "sampled"
	Seed     int64  `json:"seed,omitempty"`
	Rounds   int    `json:"rounds,omitempty"`
	Inputs   int    `json:"inputs"`
	Outputs  int    `json:"outputs"`
	Response string `json:"response"`
}

// PathProof summarizes the comparison-unit path bound on the output circuit.
type PathProof struct {
	Units            int    `json:"units"`
	MaxPathsPerInput uint64 `json:"max_paths_per_input"`
	Bound            uint64 `json:"bound"`
}

// CircuitDigest hashes a canonical serialization of the netlist: primary
// input names in declaration order, primary output names in declaration
// order, then one "name = TYPE(fanin,...)" line per gate sorted by gate
// name. The form depends only on names, gate types and pin order — never on
// node IDs or construction order — so it is invariant under .bench
// write/parse round trips.
func CircuitDigest(c *circuit.Circuit) H {
	d := hnew().bytes([]byte(circuitMagic))
	d = d.int(len(c.Inputs))
	for _, id := range c.Inputs {
		d = d.bytes([]byte(c.Nodes[id].Name))
	}
	d = d.int(len(c.Outputs))
	for _, id := range c.Outputs {
		d = d.bytes([]byte(c.Nodes[id].Name))
	}
	var lines []string
	var sb strings.Builder
	for _, id := range c.Topo() {
		nd := c.Nodes[id]
		if nd.Type == circuit.Input {
			continue
		}
		sb.Reset()
		sb.WriteString(nd.Name)
		sb.WriteString(" = ")
		sb.WriteString(nd.Type.String())
		sb.WriteByte('(')
		for i, f := range nd.Fanin {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(c.Nodes[f].Name)
		}
		sb.WriteByte(')')
		lines = append(lines, sb.String())
	}
	sort.Strings(lines)
	d = d.int(len(lines))
	for _, ln := range lines {
		d = d.bytes([]byte(ln))
	}
	return d.sum()
}

func circuitCert(c *circuit.Circuit) *CircuitCert {
	return &CircuitCert{
		Name:    c.Name,
		Inputs:  len(c.Inputs),
		Outputs: len(c.Outputs),
		Gates:   c.NumGates(),
		Equiv2:  c.Equiv2Count(),
		Digest:  CircuitDigest(c).Hex(),
	}
}

// WitnessParams derives the witness mode, seed and round count from the two
// circuit digests and the input count. The seed is a function of the
// netlists themselves, so neither the producer nor a forger gets to pick
// favorable patterns.
func WitnessParams(inputDigest, outputDigest string, inputs int) (mode string, seed int64, rounds int) {
	if inputs <= maxExhaustiveInputs {
		return "exhaustive", 0, 0
	}
	d := hnew().bytes([]byte(inputDigest)).bytes([]byte(outputDigest)).sum()
	return "sampled", int64(binary.LittleEndian.Uint64(d[:8])), sampledRounds
}

// WitnessResponse simulates c under the witness patterns and digests the
// primary-output responses. Two circuits are pattern-equivalent under the
// witness iff their responses match.
func WitnessResponse(c *circuit.Circuit, mode string, seed int64, rounds int) (string, error) {
	s := simulate.New(c)
	n := len(c.Inputs)
	d := hnew()
	switch mode {
	case "exhaustive":
		if n > maxExhaustiveInputs {
			return "", fmt.Errorf("exhaustive witness over %d inputs (max %d)", n, maxExhaustiveInputs)
		}
		total := uint64(1) << n
		for base := uint64(0); base < total; base += 64 {
			for j := 0; j < n; j++ {
				var w uint64
				for b := uint64(0); b < 64 && base+b < total; b++ {
					if (base+b)>>uint(j)&1 == 1 {
						w |= 1 << b
					}
				}
				s.SetInput(j, w)
			}
			s.Run()
			m := maskRemaining(total - base)
			for j := range c.Outputs {
				d = d.word(s.Output(j) & m)
			}
		}
	case "sampled":
		rng := rand.New(rand.NewSource(seed))
		for r := 0; r < rounds; r++ {
			for j := 0; j < n; j++ {
				s.SetInput(j, rng.Uint64())
			}
			s.Run()
			for j := range c.Outputs {
				d = d.word(s.Output(j))
			}
		}
	default:
		return "", fmt.Errorf("unknown witness mode %q", mode)
	}
	return d.sum().Hex(), nil
}

// VerifyEquivalence replays a certificate's equivalence witness against the
// two netlists. The witness mode, seed and round count are NOT taken from
// the certificate — they are re-derived from the circuit digests
// (WitnessParams), so a forged certificate cannot claim a favorable or
// empty pattern set (e.g. "sampled" with zero rounds): its recorded
// parameters must match the forced derivation exactly, and both circuits
// must reproduce the recorded response under it. Returns the derived mode
// alongside any verification error. cert.Input and cert.Output must be
// present and already checked against in and out (CircuitDigest).
func VerifyEquivalence(cert *Certificate, in, out *circuit.Circuit) (string, error) {
	w := cert.Equivalence
	mode, seed, rounds := WitnessParams(cert.Input.Digest, cert.Output.Digest, len(in.Inputs))
	if len(out.Inputs) != len(in.Inputs) || len(out.Outputs) != len(in.Outputs) {
		return mode, fmt.Errorf("netlist shapes differ: input %d in/%d out, output %d in/%d out",
			len(in.Inputs), len(in.Outputs), len(out.Inputs), len(out.Outputs))
	}
	if w == nil {
		return mode, fmt.Errorf("certificate records both circuits but no equivalence witness")
	}
	if w.Mode != mode || w.Seed != seed || w.Rounds != rounds {
		return mode, fmt.Errorf("witness parameters not the forced derivation: certificate says %s/seed %d/%d rounds, circuit digests require %s/seed %d/%d rounds",
			w.Mode, w.Seed, w.Rounds, mode, seed, rounds)
	}
	if w.Inputs != len(in.Inputs) || w.Outputs != len(in.Outputs) {
		return mode, fmt.Errorf("witness shape %d in/%d out != netlists %d/%d",
			w.Inputs, w.Outputs, len(in.Inputs), len(in.Outputs))
	}
	ri, err := WitnessResponse(in, mode, seed, rounds)
	if err != nil {
		return mode, err
	}
	ro, err := WitnessResponse(out, mode, seed, rounds)
	if err != nil {
		return mode, err
	}
	if ri != w.Response {
		return mode, fmt.Errorf("input circuit response %s != recorded %s", ri, w.Response)
	}
	if ro != w.Response {
		return mode, fmt.Errorf("output circuit response %s != recorded %s", ro, w.Response)
	}
	return mode, nil
}

func maskRemaining(remaining uint64) uint64 {
	if remaining >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << remaining) - 1
}

// buildCert assembles the certificate from the run state and stamps its
// body digest.
func buildCert(r *obs.Run) (*Certificate, error) {
	cert := &Certificate{
		Version: CertVersion,
		Tool:    r.Report.Tool,
		Error:   r.Report.Error,
	}
	if raw := r.CertOptions(); raw != nil {
		cert.Options = &OptionsInfo{
			Echo:   raw,
			Digest: hnew().bytes(raw).sum().Hex(),
		}
	}
	before, after := r.CertCircuits()
	if before != nil {
		cert.Input = circuitCert(before)
	}
	if after != nil {
		cert.Output = circuitCert(after)
	}
	if before != nil && after != nil &&
		len(before.Inputs) == len(after.Inputs) && len(before.Outputs) == len(after.Outputs) {
		mode, seed, rounds := WitnessParams(cert.Input.Digest, cert.Output.Digest, len(before.Inputs))
		respIn, err := WitnessResponse(before, mode, seed, rounds)
		if err != nil {
			return nil, fmt.Errorf("witness on input circuit: %v", err)
		}
		respOut, err := WitnessResponse(after, mode, seed, rounds)
		if err != nil {
			return nil, fmt.Errorf("witness on output circuit: %v", err)
		}
		if respIn != respOut {
			return nil, fmt.Errorf("witness: input and output circuits disagree (%s mode)", mode)
		}
		cert.Equivalence = &EquivWitness{
			Mode: mode, Seed: seed, Rounds: rounds,
			Inputs: len(before.Inputs), Outputs: len(before.Outputs),
			Response: respIn,
		}
	}
	for _, item := range r.CertEvidence() {
		ev, ok := item.(Evidence)
		if !ok {
			return nil, fmt.Errorf("evidence item of unexpected type %T", item)
		}
		cert.Evidence = append(cert.Evidence, ev)
	}
	proofOn := after
	if proofOn == nil {
		proofOn = before
	}
	if proofOn != nil {
		units, maxPaths := circuit.ComparisonUnitStats(proofOn)
		cert.PathProof = &PathProof{Units: units, MaxPathsPerInput: maxPaths, Bound: 2}
	}
	dg, err := BodyDigest(cert)
	if err != nil {
		return nil, err
	}
	cert.BodyDigest = dg
	return cert, nil
}

// BodyDigest computes the digest of the certificate body: the certificate
// marshaled with BodyDigest cleared.
func BodyDigest(cert *Certificate) (string, error) {
	body := *cert
	body.BodyDigest = ""
	raw, err := json.Marshal(&body)
	if err != nil {
		return "", err
	}
	return hnew().bytes(raw).sum().Hex(), nil
}

// writeCert builds the run's certificate and writes it to path. Registered
// as the obs -cert hook.
func writeCert(r *obs.Run, path string) error {
	cert, err := buildCert(r)
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(cert, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// ReadCertificate loads and parses a certificate file.
func ReadCertificate(path string) (*Certificate, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cert Certificate
	if err := json.Unmarshal(raw, &cert); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if cert.Version != CertVersion {
		return nil, fmt.Errorf("%s: unsupported certificate version %d", path, cert.Version)
	}
	return &cert, nil
}
