// Command sftverify replays a run certificate (-cert output) offline and
// reports whether it holds up: the certificate's body digest and, when the
// netlists are provided, the circuit digests, the equivalence witness, every
// per-replacement evidence entry and the comparison-unit path bound.
//
// Usage:
//
//	sftverify -cert cert.json [-in input.bench] [-out output.bench] [-report report.json]
//
// Exit status: 0 — everything verified; 1 — verification failed (a netlist
// or certificate does not match its claims); 2 — usage or I/O error
// (nothing could be verified either way).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"compsynth"
	"compsynth/internal/circuit"
	"compsynth/internal/ledger"
)

// reportOut is the JSON verification report (-report, and always printed to
// stdout).
type reportOut struct {
	OK     bool       `json:"ok"`
	Checks []checkOut `json:"checks"`
}

type checkOut struct {
	Name  string `json:"name"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	Note  string `json:"note,omitempty"`
}

type verifier struct {
	rep reportOut
}

func (v *verifier) check(name string, note string, err error) {
	c := checkOut{Name: name, OK: err == nil, Note: note}
	if err != nil {
		c.Error = err.Error()
	}
	v.rep.Checks = append(v.rep.Checks, c)
}

func main() {
	certPath := flag.String("cert", "", "verify this run certificate (a -cert JSON file)")
	inPath := flag.String("in", "", "the run's input .bench netlist (checked against the certificate)")
	outPath := flag.String("out", "", "the run's output .bench netlist (checked against the certificate)")
	reportPath := flag.String("report", "", "also write the JSON verification report to this file")
	flag.Parse()
	if *certPath == "" || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: sftverify -cert cert.json [-in input.bench] [-out output.bench] [-report report.json]")
		os.Exit(2)
	}
	cert, err := ledger.ReadCertificate(*certPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sftverify: %v\n", err)
		os.Exit(2)
	}

	v := &verifier{}
	verifyCert(v, cert, *inPath, *outPath)

	v.rep.OK = true
	for _, c := range v.rep.Checks {
		if !c.OK {
			v.rep.OK = false
		}
	}
	raw, _ := json.MarshalIndent(&v.rep, "", "  ")
	raw = append(raw, '\n')
	os.Stdout.Write(raw)
	if *reportPath != "" {
		if err := os.WriteFile(*reportPath, raw, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sftverify: %v\n", err)
			os.Exit(2)
		}
	}
	if !v.rep.OK {
		os.Exit(1)
	}
}

// verifyCert runs every certificate check that the provided inputs
// allow.
func verifyCert(v *verifier, cert *ledger.Certificate, inPath, outPath string) {
	// Body digest: the certificate must hash to what it claims.
	dg, err := ledger.BodyDigest(cert)
	if err == nil && dg != cert.BodyDigest {
		err = fmt.Errorf("body digest mismatch: file says %s, content hashes to %s", cert.BodyDigest, dg)
	}
	v.check("cert.body_digest", "", err)

	in := loadAndCheckCircuit(v, "input", inPath, cert.Input)
	out := loadAndCheckCircuit(v, "output", outPath, cert.Output)

	// Equivalence witness: replay the witness patterns on both netlists.
	// ledger.VerifyEquivalence re-derives the witness parameters from the
	// circuit digests, so a forged certificate cannot pick its own patterns
	// — and a certificate that silently omits the witness fails too.
	if in != nil && out != nil {
		mode, err := ledger.VerifyEquivalence(cert, in, out)
		v.check("cert.equivalence", mode, err)
	}

	// Per-replacement evidence: self-contained, needs no netlist.
	evErr := error(nil)
	for _, ev := range cert.Evidence {
		if err := ledger.VerifyEvidence(ev); err != nil && evErr == nil {
			evErr = err
		}
	}
	v.check("cert.evidence", fmt.Sprintf("%d replacements", len(cert.Evidence)), evErr)

	// Path proof: recompute the comparison-unit bound on the output netlist.
	if cert.PathProof != nil && out != nil {
		err := func() error {
			if err := circuit.CheckWith(out, circuit.CheckOptions{AllowUnreachable: true}); err != nil {
				return err
			}
			if err := circuit.CheckComparisonUnits(out); err != nil {
				return err
			}
			units, maxPaths := circuit.ComparisonUnitStats(out)
			if units != cert.PathProof.Units || maxPaths != cert.PathProof.MaxPathsPerInput {
				return fmt.Errorf("recomputed %d units / max %d paths, certificate says %d / %d",
					units, maxPaths, cert.PathProof.Units, cert.PathProof.MaxPathsPerInput)
			}
			if maxPaths > cert.PathProof.Bound {
				return fmt.Errorf("path bound violated: %d > %d", maxPaths, cert.PathProof.Bound)
			}
			return nil
		}()
		v.check("cert.path_proof", "", err)
	}
}

// loadAndCheckCircuit loads a netlist and checks it against the
// certificate's identity for that side. Returns nil when no path was given.
func loadAndCheckCircuit(v *verifier, side, path string, cc *ledger.CircuitCert) *circuit.Circuit {
	if path == "" {
		return nil
	}
	c, err := compsynth.LoadBench(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sftverify: %v\n", err)
		os.Exit(2)
	}
	err = nil
	if cc == nil {
		err = fmt.Errorf("certificate records no %s circuit", side)
	} else if got := ledger.CircuitDigest(c).Hex(); got != cc.Digest {
		err = fmt.Errorf("%s netlist digest %s != certificate %s", side, got, cc.Digest)
	}
	v.check("cert."+side+"_digest", "", err)
	if err != nil {
		return nil
	}
	return c
}
