package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed
// with SFT_RUN_MAIN set, so a test can check its exit status and output.
func TestMain(m *testing.M) {
	if os.Getenv("SFT_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsUnhonourableFlags: a -k outside 1 to 16 or a -max-units below
// 1 fails with exit status 1 and a message naming the flag, before any
// output. On c17 no cut is wider than 5, so -k 17 used to pass unchecked.
func TestRejectsUnhonourableFlags(t *testing.T) {
	for _, args := range [][]string{{"-k", "17"}, {"-k", "0"}, {"-max-units", "0"}, {"-max-units", "-3"}} {
		cmd := exec.Command(os.Args[0], append([]string{"-in", "../../circuits/c17.bench"}, args...)...)
		cmd.Env = append(os.Environ(), "SFT_RUN_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("sft %v: %v, want exit status 1 (stderr %q)", args, err, stderr.String())
			continue
		}
		if stdout.Len() > 0 || !strings.Contains(stderr.String(), args[0]+" "+args[1]) {
			t.Errorf("sft %v: stdout %q, stderr %q: want no output and the flag named", args, stdout.String(), stderr.String())
		}
	}
}

// TestPathCountOverflowNamesCircuit pins the error for a circuit whose
// path count exceeds uint64: a ladder of 70 AND(x, x) stages has 2^70
// paths. sft exits 1 with a message naming the circuit and the limit.
func TestPathCountOverflowNamesCircuit(t *testing.T) {
	var b strings.Builder
	b.WriteString("INPUT(x)\nOUTPUT(g70)\n")
	prev := "x"
	for i := 1; i <= 70; i++ {
		fmt.Fprintf(&b, "g%d = AND(%s, %s)\n", i, prev, prev)
		prev = fmt.Sprintf("g%d", i)
	}
	in := filepath.Join(t.TempDir(), "ladder70.bench")
	if err := os.WriteFile(in, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-in", in)
	cmd.Env = append(os.Environ(), "SFT_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("sft on a 70-stage ladder: %v, want exit status 1 (stderr %q)", err, stderr.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, "ladder70") || !strings.Contains(msg, "2^64-1") || strings.Contains(msg, "CountBig") {
		t.Fatalf("stderr %q: want the circuit's name and the 2^64-1 limit, and no CountBig", msg)
	}
}

// TestPathDelayOverflowNamesCircuit pins the -report error for a final
// circuit whose path delay faults overflow uint64. A ladder of 62 mux
// stages, g_i = XOR(AND(g_{i-1}, a_i), OR(g_{i-1}, b_i)), has 3·2^62 - 2
// paths: within the input check's 2^64-1, but twice that is not. No stage is
// a comparison function and none is redundant, so the final circuit keeps
// every path. sft exits 1 naming the circuit instead of reporting a wrapped
// fault count.
func TestPathDelayOverflowNamesCircuit(t *testing.T) {
	var b strings.Builder
	b.WriteString("INPUT(x)\nOUTPUT(g62)\n")
	prev := "x"
	for i := 1; i <= 62; i++ {
		fmt.Fprintf(&b, "INPUT(a%d)\nINPUT(b%d)\n", i, i)
		fmt.Fprintf(&b, "p%d = AND(%s, a%d)\nq%d = OR(%s, b%d)\ng%d = XOR(p%d, q%d)\n", i, prev, i, i, prev, i, i, i, i)
		prev = fmt.Sprintf("g%d", i)
	}
	in := filepath.Join(t.TempDir(), "mux62.bench")
	if err := os.WriteFile(in, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-in", in, "-report")
	cmd.Env = append(os.Environ(), "SFT_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("sft -report on a 62-stage mux ladder: %v, want exit status 1 (stderr %q)", err, stderr.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, "mux62") || !strings.Contains(msg, "2^63") || !strings.Contains(msg, "path delay") {
		t.Fatalf("stderr %q: want the path delay campaign, the circuit's name and the 2^63 limit", msg)
	}
}
