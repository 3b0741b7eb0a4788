package ledger

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"compsynth/internal/obs"
)

// TestForgedRootWithValidChain covers the verifier branches behind the chain
// check: an attacker who re-chains the stream after forging a seal is caught
// by the Merkle recomputation itself.
func TestForgedRootWithValidChain(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriterSize(&buf, 2)
	for i := 0; i < 4; i++ {
		w.Append(obs.Event{Type: "span_end", Depth: i})
	}
	w.Close()
	lines := bytes.Split(buf.Bytes(), []byte("\n"))
	lines = lines[:len(lines)-1]

	// Record layout: 0,1 events; 2 batch; 3,4 events; 5 batch; 6 final.
	var rec batchRecord
	if err := json.Unmarshal(lines[2], &rec); err != nil {
		t.Fatal(err)
	}
	forged := strings.Repeat("0", len(rec.Root))
	// Recompute a consistent chain for the forged seal: the prefix up to
	// record 1 is untouched, so its chain head is record 1's chain value.
	var prev eventRecord
	if err := json.Unmarshal(lines[1], &prev); err != nil {
		t.Fatal(err)
	}
	prevD, err := parseHex(prev.Chain)
	if err != nil {
		t.Fatal(err)
	}
	rec.Root = forged
	rec.Chain = chainDigest(prevD, rec.Seq, batchPayload(forged, rec.Batch, rec.First, rec.Last)).Hex()
	reline, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	lines[2] = reline
	// Truncate after the forged seal so later chain links (now stale) don't
	// fire first; the root check must catch it on its own.
	mutated := append(bytes.Join(lines[:3], []byte("\n")), '\n')
	_, err = VerifyChain(mutated)
	if err == nil || !strings.Contains(err.Error(), "batch root mismatch") {
		t.Fatalf("got %v, want batch root mismatch", err)
	}
}

// TestMerkleRootProperties pins the fold: empty set, singleton, odd
// promotion, and sensitivity to leaf order.
func TestMerkleRootProperties(t *testing.T) {
	if merkleRoot(nil) != genesis() {
		t.Fatal("empty Merkle root is not the genesis digest")
	}
	l1 := hnew().word(1).sum()
	if merkleRoot([]H{l1}) != l1 {
		t.Fatal("singleton root is not the leaf")
	}
	l2, l3 := hnew().word(2).sum(), hnew().word(3).sum()
	abc := merkleRoot([]H{l1, l2, l3})
	acb := merkleRoot([]H{l1, l3, l2})
	if abc == acb {
		t.Fatal("Merkle root insensitive to leaf order")
	}
	// The fold must not corrupt the caller's slice.
	leaves := []H{l1, l2, l3}
	merkleRoot(leaves)
	if leaves[0] != l1 || leaves[1] != l2 || leaves[2] != l3 {
		t.Fatal("merkleRoot mutated its input")
	}
}

// TestParseHexRoundTrip pins the textual digest form.
func TestParseHexRoundTrip(t *testing.T) {
	d := hnew().word(42).sum()
	got, err := parseHex(d.Hex())
	if err != nil || got != d {
		t.Fatalf("round trip failed: %v %v", got, err)
	}
	if _, err := parseHex("abc"); err == nil {
		t.Fatal("short hex accepted")
	}
	if _, err := parseHex(strings.Repeat("zz", 32)); err == nil {
		t.Fatal("non-hex accepted")
	}
}
