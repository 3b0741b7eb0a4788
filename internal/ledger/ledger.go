// Package ledger makes the observability artifacts of a run tamper-evident
// and verifiable after the fact, turning the paper's transient testability
// proofs into durable evidence:
//
//   - The flight-recorder NDJSON stream (-events) is framed into an
//     append-only hash chain: every record carries a sequence number and a
//     SHA-256 chain digest over (previous chain, seq, canonical record
//     bytes), with a Merkle root sealed every DefaultBatchSize event
//     records and a final root over all batch roots written at close.
//     Truncation, in-place edits, dropped or reordered records and spliced
//     streams are all detectable offline (VerifyChain).
//
//   - A per-run certificate (-cert) captures what the run claims: canonical
//     digests of the input and output netlists, a digest of the semantic
//     options, an equivalence witness between the two circuits,
//     per-replacement evidence recorded by the resynthesis engine at
//     replacement time, and the comparison-unit path-bound proof summary
//     (Section 2 of Pomeranz & Reddy, DAC 1995). The certificate body
//     contains no wall-clock or host-dependent content, so two runs on
//     identical inputs produce byte-identical bodies.
//
// The two artifacts name each other: the certificate's body digest is
// appended to the ledger as a "cert" record before sealing, and the sealed
// ledger's chain head and final root are stamped into the certificate.
// cmd/sftverify replays all of it offline.
//
// Trust model: all digests are SHA-256, but the chain is unkeyed.
// Collision resistance makes it infeasible to alter any record while
// keeping the existing digests valid; nothing stops an adversary with
// write access to the whole file set from regenerating a fully consistent
// chain, roots and matching certificate from scratch. Detecting that
// wholesale substitution requires anchoring the final root or the
// certificate body digest out-of-band at production time — a CI log line,
// a ticket comment, a signed tag — and comparing against the anchor when
// verifying.
//
// Importing the package installs the ledger sink and the certificate
// builder into internal/obs (side-effect registration, mirroring
// net/http/pprof):
//
//	import _ "compsynth/internal/ledger"
package ledger

import (
	"encoding/json"
	"fmt"
	"io"

	"compsynth/internal/obs"
)

// Ledger metrics (process-wide): records and batches sealed, and the current
// sequence number, snapshot into the run report.
var (
	mRecords = obs.C("ledger.records")
	mBatches = obs.C("ledger.batches")
	gSeq     = obs.G("ledger.seq")
)

func init() {
	obs.RegisterLedger(func(w io.Writer) obs.LedgerSink { return NewWriter(w) })
	obs.RegisterCertifier(buildCertBody, writeCert)
}

// DefaultBatchSize is the number of event records per Merkle batch. Small
// enough that a consumer tailing a live run sees sealed roots often, large
// enough that batch records stay a negligible fraction of the stream.
const DefaultBatchSize = 64

// ledgerMagic seeds the hash chain (and is the Merkle root of an empty
// record set), versioning the framing format. v2: SHA-256 digests.
const ledgerMagic = "sft-ledger/v2"

func genesis() H {
	return hnew().bytes([]byte(ledgerMagic)).sum()
}

// chainDigest extends the hash chain by one record: the previous head, the
// record's sequence number and its canonical payload bytes are absorbed in
// order.
func chainDigest(prev H, seq int64, payload []byte) H {
	return hnew().bytes(prev[:]).word(uint64(seq)).bytes(payload).sum()
}

// merkleRoot folds a level of digests pairwise (odd leaf promoted) down to
// one root without touching the input slice. The root of no leaves is the
// genesis digest.
func merkleRoot(leaves []H) H {
	nodes := leaves
	for len(nodes) > 1 {
		next := make([]H, 0, (len(nodes)+1)/2)
		for i := 0; i < len(nodes); i += 2 {
			if i+1 == len(nodes) {
				next = append(next, nodes[i])
				break
			}
			next = append(next, hnew().bytes(nodes[i][:]).bytes(nodes[i+1][:]).sum())
		}
		nodes = next
	}
	if len(nodes) == 0 {
		return genesis()
	}
	return nodes[0]
}

// Ledger record line shapes. Three kinds share the seq/chain framing:
//
//	{"seq":N,"chain":H,"ev":{...}}                                 event
//	{"seq":N,"chain":H,"root":R,"batch":B,"first":F,"last":L}      batch seal
//	{"seq":N,"chain":H,"final_root":R,"batches":B,"records":E}     final seal
//
// The chain payload is the exact "ev" bytes for an event record and a
// canonical text rendering of the seal fields otherwise (batchPayload,
// finalPayload), so a verifier can recompute every chain link from the line
// alone.
type eventRecord struct {
	Seq   int64           `json:"seq"`
	Chain string          `json:"chain"`
	Ev    json.RawMessage `json:"ev"`
}

type batchRecord struct {
	Seq   int64  `json:"seq"`
	Chain string `json:"chain"`
	Root  string `json:"root"`
	Batch int64  `json:"batch"`
	First int64  `json:"first"`
	Last  int64  `json:"last"`
}

type finalRecord struct {
	Seq       int64  `json:"seq"`
	Chain     string `json:"chain"`
	FinalRoot string `json:"final_root"`
	Batches   int64  `json:"batches"`
	Records   int64  `json:"records"`
}

func batchPayload(root string, batch, first, last int64) []byte {
	return []byte(fmt.Sprintf("root %s batch %d first %d last %d", root, batch, first, last))
}

func finalPayload(root string, batches, records int64) []byte {
	return []byte(fmt.Sprintf("final %s batches %d records %d", root, batches, records))
}

// Writer frames flight-recorder events into the hash-chained, Merkle-batched
// ledger. It implements obs.LedgerSink. Not safe for concurrent use: the
// recorder serializes all calls under its own mutex.
type Writer struct {
	w         io.Writer
	batchSize int

	seq        int64
	head       H
	leaves     []H   // chain digests of the current batch's events
	roots      []H   // sealed batch roots
	batchFirst int64 // seq of the current batch's first event
	lastEvent  int64 // seq of the most recent event
	events     int64
	batches    int64
	finalRoot  string // set by Close
	closed     bool
	err        error // first write error, reported by Close
	buf        []byte
}

// NewWriter starts a ledger on w with the default batch size.
func NewWriter(w io.Writer) *Writer {
	return NewWriterSize(w, DefaultBatchSize)
}

// NewWriterSize starts a ledger with an explicit batch size (tests use small
// batches to exercise multi-batch streams cheaply).
func NewWriterSize(w io.Writer, batchSize int) *Writer {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	return &Writer{w: w, batchSize: batchSize, head: genesis()}
}

// writeLine marshals rec and writes it as one NDJSON line in a single Write
// call, keeping the stream tail-able mid-run.
func (l *Writer) writeLine(rec any) {
	line, err := json.Marshal(rec)
	if err != nil {
		if l.err == nil {
			l.err = err
		}
		return
	}
	l.buf = append(append(l.buf[:0], line...), '\n')
	if _, err := l.w.Write(l.buf); err != nil && l.err == nil {
		l.err = err
	}
}

// Append frames one event record, extending the chain and the current
// Merkle batch. It implements obs.LedgerSink.
func (l *Writer) Append(ev obs.Event) error {
	if l.closed {
		return fmt.Errorf("ledger: append after close")
	}
	payload, err := json.Marshal(ev)
	if err != nil {
		if l.err == nil {
			l.err = err
		}
		return l.err
	}
	chain := chainDigest(l.head, l.seq, payload)
	l.writeLine(eventRecord{Seq: l.seq, Chain: chain.Hex(), Ev: payload})
	if len(l.leaves) == 0 {
		l.batchFirst = l.seq
	}
	l.leaves = append(l.leaves, chain)
	l.lastEvent = l.seq
	l.head = chain
	l.seq++
	l.events++
	mRecords.Inc()
	gSeq.Set(l.seq)
	if len(l.leaves) >= l.batchSize {
		l.sealBatch()
	}
	return l.err
}

// sealBatch writes the Merkle root record for the pending event batch.
func (l *Writer) sealBatch() {
	root := merkleRoot(l.leaves)
	payload := batchPayload(root.Hex(), l.batches, l.batchFirst, l.lastEvent)
	chain := chainDigest(l.head, l.seq, payload)
	l.writeLine(batchRecord{
		Seq: l.seq, Chain: chain.Hex(), Root: root.Hex(),
		Batch: l.batches, First: l.batchFirst, Last: l.lastEvent,
	})
	l.head = chain
	l.seq++
	l.roots = append(l.roots, root)
	l.leaves = l.leaves[:0]
	l.batches++
	mBatches.Inc()
	gSeq.Set(l.seq)
}

// Close seals any partial batch and writes the final root record. It
// implements obs.LedgerSink; safe to call once.
func (l *Writer) Close() error {
	if l.closed {
		return l.err
	}
	l.closed = true
	if len(l.leaves) > 0 {
		l.sealBatch()
	}
	final := merkleRoot(l.roots)
	payload := finalPayload(final.Hex(), l.batches, l.events)
	chain := chainDigest(l.head, l.seq, payload)
	l.writeLine(finalRecord{
		Seq: l.seq, Chain: chain.Hex(), FinalRoot: final.Hex(),
		Batches: l.batches, Records: l.events,
	})
	l.head = chain
	l.seq++
	l.finalRoot = final.Hex()
	gSeq.Set(l.seq)
	return l.err
}

// State reports the ledger's progress. It implements obs.LedgerSink.
func (l *Writer) State() obs.LedgerState {
	return obs.LedgerState{
		Records:   l.events,
		Batches:   l.batches,
		Head:      l.head.Hex(),
		FinalRoot: l.finalRoot,
	}
}
