package obs

import (
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"

	"compsynth/internal/obs/dtrace"
)

// Event is one NDJSON line of the flight recorder. Every event carries its
// type and the elapsed milliseconds since the recorder opened; the other
// fields depend on the type:
//
//	run_start   tool, args
//	span_begin  name, depth
//	span_end    name, depth, dur_ms, alloc_bytes
//	dtrace      d (one decision-trace record; see internal/obs/dtrace)
//	cert        digest (body digest of the certificate emitted by this run)
//	run_end     dur_ms, error
type Event struct {
	Type       string         `json:"t"`
	ElapsedMS  float64        `json:"ms"`
	Tool       string         `json:"tool,omitempty"`
	Args       []string       `json:"args,omitempty"`
	Name       string         `json:"name,omitempty"`
	Depth      int            `json:"depth,omitempty"`
	DurMS      float64        `json:"dur_ms,omitempty"`
	AllocBytes int64          `json:"alloc_bytes,omitempty"`
	Digest     string         `json:"digest,omitempty"`
	Error      string         `json:"error,omitempty"`
	Decision   *dtrace.Record `json:"d,omitempty"`
}

// LedgerState is a snapshot of the tamper-evident ledger wrapped around the
// event stream: how many event records and Merkle batches have been sealed,
// the current hash-chain head, and (after Close) the final Merkle root.
type LedgerState struct {
	Records   int64  `json:"records"`
	Batches   int64  `json:"batches"`
	Head      string `json:"head"`
	FinalRoot string `json:"final_root,omitempty"`
}

// LedgerSink is the framing seam between the flight recorder and the
// tamper-evident ledger (internal/ledger). When a sink is registered, every
// event the recorder writes flows through Append, which frames it with a
// sequence number and hash chain; Close seals the stream with a final Merkle
// root. Implementations need not be safe for concurrent use — the recorder
// serializes all calls under its own mutex.
type LedgerSink interface {
	Append(ev Event) error
	Close() error
	State() LedgerState
}

// newLedgerSink is installed by the internal/ledger package's init. The
// indirection keeps the ledger (which imports obs for the Event type and its
// own metrics) out of obs's import graph; commands blank-import
// compsynth/internal/ledger to link it in, mirroring how net/http/pprof
// registers itself.
var newLedgerSink func(w io.Writer) LedgerSink

// RegisterLedger installs the ledger sink constructor the recorder wraps
// -events files with.
func RegisterLedger(fn func(w io.Writer) LedgerSink) {
	newLedgerSink = fn
}

// Recorder streams run events to an NDJSON file — a flight recorder for
// in-flight runs. All methods are safe for concurrent use; a nil *Recorder
// no-ops. Events are written (and flushed) one JSON object per line as they
// happen, so `tail -f` on the file follows a live run.
type Recorder struct {
	mu    sync.Mutex
	f     *os.File
	enc   *json.Encoder // plain NDJSON path, used when no ledger is linked
	sink  LedgerSink    // framing ledger, when internal/ledger is linked in
	start time.Time
	err   error // first write error; reported by Close
}

// NewRecorder opens path for writing.
func NewRecorder(path string) (*Recorder, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	r := &Recorder{f: f, start: time.Now()}
	if newLedgerSink != nil {
		r.sink = newLedgerSink(f)
	} else {
		r.enc = json.NewEncoder(f)
	}
	return r, nil
}

func (r *Recorder) write(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ev.ElapsedMS = float64(time.Since(r.start)) / float64(time.Millisecond)
	var err error
	if r.sink != nil {
		err = r.sink.Append(ev)
	} else {
		err = r.enc.Encode(ev)
	}
	if err != nil && r.err == nil {
		r.err = err
	}
}

// RecordCert records the certificate body digest as a ledger event, binding
// the certificate to the event stream it describes (call before RunEnd).
func (r *Recorder) RecordCert(digest string) {
	if r == nil {
		return
	}
	r.write(Event{Type: "cert", Digest: digest})
}

// Decision streams one decision-trace record as a Type "dtrace" event. The
// dtrace tracer built by Flags.Start uses this method as its sink, so every
// decision the resynthesis sweep explains rides the same NDJSON stream —
// and the same hash chain — as the rest of the flight recording.
func (r *Recorder) Decision(rec *dtrace.Record) {
	if r == nil {
		return
	}
	r.write(Event{Type: "dtrace", Decision: rec})
}

// LedgerState reports the framing ledger's state. ok is false when no ledger
// is linked in (the recorder then writes plain NDJSON).
func (r *Recorder) LedgerState() (LedgerState, bool) {
	if r == nil {
		return LedgerState{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sink == nil {
		return LedgerState{}, false
	}
	return r.sink.State(), true
}

// RunStart records the opening event.
func (r *Recorder) RunStart(tool string, args []string) {
	r.write(Event{Type: "run_start", Tool: tool, Args: args})
}

// RunEnd records the closing event (call before Close).
func (r *Recorder) RunEnd(durMS float64, errStr string) {
	r.write(Event{Type: "run_end", DurMS: durMS, Error: errStr})
}

// SpanBegin implements SpanObserver.
func (r *Recorder) SpanBegin(name string, depth int) {
	r.write(Event{Type: "span_begin", Name: name, Depth: depth})
}

// SpanEnd implements SpanObserver.
func (r *Recorder) SpanEnd(name string, depth int, dur time.Duration, allocBytes int64) {
	r.write(Event{
		Type: "span_end", Name: name, Depth: depth,
		DurMS:      float64(dur) / float64(time.Millisecond),
		AllocBytes: allocBytes,
	})
}

// Close flushes and closes the file, and returns the first error
// encountered while recording (so a broken event stream fails the run
// rather than passing silently).
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	err := r.err
	if r.sink != nil {
		// Seal the ledger (final Merkle root) before the file closes, so
		// even failed runs leave a verifiable stream.
		if serr := r.sink.Close(); err == nil {
			err = serr
		}
	}
	if cerr := r.f.Close(); err == nil {
		err = cerr
	}
	return err
}
