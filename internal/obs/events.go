package obs

import (
	"encoding/json"
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
	Error      string         `json:"error,omitempty"`
	Decision   *dtrace.Record `json:"d,omitempty"`
}

// Recorder streams run events to an NDJSON file — a flight recorder for
// in-flight runs. All methods are safe for concurrent use; a nil *Recorder
// no-ops. Events are written (and flushed) one JSON object per line as they
// happen, so `tail -f` on the file follows a live run.
type Recorder struct {
	mu    sync.Mutex
	f     *os.File
	enc   *json.Encoder // writes each event as one line in one Write call
	start time.Time
	err   error // first write error; reported by Close
}

// NewRecorder opens path for writing.
func NewRecorder(path string) (*Recorder, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &Recorder{f: f, enc: json.NewEncoder(f), start: time.Now()}, nil
}

func (r *Recorder) write(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ev.ElapsedMS = float64(time.Since(r.start)) / float64(time.Millisecond)
	if err := r.enc.Encode(ev); err != nil && r.err == nil {
		r.err = err
	}
}

// Decision streams one decision-trace record as a Type "dtrace" event. The
// dtrace tracer built by Flags.Start uses this method as its sink, so every
// decision the resynthesis sweep explains rides the same NDJSON stream as
// the rest of the flight recording.
func (r *Recorder) Decision(rec *dtrace.Record) {
	if r == nil {
		return
	}
	r.write(Event{Type: "dtrace", Decision: rec})
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
	if cerr := r.f.Close(); err == nil {
		err = cerr
	}
	return err
}
