package obs

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"compsynth/internal/circuit"
	"compsynth/internal/metric"
	"compsynth/internal/obs/dtrace"
)

// Flags holds the runtime flags shared by every command:
//
//	-trace              record and print a span tree for the run
//	-metrics-out FILE   write the JSON run report to FILE
//	-v                  verbose progress on stderr
//	-events FILE        stream NDJSON run events (flight recorder) to FILE
//	-dtrace MODE        decision-trace recording (off or full)
//	-workers N          worker goroutines for the parallel phases
type Flags struct {
	Trace      bool
	Verbose    bool
	MetricsOut string

	// Events streams NDJSON run events — run start/end, span begin/end and
	// decision-trace records — to this file while the run is live.
	Events string

	// Dtrace selects decision-trace recording for the resynthesis sweep:
	// "off" (default) or "full". Full requires -events — the trace rides
	// the flight-recorder stream. See internal/obs/dtrace.
	Dtrace string

	// Cert writes a verifiable run certificate (JSON) to this file at
	// Finish: input/output circuit digests, an options digest, equivalence
	// evidence and the comparison-unit path-proof summary. The certificate
	// logic lives in internal/ledger (commands import it for side effects);
	// cmd/sftverify re-verifies the artifact offline.
	Cert string

	// Workers is the shared worker-count option threaded into the parallel
	// engines: fault simulation, the redundancy-removal filter and the
	// experiment driver (resynthesis always runs serial). Results are
	// bit-identical for every value; 1 disables all fan-out. The default,
	// GOMAXPROCS, uses all available CPUs. Start rejects values below 1.
	Workers int

	// Check enables circuit IR invariant validation (circuit.Check and the
	// paper's comparison-unit path bound) on the circuits a command reads
	// and produces, and after every resynthesis pass. Off by default: the
	// pipeline's outputs are byte-identical either way, -check only adds
	// failure detection.
	Check bool
}

// AddFlags registers the shared flags on fs.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.Trace, "trace", false, "record per-phase spans and print the span tree on exit")
	fs.BoolVar(&f.Verbose, "v", false, "verbose progress output on stderr")
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write a JSON run report to this file")
	fs.StringVar(&f.Events, "events", "", "stream NDJSON run events (flight recorder) to this file")
	fs.StringVar(&f.Dtrace, "dtrace", "off",
		"decision-trace recording for the resynthesis sweep: off or full (full requires -events; queried with sftexplain)")
	fs.StringVar(&f.Cert, "cert", "", "write a verifiable run certificate (circuit digests, equivalence witness, replacement evidence, path proof) to this file")
	fs.IntVar(&f.Workers, "workers", runtime.GOMAXPROCS(0),
		"worker goroutines for stuck-at and path-delay fault simulation, the redundancy filter and the experiment driver (at least 1; results are identical for any value; 1 = serial)")
	fs.BoolVar(&f.Check, "check", false,
		"validate circuit IR invariants (acyclicity, arity, fanout consistency, comparison-unit path bound) on inputs, outputs and after every resynthesis pass")
	return f
}

// certify builds the run's certificate from the run state and writes it to
// path. It is installed by the internal/ledger package's init: the ledger
// imports obs, directly and through compare, so obs cannot call it.
// Commands blank-import compsynth/internal/ledger to link it in, mirroring
// how net/http/pprof registers itself.
var certify func(r *Run, path string) error

// RegisterCertifier installs the -cert certificate writer.
func RegisterCertifier(fn func(r *Run, path string) error) {
	certify = fn
}

// Run bundles the live observability state of one tool invocation.
type Run struct {
	Tracer  *Tracer // nil unless -trace, -metrics-out or -events was given
	Log     *Logger
	Metrics *metric.Metrics
	Report  *Report

	flags    Flags
	root     *Span
	base     metric.Snapshot
	start    time.Time
	recorder *Recorder
	dtrace   *dtrace.Tracer
	sigCh    chan os.Signal

	// Certificate state, populated only when -cert is given: the circuits
	// CircuitBefore/After observed, the command's semantic options (set via
	// SetCertOptions) and per-replacement equivalence evidence (AddEvidence).
	certBefore   *circuit.Circuit
	certAfter    *circuit.Circuit
	certOptions  json.RawMessage
	certEvidence []any
}

// Start builds the run state from the parsed flags. Failures to honor an
// explicitly requested facility — an -events file that cannot be created, a
// -cert without the certifier linked in — are reported unconditionally on
// stderr and exit the process with status 2: an artifact the user asked for
// must never go missing silently.
func (f *Flags) Start(tool string) *Run {
	r, err := f.start(tool)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		os.Exit(2)
	}
	r.watchSignals()
	return r
}

// start is Start with the error path exposed (for tests).
func (f *Flags) start(tool string) (*Run, error) {
	r := &Run{
		Log:     NewLogger(os.Stdout, os.Stderr, f.Verbose),
		Metrics: metric.Default(),
		flags:   *f,
		start:   time.Now(),
	}
	// The tracer records the span tree for -trace and -metrics-out and is
	// the span event source for -events, so any of them enables it.
	if f.Trace || f.MetricsOut != "" || f.Events != "" {
		r.Tracer = NewTracer()
	}
	r.base = r.Metrics.Snapshot()
	r.Report = &Report{
		Tool:  tool,
		Args:  os.Args[1:],
		Start: r.start,
		Env:   Environment(),
	}
	if f.Workers < 1 {
		return nil, fmt.Errorf("-workers %d: must be at least 1", f.Workers)
	}
	if f.Cert != "" && certify == nil {
		return nil, fmt.Errorf("-cert %s: certifier not linked in (import compsynth/internal/ledger)", f.Cert)
	}
	dmode, err := dtrace.ParseMode(f.Dtrace)
	if err != nil {
		return nil, fmt.Errorf("-dtrace: %v", err)
	}
	if dmode.Level != dtrace.LevelOff && f.Events == "" {
		return nil, fmt.Errorf("-dtrace %s: requires -events (the decision trace streams through the flight recorder)", f.Dtrace)
	}
	if f.Events != "" {
		rec, err := NewRecorder(f.Events)
		if err != nil {
			return nil, fmt.Errorf("-events: %v", err)
		}
		r.recorder = rec
		rec.RunStart(tool, os.Args[1:])
		r.Tracer.SetObserver(rec)
		r.dtrace = dtrace.New(dmode, rec.Decision)
		r.Log.Verbosef("recording events to %s", f.Events)
	}
	r.root = r.Tracer.StartSpan(tool)
	return r, nil
}

// CheckEnabled reports whether the run was started with -check; commands use
// it to thread per-pass validation into resynth.Options.Check and
// exper.Config.Check.
func (r *Run) CheckEnabled() bool { return r.flags.Check }

// Dtrace returns the decision-trace tracer built from -dtrace, or nil when
// tracing is off. Commands thread it into resynth.Options.Dtrace; the nil
// tracer no-ops, so unconditional threading is fine.
func (r *Run) Dtrace() *dtrace.Tracer { return r.dtrace }

// watchSignals installs the SIGINT/SIGTERM handler: an interrupted run still
// flushes the -events stream through run_end and writes a partial run
// report (with the interrupt recorded as the run error) before exiting
// non-zero — without it an interrupt silently drops the flight recorder
// tail, which is exactly the part of the stream a post-mortem needs.
// Finish uninstalls the handler, restoring default signal behavior after a
// normal completion.
func (r *Run) watchSignals() {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	r.sigCh = ch
	go func() {
		sig, ok := <-ch
		if !ok {
			return // Finish closed the channel: normal completion
		}
		os.Exit(r.Interrupt(sig))
	}()
}

// Interrupt finishes the run as killed by sig — the artifacts (report,
// event stream, certificate) are still written, carrying the interrupt as
// the run error — and returns the non-zero status for os.Exit. Split from
// the signal goroutine so tests can drive the interrupt path in-process.
func (r *Run) Interrupt(sig os.Signal) int {
	return r.Fail(fmt.Errorf("interrupted by %v", sig))
}

// stopSignals uninstalls the signal handler and releases its goroutine.
func (r *Run) stopSignals() {
	if r.sigCh == nil {
		return
	}
	signal.Stop(r.sigCh)
	close(r.sigCh)
	r.sigCh = nil
}

// CircuitBefore records (and verbosely logs) the input circuit. Under -cert
// the circuit is retained for the certificate, so callers must not mutate it
// afterwards (the pipeline already honors this: optimizers clone).
func (r *Run) CircuitBefore(c *circuit.Circuit) {
	info := InfoOf(c)
	r.Report.CircuitBefore = &info
	if r.flags.Cert != "" {
		r.certBefore = c
	}
	r.Log.Verbosef("input %s: %v, paths %d", c.Name, c.Stats(), info.Paths)
}

// CircuitAfter records (and verbosely logs) the output circuit, retaining it
// for the certificate under -cert.
func (r *Run) CircuitAfter(c *circuit.Circuit) {
	info := InfoOf(c)
	r.Report.CircuitAfter = &info
	if r.flags.Cert != "" {
		r.certAfter = c
	}
	r.Log.Verbosef("output %s: %v, paths %d", c.Name, c.Stats(), info.Paths)
}

// CertEnabled reports whether the run was started with -cert; commands use
// it to switch on evidence capture (resynth.Options.Certify).
func (r *Run) CertEnabled() bool { return r.flags.Cert != "" }

// SetCertOptions records the command's semantic options for the
// certificate: v is marshaled once and echoed (plus digested) into the cert
// body. Pass a fixed-shape struct of the flags that determine the output —
// and nothing machine-dependent — so certificates for identical inputs stay
// byte-identical. A marshal failure is reported at Finish, not here.
func (r *Run) SetCertOptions(v any) {
	if r.flags.Cert == "" {
		return
	}
	raw, err := json.Marshal(v)
	if err != nil {
		raw, _ = json.Marshal(map[string]string{"marshal_error": err.Error()})
	}
	r.certOptions = raw
}

// AddEvidence appends per-replacement equivalence evidence (values of type
// ledger.Evidence; typed any to keep the ledger out of obs's import graph)
// to the certificate.
func (r *Run) AddEvidence(items ...any) {
	if r.flags.Cert == "" {
		return
	}
	r.certEvidence = append(r.certEvidence, items...)
}

// CertCircuits returns the circuits retained for the certificate (either may
// be nil). For the certificate hook.
func (r *Run) CertCircuits() (before, after *circuit.Circuit) {
	return r.certBefore, r.certAfter
}

// CertOptions returns the marshaled options recorded by SetCertOptions.
func (r *Run) CertOptions() json.RawMessage { return r.certOptions }

// CertEvidence returns the evidence recorded by AddEvidence.
func (r *Run) CertEvidence() []any { return r.certEvidence }

// CheckCircuit validates c's IR invariants — circuit.Check plus the paper's
// comparison-unit path bound — when the run was started with -check; without
// the flag it is a no-op. label names the circuit in the error ("input",
// "after resynthesis", ...). Parsed netlists may legitimately carry gates no
// output reads, so unreachable nodes are tolerated; the stricter post-
// optimizer sweep lives in resynth.Options.Check.
func (r *Run) CheckCircuit(label string, c *circuit.Circuit) error {
	if !r.flags.Check {
		return nil
	}
	sp := r.Tracer.StartSpan("check")
	defer sp.End()
	if err := circuit.CheckWith(c, circuit.CheckOptions{AllowUnreachable: true}); err != nil {
		return fmt.Errorf("check %s circuit: %w", label, err)
	}
	if err := circuit.CheckComparisonUnits(c); err != nil {
		return fmt.Errorf("check %s circuit: %w", label, err)
	}
	r.Log.Verbosef("check %s circuit: ok", label)
	return nil
}

// closeRecorder ends the event stream with run_end, detaches the flight
// recorder and closes it, returning the first recording error.
func (r *Run) closeRecorder() error {
	if r.recorder == nil {
		return nil
	}
	r.recorder.RunEnd(r.Report.DurationMS, r.Report.Error)
	r.Tracer.SetObserver(nil)
	err := r.recorder.Close()
	r.recorder = nil
	return err
}

// Finish closes the root span, snapshots metrics into the report, writes
// the certificate under -cert, prints the span tree under -trace, closes the
// flight recorder, and writes the JSON report when requested.
// It returns the first artifact error (certificate, event stream or
// report); callers treat it as fatal so a missing artifact never passes
// silently.
func (r *Run) Finish() error {
	r.stopSignals()
	r.root.End()
	r.Report.DurationMS = float64(time.Since(r.start)) / float64(time.Millisecond)
	r.Report.Spans = r.Tracer.Export()
	r.Report.Metrics = r.Metrics.Snapshot().Diff(r.base)
	var firstErr error
	if r.flags.Cert != "" {
		if err := certify(r, r.flags.Cert); err != nil {
			firstErr = fmt.Errorf("-cert: %v", err)
		} else {
			r.Log.Verbosef("wrote certificate %s", r.flags.Cert)
		}
	}
	if err := r.closeRecorder(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("-events: %v", err)
	}
	if r.flags.Trace {
		r.Tracer.Dump(os.Stderr)
	}
	if r.Log.Verbose() {
		os.Stderr.WriteString(r.Report.Metrics.Format())
	}
	if r.flags.MetricsOut != "" {
		if err := r.Report.WriteFile(r.flags.MetricsOut); err != nil {
			if firstErr == nil {
				firstErr = err
			}
		} else {
			r.Log.Verbosef("wrote report %s", r.flags.MetricsOut)
		}
	}
	return firstErr
}

// Fail reports err, records it on the run report, and finishes the run —
// the -metrics-out report and the event stream are still written, carrying
// the error — then returns a non-zero status for os.Exit. Every command
// routes its post-Start failures through Fail so error runs leave the same
// artifacts as successful ones.
func (r *Run) Fail(err error) int {
	fmt.Fprintf(os.Stderr, "%s: %v\n", r.Report.Tool, err)
	r.Report.Error = err.Error()
	if ferr := r.Finish(); ferr != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", r.Report.Tool, ferr)
	}
	return 1
}
