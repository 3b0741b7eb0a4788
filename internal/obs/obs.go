// Package obs is the observability substrate for the synthesis-for-
// testability pipeline: hierarchical tracing spans, a verbose run logger,
// a JSON run report that ties them together with a snapshot of the
// instrument registry (package metric), and an NDJSON flight recorder
// (-events) that streams span events and decision-trace records while the
// run is live.
//
// Design constraints, in order:
//
//  1. Zero cost when off. Every entry point is nil-safe — a nil *Tracer,
//     *Span, *Logger or *Recorder no-ops without allocating — so the
//     pipeline packages instrument their hot loops unconditionally and pay
//     nothing unless a command enables tracing. Counters are single atomic
//     adds and stay on permanently.
//  2. No dependencies beyond the standard library, matching the rest of the
//     module.
//  3. One JSON artifact per run. A Report serializes the tool name and
//     arguments, environment, circuit statistics before and after, the span
//     tree, and a snapshot of every registered metric, so experiments can be
//     diffed and archived mechanically (cmd/obsdiff gates CI on exactly
//     that diff). The -events stream is the same idea for runs that die
//     mid-flight: one flushed JSON event per line, tail -f-able.
//
// The conventional wiring for a command is:
//
//	flags := obs.AddFlags(flag.CommandLine)
//	flag.Parse()
//	run := flags.Start("sft")
//	defer run.Finish()
//	sp := run.Tracer.StartSpan("load")
//	...
//	sp.End()
//
// Pipeline packages receive the tracer through their Options structs and
// declare their counters at package init with package metric, e.g.
//
//	var mCandidates = metric.C("resynth.candidates_examined")
package obs
