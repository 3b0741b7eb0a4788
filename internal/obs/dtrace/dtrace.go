// Package dtrace is the decision-trace layer of the observability substrate:
// a typed record stream in which the resynthesis sweep explains every
// judgment it makes — one record per candidate subcircuit considered and one
// per gate visited, each carrying the node, the cut, the objective deltas
// and an enumerated outcome (accepted, or exactly why not).
//
// Records flow through the flight recorder: the tracer's sink is
// obs.(*Recorder).Decision, which frames each record as a Type "dtrace"
// event on the -events NDJSON stream, so the trace is hash-chained by the
// run ledger for free and cmd/sftexplain can query or diff it offline.
//
// Determinism contract: the resynthesis optimizer emits records from its
// serial decision sweep, and no field depends on scheduling (no timings, no
// cache-hit provenance — a cache hit returns the same pure value the miss
// would compute). The record stream is therefore byte-identical for every
// -workers count; CI compares two runs with cmp, the same mechanism that
// gates certificate determinism.
//
// The package sits under internal/obs but imports neither obs nor anything
// else in the module, so obs itself (Event, Flags) can embed Record without
// a cycle.
package dtrace

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// Reason enumerates every outcome a decision record can carry. Candidate
// records (Kind "cand") resolve to Accepted or one of the rejection reasons;
// gate records (Kind "gate") summarize the visit with Replaced, Kept or one
// of the skip reasons. Every continue in the resynthesis candidate loop maps
// to exactly one of these — there are no anonymous rejections.
type Reason uint8

// Outcomes.
const (
	// Accepted: this candidate won and its comparison unit was built in.
	Accepted Reason = iota

	// ConstFunction: the extracted function collapsed to a constant after
	// support reduction; constants are left to Simplify, not resynthesized.
	ConstFunction

	// NoComparisonUnit: the identification cascade (exact/sampling, then
	// reachability don't-cares, then multi-unit) found no realization.
	NoComparisonUnit

	// Dominated: a realization exists, but another candidate at the same
	// gate scored better under the objective.
	Dominated

	// ObjectiveWorse: this was the gate's best candidate, but the objective
	// (gate count, path count, or the combined measure) would not strictly
	// improve, so the existing logic was kept.
	ObjectiveWorse

	// PathBound: the best candidate would have been accepted on its path
	// saving, but a path label saturated uint64 somewhere in the circuit, so
	// path-based acceptance is disabled (the count is a lower bound and the
	// comparison could be wrong).
	PathBound

	// Replaced: gate summary — a candidate was accepted at this gate.
	Replaced

	// Kept: gate summary — every candidate was rejected (or none existed)
	// and the gate's logic was kept.
	Kept

	// SkippedDead: the sweep reached a node an earlier replacement in the
	// same pass had already swept away.
	SkippedDead

	// SkippedUnmarked: the node is not on any path from the outputs the
	// sweep still cares about (it was cut off by an accepted replacement).
	SkippedUnmarked

	// SkippedNonGate: primary inputs and constants are never candidates.
	SkippedNonGate

	numReasons // count sentinel, keep last
)

var reasonNames = [numReasons]string{
	Accepted:         "accepted",
	ConstFunction:    "const_function",
	NoComparisonUnit: "no_comparison_unit",
	Dominated:        "dominated",
	ObjectiveWorse:   "objective_worse",
	PathBound:        "path_bound",
	Replaced:         "replaced",
	Kept:             "kept",
	SkippedDead:      "skipped_dead",
	SkippedUnmarked:  "skipped_unmarked",
	SkippedNonGate:   "skipped_non_gate",
}

func (r Reason) String() string {
	if r < numReasons {
		return reasonNames[r]
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// Reasons returns every enumerated outcome name, in declaration order (for
// docs and the sftexplain funnel).
func Reasons() []string {
	return append([]string(nil), reasonNames[:]...)
}

// ParseReason maps an outcome name back to its Reason.
func ParseReason(s string) (Reason, error) {
	for i, name := range reasonNames {
		if name == s {
			return Reason(i), nil
		}
	}
	return 0, fmt.Errorf("dtrace: unknown reason %q", s)
}

// MarshalJSON renders the reason as its name, the stable on-disk form.
func (r Reason) MarshalJSON() ([]byte, error) {
	if r >= numReasons {
		return nil, fmt.Errorf("dtrace: cannot marshal %v", r)
	}
	return json.Marshal(r.String())
}

// UnmarshalJSON parses an outcome name.
func (r *Reason) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := ParseReason(s)
	if err != nil {
		return err
	}
	*r = v
	return nil
}

// Rejection reports whether the outcome is a candidate-level rejection (as
// opposed to an acceptance or a gate-level summary). Sampling keeps every
// non-rejection record.
func (r Reason) Rejection() bool {
	switch r {
	case ConstFunction, NoComparisonUnit, Dominated, ObjectiveWorse, PathBound,
		Kept, SkippedDead, SkippedUnmarked, SkippedNonGate:
		return true
	}
	return false
}

// Record is one decision. Kind "cand" describes one candidate subcircuit at
// a gate; Kind "gate" summarizes the sweep's visit to the gate. Pass links
// records to the resynthesis pass (and its resynth.pass span) they were
// emitted under. Every field is a pure function of (input circuit, options),
// never of scheduling — see the package comment's determinism contract.
type Record struct {
	Seq  int64  `json:"seq"`            // dense per-run sequence, assigned at emit
	Pass int    `json:"pass"`           // 1-based resynthesis pass
	Kind string `json:"kind"`           // "cand" or "gate"
	Node int    `json:"node"`           // node id of the candidate's output gate
	Name string `json:"name,omitempty"` // that node's netlist name

	Outcome Reason `json:"outcome"`

	// Candidate shape: the cut's input node ids and its width (before
	// support reduction drops inputs the function does not depend on).
	Cut   []int `json:"cut,omitempty"`
	Width int   `json:"width,omitempty"`

	// Objective deltas, present once a realization exists: equivalent-gate
	// saving and the path count through the gate before/after.
	GateSave    int    `json:"gate_save,omitempty"`
	PathsBefore uint64 `json:"paths_before,omitempty"`
	PathsAfter  uint64 `json:"paths_after,omitempty"`

	// Realization provenance.
	UsedDC    bool   `json:"used_dc,omitempty"`    // identified under reachability don't-cares
	MultiUnit bool   `json:"multi_unit,omitempty"` // OR of several comparison units (Sec. 6 ext.)
	Spec      string `json:"spec,omitempty"`       // chosen realization, e.g. "cmp{n=3 perm=[2 0 1] L=1 U=2}"
}

// Mode is the parsed -dtrace sampling knob.
type Mode struct {
	// Level selects how much of the stream is kept.
	Level Level

	// N is the sampling stride for LevelSampled: acceptances and gate
	// replacements always pass; every Nth rejection record passes.
	N int
}

// Level is the -dtrace verbosity.
type Level int

// Levels.
const (
	LevelOff Level = iota
	LevelSampled
	LevelFull
)

func (m Mode) String() string {
	switch m.Level {
	case LevelOff:
		return "off"
	case LevelSampled:
		return "sampled:" + strconv.Itoa(m.N)
	default:
		return "full"
	}
}

// ParseMode parses the -dtrace flag value: "off", "full", or "sampled:N"
// with N >= 1 (keep every Nth rejection; acceptances always pass).
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off", "":
		return Mode{Level: LevelOff}, nil
	case "full":
		return Mode{Level: LevelFull}, nil
	}
	if rest, ok := strings.CutPrefix(s, "sampled:"); ok {
		n, err := strconv.Atoi(rest)
		if err != nil || n < 1 {
			return Mode{}, fmt.Errorf("dtrace: bad sampling stride %q (want sampled:N with N >= 1)", rest)
		}
		return Mode{Level: LevelSampled, N: n}, nil
	}
	return Mode{}, fmt.Errorf("dtrace: unknown mode %q (want off, full, or sampled:N)", s)
}

// Tracer filters, sequences and forwards decision records to a sink. A nil
// *Tracer is the disabled tracer: Emit no-ops without allocating, so the
// optimizer keeps its emission sites unconditional and -dtrace=off costs a
// nil check (the AllocsPerRun pins and the CI allocation gate hold it
// there).
//
// Sampling is deterministic: a counter, never a clock or an RNG, decides
// which rejection records pass, so a sampled trace is as reproducible as a
// full one.
type Tracer struct {
	mu   sync.Mutex
	mode Mode
	sink func(*Record)
	seq  int64 // next sequence number (dense over emitted records)
	nRej int64 // rejections seen, for the sampling stride
}

// New returns a tracer forwarding kept records to sink, or nil (the
// disabled tracer) when the mode is off or no sink is given.
func New(mode Mode, sink func(*Record)) *Tracer {
	if mode.Level == LevelOff || sink == nil {
		return nil
	}
	if mode.Level == LevelSampled && mode.N < 1 {
		mode.N = 1
	}
	return &Tracer{mode: mode, sink: sink}
}

// Mode returns the tracer's sampling mode (the zero Mode when nil).
func (t *Tracer) Mode() Mode {
	if t == nil {
		return Mode{}
	}
	return t.mode
}

// Emit filters rec through the sampling mode and, when kept, assigns the
// next sequence number and forwards it to the sink. Safe for concurrent use,
// though the optimizer only calls it from the serial sweep (see the
// determinism contract).
func (t *Tracer) Emit(rec Record) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.mode.Level == LevelSampled && rec.Outcome.Rejection() {
		keep := t.nRej%int64(t.mode.N) == 0
		t.nRej++
		if !keep {
			t.mu.Unlock()
			return
		}
	}
	// The copy (not rec itself) has its address taken, so the parameter does
	// not escape and the nil/filtered paths stay allocation-free.
	kept := rec
	kept.Seq = t.seq
	t.seq++
	sink := t.sink
	t.mu.Unlock()
	sink(&kept)
}

// Emitted returns how many records passed the filter so far.
func (t *Tracer) Emitted() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}
