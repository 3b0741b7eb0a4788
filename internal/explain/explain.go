// Package explain loads a flight-recorder event stream (-events) and answers
// questions about the decision-trace records (-dtrace) it carries: why a
// node was or was not replaced, which rejection reasons dominated each pass,
// how the candidate funnel narrowed, and how two runs' decisions differ.
// cmd/sftexplain is the CLI over this package.
//
// The recorder writes plain NDJSON, one obs.Event per line. The loader also
// reads the hash-chained framing that earlier versions wrote
// ({"seq":N,"chain":H,"ev":{...}} event lines interleaved with Merkle seal
// lines, which carry no event and are skipped); it reads only the payloads
// and checks no chain.
package explain

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"compsynth/internal/obs"
	"compsynth/internal/obs/dtrace"
)

// Trace is one run's decision trace plus the run identity it was loaded
// from.
type Trace struct {
	Tool    string   // from the run_start event
	Args    []string // from the run_start event
	Records []dtrace.Record
}

// frame is the envelope of the framed streams earlier versions wrote; Ev is
// nil on plain-NDJSON lines and on those streams' seal lines.
type frame struct {
	Ev json.RawMessage `json:"ev"`
}

// Load reads an event stream written with -events and collects its decision
// records. Files with no dtrace events load successfully as an empty trace
// (the queries then report nothing), but a file with no parseable events at
// all is an error — it is not a flight recording.
func Load(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}

// Read is Load over an open stream.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24) // dtrace lines are small; older recordings hold wide heartbeat lines
	tr := &Trace{}
	events, lineNo := 0, 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var fr frame
		if err := json.Unmarshal(line, &fr); err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		payload := []byte(line)
		if fr.Ev != nil {
			payload = fr.Ev
		}
		var ev obs.Event
		if err := json.Unmarshal(payload, &ev); err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		if ev.Type == "" {
			continue // seal line of a framed stream (batch root or final root)
		}
		events++
		switch ev.Type {
		case "run_start":
			tr.Tool, tr.Args = ev.Tool, ev.Args
		case "dtrace":
			if ev.Decision != nil {
				tr.Records = append(tr.Records, *ev.Decision)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if events == 0 {
		return nil, fmt.Errorf("no events (not a flight recording?)")
	}
	return tr, nil
}

// matches reports whether rec concerns the node named by q: the node's name,
// or its numeric id when q parses as an integer.
func matches(rec *dtrace.Record, q string) bool {
	if rec.Name == q {
		return true
	}
	if id, err := strconv.Atoi(q); err == nil && rec.Node == id {
		return true
	}
	return false
}

// Why returns every decision record concerning the named node (name or
// numeric id), in emission order — the node's full decision chain across
// candidates and passes.
func (t *Trace) Why(node string) []dtrace.Record {
	var out []dtrace.Record
	for i := range t.Records {
		if matches(&t.Records[i], node) {
			out = append(out, t.Records[i])
		}
	}
	return out
}

// FilterPass returns a view of the trace restricted to records of one
// resynthesis pass (1-based). pass <= 0 returns the trace unchanged — the
// "all passes" default of the CLI's -pass flag. The returned Trace shares
// the record storage when nothing is filtered out.
func (t *Trace) FilterPass(pass int) *Trace {
	if pass <= 0 {
		return t
	}
	out := &Trace{Tool: t.Tool, Args: t.Args}
	for i := range t.Records {
		if t.Records[i].Pass == pass {
			out.Records = append(out.Records, t.Records[i])
		}
	}
	return out
}

// ReasonCount is one (pass, outcome) tally.
type ReasonCount struct {
	Pass    int           `json:"pass"`
	Outcome dtrace.Reason `json:"outcome"`
	Count   int           `json:"count"`
}

// ReasonCounts tallies record outcomes per pass, ordered by (pass, outcome).
// Candidate- and gate-level outcomes share the enum so one table covers
// both; kinds never overlap in outcome values' usage.
func (t *Trace) ReasonCounts() []ReasonCount {
	type key struct {
		pass    int
		outcome dtrace.Reason
	}
	m := map[key]int{}
	for i := range t.Records {
		m[key{t.Records[i].Pass, t.Records[i].Outcome}]++
	}
	keys := make([]key, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pass != keys[j].pass {
			return keys[i].pass < keys[j].pass
		}
		return keys[i].outcome < keys[j].outcome
	})
	out := make([]ReasonCount, len(keys))
	for i, k := range keys {
		out[i] = ReasonCount{Pass: k.pass, Outcome: k.outcome, Count: m[k]}
	}
	return out
}

// Funnel summarizes how the sweep narrowed: every gate visited, the subset
// that enumerated candidates, how many candidates were realized by a
// comparison unit, and how many replacements were finally accepted.
type Funnel struct {
	GatesVisited  int `json:"gates_visited"`  // gate records: replaced + kept
	GatesSkipped  int `json:"gates_skipped"`  // gate records: skipped_*
	Candidates    int `json:"candidates"`     // all candidate records
	Realized      int `json:"realized"`       // candidates a unit realizes
	Accepted      int `json:"accepted"`       // candidates accepted
	GatesReplaced int `json:"gates_replaced"` // gate records: replaced
}

// Funnel computes the candidate funnel over the whole trace.
func (t *Trace) Funnel() Funnel {
	var f Funnel
	for i := range t.Records {
		r := &t.Records[i]
		switch r.Kind {
		case "gate":
			switch r.Outcome {
			case dtrace.Replaced:
				f.GatesReplaced++
				f.GatesVisited++
			case dtrace.Kept:
				f.GatesVisited++
			default:
				f.GatesSkipped++
			}
		case "cand":
			f.Candidates++
			switch r.Outcome {
			case dtrace.Accepted:
				f.Accepted++
				f.Realized++
			case dtrace.Dominated, dtrace.ObjectiveWorse, dtrace.PathBound:
				f.Realized++
			}
		}
	}
	return f
}

// DiffEntry reports one node whose final gate-level disposition differs
// between two runs.
type DiffEntry struct {
	Node string        `json:"node"`
	A    dtrace.Reason `json:"a"`
	B    dtrace.Reason `json:"b"`
	AOk  bool          `json:"a_present"`
	BOk  bool          `json:"b_present"`
}

// finalGate maps node name to the last gate-level outcome recorded for it.
func (t *Trace) finalGate() map[string]dtrace.Reason {
	m := map[string]dtrace.Reason{}
	for i := range t.Records {
		r := &t.Records[i]
		if r.Kind == "gate" {
			m[r.Name] = r.Outcome
		}
	}
	return m
}

// Diff compares two traces by each node's final gate-level outcome and
// returns the nodes that differ (or appear in only one run), sorted by node
// name. Two runs of the same tool on the same input produce an empty diff
// for any -workers values — that invariance is CI-gated.
func Diff(a, b *Trace) []DiffEntry {
	fa, fb := a.finalGate(), b.finalGate()
	names := map[string]bool{}
	for n := range fa {
		names[n] = true
	}
	for n := range fb {
		names[n] = true
	}
	var out []DiffEntry
	for n := range names {
		ra, aok := fa[n]
		rb, bok := fb[n]
		if aok && bok && ra == rb {
			continue
		}
		out = append(out, DiffEntry{Node: n, A: ra, B: rb, AOk: aok, BOk: bok})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Export writes the decision records as canonical NDJSON (one marshaled
// dtrace.Record per line), stripped of the surrounding event stream. Two
// runs differing only in -workers export byte-identical files — the
// determinism artifact the CI gate compares.
func (t *Trace) Export(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range t.Records {
		if err := enc.Encode(&t.Records[i]); err != nil {
			return err
		}
	}
	return nil
}
