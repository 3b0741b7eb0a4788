// Command sftexplain queries the decision trace a run recorded with
// -events FILE -dtrace=full: why the resynthesis sweep
// replaced, kept, or skipped a node, which rejection reasons dominated each
// pass, how the candidate funnel narrowed, and how two runs' decisions
// differ. It reads the plain-NDJSON streams the recorder writes, and the
// hash-chained streams earlier versions wrote.
//
// Usage:
//
//	sftexplain why NODE EVENTS       decision chain for NODE (name or id)
//	sftexplain reasons EVENTS        outcome tally per pass
//	sftexplain funnel EVENTS         candidate funnel counts
//	sftexplain diff EVENTS EVENTS    final per-node outcomes that differ
//	sftexplain export EVENTS         canonical decision records as NDJSON
//
// Every subcommand but export takes -json for machine-readable output;
// export always writes NDJSON, so -json on it is a usage error. reasons and
// funnel take -pass N to restrict the tally to one resynthesis pass (0, the
// default, covers all passes); a negative pass, or -pass on any other
// subcommand, is a usage error. Flags go before
// positional arguments. Exit status: 0 on success (including an empty
// diff — diff is informational), 2 on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"compsynth/internal/explain"
	"compsynth/internal/obs/dtrace"
)

func usage() {
	fmt.Fprintln(os.Stderr, `usage: sftexplain COMMAND [-json] ARGS
  why NODE EVENTS     decision chain for NODE (name or numeric id)
  reasons EVENTS      outcome tally per pass (-pass N for one pass)
  funnel EVENTS       candidate funnel counts (-pass N for one pass)
  diff EVENTS EVENTS  final per-node outcomes that differ between two runs
  export EVENTS       canonical decision records as NDJSON (no -json)

Flags go before positional arguments: sftexplain reasons -pass 2 EVENTS.`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "sftexplain: %v\n", err)
	os.Exit(2)
}

func load(path string) *explain.Trace {
	tr, err := explain.Load(path)
	if err != nil {
		fatal(err)
	}
	return tr
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet("sftexplain "+cmd, flag.ExitOnError)
	asJSON := fs.Bool("json", false, "machine-readable JSON output")
	pass := fs.Int("pass", 0, "restrict reasons/funnel to one resynthesis pass (0 = all passes)")
	fs.Parse(os.Args[2:])
	args := fs.Args()
	if *pass < 0 {
		fatal(fmt.Errorf("-pass %d: passes are numbered from 1 (0 means all)", *pass))
	}
	switch cmd {
	case "why", "diff", "export":
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "pass" {
				fatal(fmt.Errorf("-pass applies only to reasons and funnel, not %s", cmd))
			}
			if f.Name == "json" && cmd == "export" {
				fatal(fmt.Errorf("-json does not apply to export, which always writes NDJSON"))
			}
		})
	}

	switch cmd {
	case "why":
		if len(args) != 2 {
			usage()
		}
		tr := load(args[1])
		chain := tr.Why(args[0])
		if *asJSON {
			emitJSON(chain)
			return
		}
		if len(chain) == 0 {
			fmt.Printf("no decisions recorded for node %q (traced with -dtrace?)\n", args[0])
			return
		}
		for i := range chain {
			printRecord(&chain[i])
		}
	case "reasons":
		if len(args) != 1 {
			usage()
		}
		tr := load(args[0]).FilterPass(*pass)
		counts := tr.ReasonCounts()
		if *asJSON {
			emitJSON(counts)
			return
		}
		pass := -1
		for _, rc := range counts {
			if rc.Pass != pass {
				pass = rc.Pass
				fmt.Printf("pass %d:\n", pass)
			}
			fmt.Printf("  %-20v %d\n", rc.Outcome, rc.Count)
		}
	case "funnel":
		if len(args) != 1 {
			usage()
		}
		f := load(args[0]).FilterPass(*pass).Funnel()
		if *asJSON {
			emitJSON(f)
			return
		}
		fmt.Printf("gates visited     %d (replaced %d, skipped %d more)\n",
			f.GatesVisited, f.GatesReplaced, f.GatesSkipped)
		fmt.Printf("candidates        %d\n", f.Candidates)
		fmt.Printf("  realized        %d\n", f.Realized)
		fmt.Printf("  accepted        %d\n", f.Accepted)
	case "diff":
		if len(args) != 2 {
			usage()
		}
		d := explain.Diff(load(args[0]), load(args[1]))
		if *asJSON {
			if d == nil {
				d = []explain.DiffEntry{}
			}
			emitJSON(d)
			return
		}
		if len(d) == 0 {
			fmt.Println("decision traces agree on every node")
			return
		}
		for _, e := range d {
			a, b := "absent", "absent"
			if e.AOk {
				a = e.A.String()
			}
			if e.BOk {
				b = e.B.String()
			}
			fmt.Printf("%s: %s -> %s\n", e.Node, a, b)
		}
	case "export":
		if len(args) != 1 {
			usage()
		}
		if err := load(args[0]).Export(os.Stdout); err != nil {
			fatal(err)
		}
	default:
		usage()
	}
}

// printRecord renders one decision record as a human-readable line.
func printRecord(r *dtrace.Record) {
	fmt.Printf("pass %d %-4s node %d", r.Pass, r.Kind, r.Node)
	if r.Name != "" {
		fmt.Printf(" (%s)", r.Name)
	}
	fmt.Printf(": %v", r.Outcome)
	if r.Width > 0 {
		fmt.Printf("  cut=%v", r.Cut)
	}
	if r.Outcome == dtrace.Accepted || r.Outcome == dtrace.Replaced ||
		r.Outcome == dtrace.Dominated || r.Outcome == dtrace.ObjectiveWorse ||
		r.Outcome == dtrace.PathBound {
		fmt.Printf("  gate_save=%d paths %d->%d", r.GateSave, r.PathsBefore, r.PathsAfter)
	}
	if r.Spec != "" {
		fmt.Printf("  spec=%s", r.Spec)
	}
	if r.UsedDC {
		fmt.Printf("  dc")
	}
	if r.MultiUnit {
		fmt.Printf("  multi")
	}
	fmt.Println()
}
