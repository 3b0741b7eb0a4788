package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// The three interprocedural rules, run on the whole-module call graph:
//
//	purity    - every function handed to a par fan-out primitive (Run,
//	            MapErr) must be transitively free of unguarded writes to
//	            shared state and wall-clock/global-RNG reads (in
//	            deterministic packages).
//	wallclock - (transitive extension of the syntactic rule) taint from
//	            time.Now / the global math/rand surface propagates through
//	            module calls into deterministic packages; calls into the
//	            observability packages are sanitizers, par.SetClock is a
//	            boundary.
//	sharedmut - variables captured (or globals reached) by goroutine-
//	            spawning closures and written without a sync/channel/atomic
//	            barrier; the static screen complementing the -race tests.
//
// Every finding carries a call-path witness: seam -> call chain -> sink.

// entrySeam is one function whose whole call tree the purity rule verifies.
type entrySeam struct {
	node *fnode
	seam string    // label: "par.Run task" or "par.MapErr task"
	pos  token.Pos // the seam site: where the function is handed over/declared
	pkg  *Package  // package owning the seam site (diagnostic placement)
}

var seamLabels = map[string]string{
	"Run":    "par.Run task",
	"MapErr": "par.MapErr task",
}

// analyzeInterproc builds the call graph over everything the loader has
// type-checked and runs the interprocedural rules, reporting only on the
// requested packages.
func analyzeInterproc(l *Loader, requested []*Package, cfg Config) []Diagnostic {
	needed := cfg.ruleEnabled("purity") || cfg.ruleEnabled("wallclock") || cfg.ruleEnabled("sharedmut")
	if !needed {
		return nil
	}
	g := buildGraph(l)
	closeParamMut(g)

	req := map[*Package]bool{}
	for _, p := range requested {
		req[p] = true
	}
	ir := &interprocRunner{g: g, l: l, cfg: cfg, req: req}

	if cfg.ruleEnabled("purity") {
		ir.purity()
	}
	if cfg.ruleEnabled("wallclock") {
		ir.wallclockTransitive()
	}
	if cfg.ruleEnabled("sharedmut") {
		ir.sharedmut()
	}
	return ir.diags
}

type interprocRunner struct {
	g     *graph
	l     *Loader
	cfg   Config
	req   map[*Package]bool
	diags []Diagnostic
}

// posf formats a position as file:line (absolute; Analyze relativizes).
func (ir *interprocRunner) posf(pos token.Pos) string {
	p := ir.l.fset.Position(pos)
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

func (ir *interprocRunner) report(pos token.Pos, rule, id string, witness []string, format string, args ...any) {
	position := ir.l.fset.Position(pos)
	ir.diags = append(ir.diags, Diagnostic{
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Rule:    rule,
		Msg:     fmt.Sprintf(format, args...),
		ID:      id,
		Witness: witness,
	})
}

// ---------------------------------------------------------------------------
// purity

// collectEntries finds every seam: functions handed to par fan-out
// primitives from requested packages. par's own internal wrapper closures
// are excluded — the pool machinery is the seam, and it is covered at the
// outer call sites.
func (ir *interprocRunner) collectEntries() []entrySeam {
	parPath := ir.l.ModPath + "/internal/par"
	var entries []entrySeam
	seen := map[string]bool{}
	add := func(e entrySeam) {
		key := fmt.Sprintf("%d/%s", e.node.id, e.seam)
		if !seen[key] {
			seen[key] = true
			entries = append(entries, e)
		}
	}
	for _, u := range ir.g.nodes {
		if !ir.req[u.pkg] || u.pkg.Path == parPath {
			continue
		}
		for _, site := range u.calls {
			if !site.boundary {
				continue
			}
			callee := site.ext
			if callee == nil && len(site.callees) == 1 {
				callee = site.callees[0].obj
			}
			if callee == nil {
				continue
			}
			label, isSeam := seamLabels[callee.Name()]
			if !isSeam {
				continue
			}
			for _, fa := range site.funcArgs {
				refs := []funcRef{fa.ref}
				if fa.varObj != nil {
					refs = ir.g.assigns[fa.varObj]
				}
				for _, ref := range refs {
					if ref.node != nil {
						add(entrySeam{node: ref.node, seam: label, pos: site.pos, pkg: u.pkg})
					}
				}
			}
		}
	}
	// Deterministic report order: by seam position, then entry name.
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].pos != entries[j].pos {
			return entries[i].pos < entries[j].pos
		}
		return entries[i].node.name < entries[j].node.name
	})
	return entries
}

func (ir *interprocRunner) purity() {
	for _, e := range ir.collectEntries() {
		ir.purityTask(e)
	}
}

// sharedForEntry decides whether an operand root is shared across tasks of
// this entry. Globals always are. A captured variable is shared only when
// the capture crosses the entry's own boundary: the entry closure (and
// literals lexically nested in it) capturing coordinator state. Deeper in
// the call tree, captured variables belong to activation records created
// per task, hence private — with the known imprecision that a closure
// created elsewhere and reached through a stored function value is trusted.
func sharedForEntry(e entrySeam, u *fnode, kind rootKind, obj interface{ Pos() token.Pos }) bool {
	switch kind {
	case rootGlobal:
		return true
	case rootCaptured:
		if u != e.node && !(u.lit != nil && u.pos >= e.node.pos && u.end <= e.node.end) {
			return false
		}
		return obj == nil || obj.Pos() < e.node.pos || obj.Pos() > e.node.end
	}
	return false
}

// purityTask checks one fan-out entry: its whole reachable call tree
// (stopping at par boundaries and observability calls) must not write
// shared state, read the clock (deterministic packages), or perform
// unverifiable dynamic calls on shared values.
func (ir *interprocRunner) purityTask(e entrySeam) {
	order, parents := reachFrom(e.node)
	det := ir.cfg.deterministic(e.pkg.Path, ir.l.ModPath)
	seenDesc := map[string]bool{}

	emit := func(u *fnode, pos token.Pos, desc string) {
		if seenDesc[desc] {
			return
		}
		seenDesc[desc] = true
		w := ir.witness(e, u, parents, pos, desc)
		id := fmt.Sprintf("purity/%s/%08x", e.node.name, fnv32a(desc))
		ir.report(e.pos, "purity", id, w,
			"%s %s is impure: %s — tasks run concurrently and must only touch task-indexed or properly synchronized state (see witness)",
			e.seam, e.node.name, desc)
	}

	for _, u := range order {
		if det {
			for _, f := range u.clockReads {
				emit(u, f.pos, f.desc+" (wall-clock/global-RNG read)")
			}
		}
		for _, f := range u.globalWrites {
			emit(u, f.pos, f.desc)
		}
		if u == e.node || (u.lit != nil && u.pos >= e.node.pos && u.end <= e.node.end) {
			for _, f := range u.capturedWrites {
				if f.obj == nil || f.obj.Pos() < e.node.pos || f.obj.Pos() > e.node.end {
					emit(u, f.pos, f.desc)
				}
			}
		}
		for _, site := range u.calls {
			if site.boundary || site.sanitized || site.guarded {
				continue
			}
			for ai, arg := range site.args {
				i := ai
				if site.calleeRooted {
					if ai == 0 {
						continue
					}
					i = ai - 1
				}
				if sharedForEntry(e, u, arg.kind, arg.obj) && calleeMutatesArg(site, i) {
					emit(u, site.pos, fmt.Sprintf("call mutates %s %s", arg.kind, objName(arg.obj)))
				}
			}
			if site.dynamic && len(site.callees) == 0 && len(site.args) > 0 {
				arg := site.args[0]
				if (site.calleeRooted || site.ext != nil) && sharedForEntry(e, u, arg.kind, arg.obj) {
					what := "function value"
					if site.ext != nil {
						what = "interface method " + site.ext.Name()
					}
					emit(u, site.pos, fmt.Sprintf("unresolvable dynamic call (%s) on %s %s", what, arg.kind, objName(arg.obj)))
				}
			}
		}
	}
}

// witness renders the call-path: seam -> call chain -> sink.
func (ir *interprocRunner) witness(e entrySeam, sink *fnode, parents map[*fnode]parentEdge, pos token.Pos, desc string) []string {
	w := []string{fmt.Sprintf("seam %s: %s is %s", ir.posf(e.pos), e.node.name, e.seam)}
	for _, st := range witnessTo(sink, parents) {
		w = append(w, fmt.Sprintf("calls %s at %s", st.name, ir.posf(st.pos)))
	}
	w = append(w, fmt.Sprintf("sink %s: %s", ir.posf(pos), desc))
	return w
}

// ---------------------------------------------------------------------------
// wallclock, transitive

// wallclockTransitive flags declared functions in deterministic requested
// packages whose call chains reach a wall-clock fact, and calls through
// function values that resolve to a clock source. Direct reads are the
// syntactic rule's findings and are not duplicated here.
func (ir *interprocRunner) wallclockTransitive() {
	reach, hops := clockReachability(ir.g)
	for _, n := range ir.g.nodes {
		if n.decl == nil || !ir.req[n.pkg] {
			continue
		}
		if !ir.cfg.deterministic(n.pkg.Path, ir.l.ModPath) {
			continue
		}
		direct := false
		for _, f := range n.clockReads {
			if f.indirect {
				id := fmt.Sprintf("wallclock/%s/%08x", n.name, fnv32a(f.desc))
				ir.report(f.pos, "wallclock", id,
					[]string{fmt.Sprintf("sink %s: %s", ir.posf(f.pos), f.desc)},
					"%s in deterministic package %s: %s — results must be a pure function of (inputs, options, seed)",
					n.name, n.pkg.Name, f.desc)
			} else {
				direct = true
			}
		}
		if direct || len(n.clockReads) > 0 {
			continue // direct reads are the syntactic rule's findings
		}
		if !reach[n.id] || hops[n.id].next == nil {
			continue
		}
		// Follow the shortest-hop chain to the sink for the witness.
		var w []string
		cur := n
		for hops[cur.id].next != nil {
			h := hops[cur.id]
			w = append(w, fmt.Sprintf("calls %s at %s", h.next.name, ir.posf(h.site.pos)))
			cur = h.next
		}
		sink := cur.clockReads[0]
		w = append(w, fmt.Sprintf("sink %s: %s", ir.posf(sink.pos), sink.desc))
		id := fmt.Sprintf("wallclock/%s/transitive", n.name)
		ir.report(hops[n.id].site.pos, "wallclock", id, w,
			"%s in deterministic package %s reaches %s through the call graph — results must be a pure function of (inputs, options, seed)",
			n.name, n.pkg.Name, sink.desc)
	}
}

// ---------------------------------------------------------------------------
// sharedmut

// sharedmut flags goroutine-spawned functions that write state shared with
// the spawning side without a barrier. The check is one call level deep by
// design: raw go statements in this repository hand off either to
// self-contained loops or through channels, and deep fan-out goes through
// par, whose seams the purity rule verifies exhaustively.
func (ir *interprocRunner) sharedmut() {
	for _, u := range ir.g.nodes {
		if !ir.req[u.pkg] {
			continue
		}
		for _, site := range u.calls {
			if !site.spawned {
				continue
			}
			for _, t := range site.callees {
				ir.checkSpawned(u, site, t)
			}
			// A named function spawned with shared operands that it writes
			// through races the same way a captured write does.
			if !site.guarded {
				for ai, arg := range site.args {
					if (arg.kind == rootCaptured || arg.kind == rootGlobal) && calleeMutatesArg(site, ai) {
						id := fmt.Sprintf("sharedmut/%s/%08x", u.name, fnv32a(objName(arg.obj)))
						ir.report(site.pos, "sharedmut", id,
							[]string{fmt.Sprintf("go statement %s in %s", ir.posf(site.pos), u.name),
								fmt.Sprintf("sink %s: spawned call mutates %s %s", ir.posf(site.pos), arg.kind, objName(arg.obj))},
							"goroutine spawned in %s mutates %s %s without a sync/channel/atomic barrier",
							u.name, arg.kind, objName(arg.obj))
					}
				}
			}
		}
	}
}

func (ir *interprocRunner) checkSpawned(u *fnode, site *callSite, t *fnode) {
	emit := func(pos token.Pos, desc string) {
		id := fmt.Sprintf("sharedmut/%s/%08x", u.name, fnv32a(desc))
		ir.report(pos, "sharedmut", id,
			[]string{fmt.Sprintf("go statement %s in %s spawns %s", ir.posf(site.pos), u.name, t.name),
				fmt.Sprintf("sink %s: %s", ir.posf(pos), desc)},
			"goroutine %s (spawned in %s): %s without a sync/channel/atomic barrier — one side writes while the other reads",
			t.name, u.name, desc)
	}
	for _, f := range t.capturedWrites {
		emit(f.pos, f.desc)
	}
	for _, f := range t.globalWrites {
		emit(f.pos, f.desc)
	}
	for _, s2 := range t.calls {
		if s2.guarded || s2.boundary || s2.sanitized {
			continue
		}
		for ai, arg := range s2.args {
			i := ai
			if s2.calleeRooted {
				if ai == 0 {
					continue
				}
				i = ai - 1
			}
			if (arg.kind == rootCaptured || arg.kind == rootGlobal) && calleeMutatesArg(s2, i) {
				emit(s2.pos, fmt.Sprintf("call mutates %s %s", arg.kind, objName(arg.obj)))
			}
		}
	}
}

// fnv32a is FNV-1a over a string, used for stable, line-independent
// diagnostic IDs.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// relativizeWitness rewrites absolute paths in witness lines.
func relativizeWitness(w []string, root string) []string {
	if root == "" || len(w) == 0 {
		return w
	}
	out := make([]string, len(w))
	for i, s := range w {
		out[i] = strings.ReplaceAll(s, root+"/", "")
	}
	return out
}
