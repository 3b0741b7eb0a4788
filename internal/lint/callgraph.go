package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the conservative static call graph the interprocedural
// rules (rules_interproc.go) run on. The graph covers every module package
// the loader has type-checked — the requested packages plus everything they
// import inside the module — so an effect hidden an arbitrary number of
// calls deep is still attributed to the seam that reaches it.
//
// Resolution strategy, most to least precise:
//
//   - direct calls and concrete method calls resolve through go/types
//     (instantiated generics resolve to their generic declaration);
//   - calls through function-typed variables, struct fields and parameters
//     resolve to the set of function values ever observed flowing into that
//     object anywhere in the analyzed module (assignments, var initializers,
//     composite-literal fields, and arguments at resolved call sites);
//   - interface method calls and any remaining indirect calls are
//     unresolvable: they carry no edges, and the purity rule reports them as
//     worst-case when the called value is rooted in shared state.
//
// Effects recorded per function while scanning bodies:
//
//   - wall-clock / global-RNG reads (the wallclock rule's source set, plus
//     indirect calls whose tracked value set includes such a function);
//   - unguarded writes to package-level variables;
//   - unguarded writes to captured variables (function literals);
//   - the set of parameters (receiver first) the function writes through,
//     which dataflow.go closes over calls with a fixpoint.
//
// "Unguarded" is a lexical heuristic: a write is considered barriered when a
// sync Lock/RLock/Wait/Once.Do call, a channel operation, or a select
// statement appears earlier in the same function body. That is exactly the
// shape of every sanctioned site in this repository (mutex-guarded memo
// tables, signal-channel handoff); anything cleverer needs a justification.

// rootKind classifies what an lvalue or call-operand expression is
// ultimately rooted in, from the perspective of one function.
type rootKind int

const (
	rootLocal    rootKind = iota // local variable or fresh value — task-private
	rootParam                    // reached through a parameter (receiver = 0)
	rootCaptured                 // free variable of a function literal
	rootGlobal                   // package-level variable
)

func (k rootKind) String() string {
	switch k {
	case rootParam:
		return "parameter"
	case rootCaptured:
		return "captured variable"
	case rootGlobal:
		return "global variable"
	}
	return "local"
}

// fact is one locally observed effect: position, human-readable description
// for witnesses, the root variable when one is involved, and whether the
// effect was reached through a tracked function value rather than directly.
type fact struct {
	pos      token.Pos
	desc     string
	obj      types.Object // written variable, for captured/global writes
	indirect bool         // reached via a function-typed variable
}

// argInfo is the rooting of one call operand (receiver first for methods).
type argInfo struct {
	pos      token.Pos
	kind     rootKind
	paramIdx int          // index into the caller's params when kind == rootParam
	obj      types.Object // root variable for captured/global roots
}

// callSite is one call expression inside a function body.
type callSite struct {
	pos     token.Pos
	callees []*fnode    // resolved module callees (>1 for tracked func values)
	ext     *types.Func // resolved non-module or bodiless callee
	dynamic bool        // interface dispatch or untracked function value
	guarded bool        // lexically after a barrier in the same body
	// sanitized marks calls into the observability packages (the wallclock
	// rule's nondeterministicPkgs set): effects inside them do not propagate
	// out — their clock readings feed reports and telemetry, never pipeline
	// results (obsdiff enforces that dynamically), and their internals are
	// synchronized under their own -race coverage.
	sanitized bool
	// boundary marks the par fan-out/cache primitives: every closure handed
	// to them is verified at its own seam by the purity rule, so
	// reachability does not tunnel through the pool machinery itself.
	boundary bool
	spawned  bool      // call is the operand of a go statement
	args     []argInfo // receiver first for method calls; for dynamic
	// ident/selector calls, args[0] is the rooting of the called value.
	calleeRooted bool // args[0] is the called value, not a receiver/argument
	// funcArgs records function values appearing as arguments (positional
	// index, receiver excluded), for seam-entry discovery: literals and
	// function names resolve immediately; a variable argument carries its
	// object for resolution against the assignment index.
	funcArgs []funcArg
}

type funcArg struct {
	idx    int // positional argument index
	ref    funcRef
	varObj types.Object // set when the argument is a function-typed variable
}

// fnode is one function in the graph: a declared function/method or a
// function literal.
type fnode struct {
	id   int
	obj  *types.Func   // nil for literals
	lit  *ast.FuncLit  // nil for declarations
	decl *ast.FuncDecl // nil for literals
	pkg  *Package
	name string // display name: pkg.Fn, pkg.(*T).M, pkg.Fn$N for literals
	pos  token.Pos
	end  token.Pos
	body *ast.BlockStmt

	params   []types.Object // receiver first, then declared parameters
	litCount int            // literals numbered under this function

	calls          []*callSite
	clockReads     []fact
	globalWrites   []fact
	capturedWrites []fact
	mutLocal       uint64 // bit i: writes through params[i] in this body
	mutAll         uint64 // closed over calls by the dataflow fixpoint
}

// funcDisplayName renders a stable human-readable name for diagnostics.
func funcDisplayName(pkg *Package, obj *types.Func) string {
	if obj == nil {
		return pkg.Name + ".func"
	}
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
			ptr = "*"
		}
		if named := namedOf(t); named != nil {
			return fmt.Sprintf("%s.(%s%s).%s", pkg.Name, ptr, named.Obj().Name(), obj.Name())
		}
	}
	return pkg.Name + "." + obj.Name()
}

// graph is the whole-module call graph plus the function-value assignment
// index used to resolve indirect calls.
type graph struct {
	l     *Loader
	pkgs  []*Package // analysis universe, sorted by import path
	nodes []*fnode
	byObj map[*types.Func]*fnode
	byLit map[*ast.FuncLit]*fnode

	// assigns maps a function-typed variable/field/parameter object to every
	// function value observed flowing into it anywhere in the universe.
	assigns map[types.Object][]funcRef

	pending []pendingCall // indirect calls, resolved once assigns is complete
}

// funcRef is one function value: a module node, or an external function.
type funcRef struct {
	node *fnode
	ext  *types.Func
}

type pendingCall struct {
	owner *fnode
	site  *callSite
	root  types.Object // the called variable/field
}

// buildGraph constructs the call graph over every package the loader has
// type-checked. The node order (and therefore every diagnostic order
// downstream) is deterministic: packages sorted by path, files in parse
// order, declarations in source order.
func buildGraph(l *Loader) *graph {
	g := &graph{
		l:       l,
		pkgs:    l.Loaded(),
		byObj:   map[*types.Func]*fnode{},
		byLit:   map[*ast.FuncLit]*fnode{},
		assigns: map[types.Object][]funcRef{},
	}
	// Register every declared function first, scan bodies second: calls
	// resolve through byObj, which must cover forward references (a call to
	// a function declared later in the file or package).
	var decls []*fnode
	for _, p := range g.pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if decl, ok := d.(*ast.FuncDecl); ok && decl.Body != nil {
					decls = append(decls, g.addDecl(p, decl))
				}
			}
		}
	}
	for _, p := range g.pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if decl, ok := d.(*ast.GenDecl); ok {
					g.scanPkgDecl(p, decl)
				}
			}
		}
	}
	for _, n := range decls {
		g.scanBody(n)
	}
	// Second pass: resolve indirect calls against the assignment index. A
	// call through a variable that ever held a wall-clock source becomes a
	// clock fact on the calling function.
	for _, pc := range g.pending {
		refs := g.assigns[pc.root]
		if len(refs) == 0 {
			pc.site.dynamic = true
			continue
		}
		for _, r := range refs {
			if r.node != nil {
				pc.site.callees = append(pc.site.callees, r.node)
			} else if r.ext != nil {
				if pc.site.ext == nil {
					pc.site.ext = r.ext
				}
				if isClockSource(r.ext) {
					pc.owner.clockReads = append(pc.owner.clockReads, fact{
						pos: pc.site.pos,
						desc: fmt.Sprintf("call through %s resolves to %s.%s",
							objName(pc.root), r.ext.Pkg().Path(), r.ext.Name()),
						indirect: true,
					})
				}
			}
		}
	}
	g.classifyCallSites()
	return g
}

// scanPkgDecl records function values flowing into package-level variables
// and composite-literal fields in their initializers.
func (g *graph) scanPkgDecl(p *Package, decl *ast.GenDecl) {
	if decl.Tok != token.VAR {
		return
	}
	// Pseudo-node giving initializer literals a package context; not part of
	// the graph itself (package init order is outside the rules' scope).
	pseudo := &fnode{pkg: p, name: p.Name + ".init", pos: decl.Pos(), end: decl.End()}
	for _, spec := range decl.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			if i >= len(vs.Values) {
				break
			}
			g.recordFuncFlow(pseudo, name, vs.Values[i])
			g.scanCompositeFlows(pseudo, vs.Values[i])
		}
	}
}

// scanCompositeFlows records function values stored into struct fields via
// composite literals anywhere inside e.
func (g *graph) scanCompositeFlows(n *fnode, e ast.Expr) {
	ast.Inspect(e, func(nd ast.Node) bool {
		kv, ok := nd.(*ast.KeyValueExpr)
		if !ok {
			return true
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := n.pkg.Info.ObjectOf(key).(*types.Var); ok && v.IsField() {
			if ref, ok := g.funcValueOf(n, kv.Value); ok {
				g.assigns[v] = append(g.assigns[v], ref)
			}
		}
		return true
	})
}

func (g *graph) addDecl(p *Package, fd *ast.FuncDecl) *fnode {
	obj, _ := p.Info.Defs[fd.Name].(*types.Func)
	n := &fnode{
		id:   len(g.nodes),
		obj:  obj,
		decl: fd,
		pkg:  p,
		name: funcDisplayName(p, obj),
		pos:  fd.Pos(),
		end:  fd.End(),
		body: fd.Body,
	}
	if obj != nil {
		if sig, ok := obj.Type().(*types.Signature); ok {
			if sig.Recv() != nil {
				n.params = append(n.params, sig.Recv())
			}
			for i := 0; i < sig.Params().Len(); i++ {
				n.params = append(n.params, sig.Params().At(i))
			}
		}
		g.byObj[obj] = n
	}
	g.nodes = append(g.nodes, n)
	return n
}

// addLit creates (or returns) the node for a function literal nested in
// parent.
func (g *graph) addLit(parent *fnode, lit *ast.FuncLit) *fnode {
	if n, ok := g.byLit[lit]; ok {
		return n
	}
	parent.litCount++
	n := &fnode{
		id:   len(g.nodes),
		lit:  lit,
		pkg:  parent.pkg,
		name: fmt.Sprintf("%s$%d", parent.name, parent.litCount),
		pos:  lit.Pos(),
		end:  lit.End(),
		body: lit.Body,
	}
	if sig, ok := parent.pkg.Info.Types[lit].Type.(*types.Signature); ok {
		for i := 0; i < sig.Params().Len(); i++ {
			n.params = append(n.params, sig.Params().At(i))
		}
	}
	g.byLit[lit] = n
	g.nodes = append(g.nodes, n)
	g.scanBody(n)
	return n
}

// barrierPositions collects the lexical positions of synchronization
// barriers in one body: sync Lock/RLock/Wait/Do calls, channel sends and
// receives, channel ranges, and select statements.
func (g *graph) barrierPositions(n *fnode) []token.Pos {
	var out []token.Pos
	ast.Inspect(n.body, func(nd ast.Node) bool {
		switch s := nd.(type) {
		case *ast.FuncLit:
			return false // nested literals barrier for themselves
		case *ast.SendStmt:
			out = append(out, s.Pos())
		case *ast.SelectStmt:
			out = append(out, s.Pos())
		case *ast.UnaryExpr:
			if s.Op == token.ARROW {
				out = append(out, s.Pos())
			}
		case *ast.RangeStmt:
			if tv, ok := n.pkg.Info.Types[s.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					out = append(out, s.Pos())
				}
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(s.Fun).(*ast.SelectorExpr); ok {
				if fn, _ := n.pkg.Info.Uses[sel.Sel].(*types.Func); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
					switch fn.Name() {
					case "Lock", "RLock", "Wait", "Do":
						out = append(out, s.Pos())
					}
				}
			}
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func guardedAt(barriers []token.Pos, pos token.Pos) bool {
	i := sort.Search(len(barriers), func(i int) bool { return barriers[i] >= pos })
	return i > 0
}

// scanBody walks one function body (stopping at nested literals, which get
// their own nodes) recording calls, writes, clock reads and function-value
// flows.
func (g *graph) scanBody(n *fnode) {
	barriers := g.barrierPositions(n)
	ast.Inspect(n.body, func(nd ast.Node) bool {
		switch s := nd.(type) {
		case *ast.FuncLit:
			g.addLit(n, s)
			return false
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				if len(s.Rhs) == len(s.Lhs) {
					g.recordFuncFlow(n, lhs, s.Rhs[i])
				}
				if s.Tok != token.DEFINE {
					g.recordWrite(n, lhs, guardedAt(barriers, lhs.Pos()), "")
				}
			}
		case *ast.IncDecStmt:
			g.recordWrite(n, s.X, guardedAt(barriers, s.Pos()), "")
		case *ast.GoStmt:
			g.addCall(n, s.Call, barriers, true)
			return false
		case *ast.DeferStmt:
			g.addCall(n, s.Call, barriers, false)
			return false
		case *ast.CallExpr:
			g.addCall(n, s, barriers, false)
			return false
		case *ast.ValueSpec:
			for i, name := range s.Names {
				if i < len(s.Values) {
					g.recordFuncFlow(n, name, s.Values[i])
				}
			}
		case *ast.KeyValueExpr:
			if key, ok := s.Key.(*ast.Ident); ok {
				if v, ok := n.pkg.Info.ObjectOf(key).(*types.Var); ok && v.IsField() {
					if ref, ok := g.funcValueOf(n, s.Value); ok {
						g.assigns[v] = append(g.assigns[v], ref)
					}
				}
			}
		}
		return true
	})
}

// scanNested visits an operand expression for nested calls, literals and
// composite-literal function flows (used for call arguments and callee
// expressions, which addCall does not descend into via scanBody).
func (g *graph) scanNested(n *fnode, e ast.Expr, barriers []token.Pos) {
	ast.Inspect(e, func(nd ast.Node) bool {
		switch s := nd.(type) {
		case *ast.FuncLit:
			g.addLit(n, s)
			return false
		case *ast.CallExpr:
			g.addCall(n, s, barriers, false)
			return false
		case *ast.KeyValueExpr:
			if key, ok := s.Key.(*ast.Ident); ok {
				if v, ok := n.pkg.Info.ObjectOf(key).(*types.Var); ok && v.IsField() {
					if ref, ok := g.funcValueOf(n, s.Value); ok {
						g.assigns[v] = append(g.assigns[v], ref)
					}
				}
			}
		}
		return true
	})
}

// addCall records one call site: resolution, operand rooting, builtin
// write-throughs, and recursion into nested expressions.
func (g *graph) addCall(n *fnode, call *ast.CallExpr, barriers []token.Pos, spawned bool) {
	info := n.pkg.Info
	fun := ast.Unparen(call.Fun)

	// Type conversions are not calls; their operand may still contain one.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		for _, a := range call.Args {
			g.scanNested(n, a, barriers)
		}
		return
	}

	site := &callSite{pos: call.Pos(), guarded: guardedAt(barriers, call.Pos()), spawned: spawned}

	g.scanNested(n, call.Fun, barriers)
	for _, a := range call.Args {
		g.scanNested(n, a, barriers)
	}

	var recvExpr ast.Expr
	switch fn := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[fn].(type) {
		case *types.Func:
			g.resolveStatic(n, site, obj)
		case *types.Builtin:
			g.recordBuiltin(n, call, obj.Name(), barriers)
			return
		case *types.Var:
			g.pending = append(g.pending, pendingCall{n, site, obj})
			site.args = append(site.args, g.rootOf(n, fn))
			site.calleeRooted = true
		default:
			site.dynamic = true
		}
	case *ast.SelectorExpr:
		switch obj := info.Uses[fn.Sel].(type) {
		case *types.Func:
			if sel, ok := info.Selections[fn]; ok && sel.Kind() == types.MethodVal {
				recvExpr = fn.X
			}
			g.resolveStatic(n, site, obj)
		case *types.Var:
			g.pending = append(g.pending, pendingCall{n, site, obj})
			site.args = append(site.args, g.rootOf(n, fn))
			site.calleeRooted = true
		default:
			site.dynamic = true
		}
	case *ast.FuncLit:
		site.callees = append(site.callees, g.addLit(n, fn))
	case *ast.IndexExpr, *ast.IndexListExpr:
		// Explicit generic instantiation f[T](...), or a call of an indexed
		// function value (the latter stays dynamic).
		var base ast.Expr
		switch ix := fun.(type) {
		case *ast.IndexExpr:
			base = ix.X
		case *ast.IndexListExpr:
			base = ix.X
		}
		switch b := ast.Unparen(base).(type) {
		case *ast.Ident:
			if obj, ok := info.Uses[b].(*types.Func); ok {
				g.resolveStatic(n, site, obj)
			} else {
				site.dynamic = true
			}
		case *ast.SelectorExpr:
			if obj, ok := info.Uses[b.Sel].(*types.Func); ok {
				if sel, ok := info.Selections[b]; ok && sel.Kind() == types.MethodVal {
					recvExpr = b.X
				}
				g.resolveStatic(n, site, obj)
			} else {
				site.dynamic = true
			}
		default:
			site.dynamic = true
		}
	default:
		site.dynamic = true
	}

	// Operand rooting: receiver first, then positional arguments.
	if recvExpr != nil {
		site.args = append(site.args, g.rootOf(n, recvExpr))
	}
	for _, a := range call.Args {
		site.args = append(site.args, g.rootOf(n, a))
	}

	// Direct wall-clock / global-RNG call.
	if site.ext != nil && isClockSource(site.ext) {
		n.clockReads = append(n.clockReads, fact{pos: call.Pos(),
			desc: site.ext.Pkg().Path() + "." + site.ext.Name()})
	}

	g.trackArgFlows(n, site, call)

	n.calls = append(n.calls, site)
}

// resolveStatic settles a call with a statically known *types.Func callee.
func (g *graph) resolveStatic(n *fnode, site *callSite, obj *types.Func) {
	obj = origin(obj)
	if target, ok := g.byObj[obj]; ok {
		site.callees = append(site.callees, target)
		return
	}
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type()) {
			site.dynamic = true // interface dispatch: unresolvable
			site.ext = obj
			return
		}
	}
	site.ext = obj // external (stdlib) or bodiless module function
}

// origin maps an instantiated generic function back to its declaration.
func origin(f *types.Func) *types.Func {
	if o := f.Origin(); o != nil {
		return o
	}
	return f
}

// trackArgFlows records function values appearing in call arguments: into
// the resolved callee's parameter objects (for later indirect resolution).
// A callback handed to a call with no resolved module callee is
// conservatively treated as invoked by the caller.
func (g *graph) trackArgFlows(n *fnode, site *callSite, call *ast.CallExpr) {
	for i, a := range call.Args {
		ref, ok := g.funcValueOf(n, a)
		if !ok {
			// A function-typed variable argument: remember the object so
			// seam-entry discovery can resolve it via the assignment index.
			if id, isIdent := ast.Unparen(a).(*ast.Ident); isIdent {
				if v, isVar := n.pkg.Info.Uses[id].(*types.Var); isVar {
					if _, isSig := v.Type().Underlying().(*types.Signature); isSig {
						site.funcArgs = append(site.funcArgs, funcArg{idx: i, varObj: v})
					}
				}
			}
			continue
		}
		site.funcArgs = append(site.funcArgs, funcArg{idx: i, ref: ref})
		for _, callee := range site.callees {
			off := 0
			if callee.obj != nil {
				if sig, sok := callee.obj.Type().(*types.Signature); sok && sig.Recv() != nil {
					off = 1
				}
			}
			idx := i + off
			if idx >= len(callee.params) && len(callee.params) > 0 {
				idx = len(callee.params) - 1 // variadic tail
			}
			if idx >= 0 && idx < len(callee.params) {
				g.assigns[callee.params[idx]] = append(g.assigns[callee.params[idx]], ref)
			}
		}
		if len(site.callees) == 0 && ref.node != nil {
			site.callees = append(site.callees, ref.node)
		}
	}
}

// recordFuncFlow tracks a function value flowing into a variable or field.
func (g *graph) recordFuncFlow(n *fnode, lhs ast.Node, rhs ast.Expr) {
	ref, ok := g.funcValueOf(n, rhs)
	if !ok {
		return
	}
	var target types.Object
	switch l := lhs.(type) {
	case *ast.Ident:
		target = n.pkg.Info.ObjectOf(l)
	case ast.Expr:
		switch le := ast.Unparen(l).(type) {
		case *ast.Ident:
			target = n.pkg.Info.ObjectOf(le)
		case *ast.SelectorExpr:
			target = n.pkg.Info.ObjectOf(le.Sel)
		}
	}
	if target != nil {
		g.assigns[target] = append(g.assigns[target], ref)
	}
}

// funcValueOf resolves an expression denoting a function value: a literal, a
// function identifier, or a method value.
func (g *graph) funcValueOf(n *fnode, e ast.Expr) (funcRef, bool) {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.FuncLit:
		return funcRef{node: g.addLit(n, x)}, true
	case *ast.Ident:
		if fn, ok := n.pkg.Info.Uses[x].(*types.Func); ok {
			fn = origin(fn)
			if target, ok := g.byObj[fn]; ok {
				return funcRef{node: target}, true
			}
			return funcRef{ext: fn}, true
		}
	case *ast.SelectorExpr:
		if fn, ok := n.pkg.Info.Uses[x.Sel].(*types.Func); ok {
			fn = origin(fn)
			if target, ok := g.byObj[fn]; ok {
				return funcRef{node: target}, true
			}
			return funcRef{ext: fn}, true
		}
	}
	return funcRef{}, false
}

// recordBuiltin handles builtins with write-through semantics and still
// scans their arguments.
func (g *graph) recordBuiltin(n *fnode, call *ast.CallExpr, name string, barriers []token.Pos) {
	switch name {
	case "copy", "delete":
		if len(call.Args) > 0 {
			g.recordWrite(n, call.Args[0], guardedAt(barriers, call.Pos()), name)
		}
	}
	for _, a := range call.Args {
		g.scanNested(n, a, barriers)
	}
}

// recordWrite classifies one write target by its root and files the
// corresponding effect. via names the builtin (copy/delete) when the write
// happens through one.
func (g *graph) recordWrite(n *fnode, lhs ast.Expr, guarded bool, via string) {
	ai := g.rootOf(n, lhs)
	if guarded {
		return
	}
	prefix := "write to"
	if via != "" {
		prefix = via + " into"
	}
	switch ai.kind {
	case rootGlobal:
		n.globalWrites = append(n.globalWrites, fact{pos: lhs.Pos(), obj: ai.obj,
			desc: fmt.Sprintf("%s global %s", prefix, objName(ai.obj))})
	case rootCaptured:
		n.capturedWrites = append(n.capturedWrites, fact{pos: lhs.Pos(), obj: ai.obj,
			desc: fmt.Sprintf("%s captured %s", prefix, objName(ai.obj))})
	case rootParam:
		// Re-binding the parameter variable itself is a local write; only a
		// write through it (field, element, deref) mutates the argument.
		if _, plain := ast.Unparen(lhs).(*ast.Ident); !plain && ai.paramIdx >= 0 && ai.paramIdx < 64 {
			n.mutLocal |= 1 << uint(ai.paramIdx)
		}
	}
}

func objName(o types.Object) string {
	if o == nil {
		return "state"
	}
	if o.Pkg() != nil {
		return o.Pkg().Name() + "." + o.Name()
	}
	return o.Name()
}

// rootOf resolves the base of an expression: what storage a write (or a
// mutating method call) through this expression would ultimately touch,
// from node n's point of view.
func (g *graph) rootOf(n *fnode, e ast.Expr) argInfo {
	pos := e.Pos()
	for {
		e = ast.Unparen(e)
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return argInfo{pos: pos, kind: rootLocal, paramIdx: -1}
			}
			e = x.X // &v: a write through the pointer lands on v
		case *ast.SelectorExpr:
			// pkg.Var: the selector resolves to a package-level object.
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				if _, isPkg := n.pkg.Info.Uses[id].(*types.PkgName); isPkg {
					if v, ok := n.pkg.Info.Uses[x.Sel].(*types.Var); ok {
						return argInfo{pos: pos, kind: rootGlobal, paramIdx: -1, obj: v}
					}
					return argInfo{pos: pos, kind: rootLocal, paramIdx: -1}
				}
			}
			e = x.X
		case *ast.IndexExpr:
			// A subscript computed from this function's own variables marks
			// task-indexed state (out[i], sims[worker]): treated as private,
			// the central exception the par contract is built on.
			if g.usesOwnVar(n, x.Index) {
				return argInfo{pos: pos, kind: rootLocal, paramIdx: -1}
			}
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.Ident:
			obj := n.pkg.Info.ObjectOf(x)
			if _, ok := obj.(*types.Var); !ok {
				return argInfo{pos: pos, kind: rootLocal, paramIdx: -1}
			}
			return argInfo{pos: pos, kind: g.classifyRoot(n, obj), paramIdx: g.paramIndex(n, obj), obj: obj}
		default:
			// Call results, literals, conversions: fresh values.
			return argInfo{pos: pos, kind: rootLocal, paramIdx: -1}
		}
	}
}

// usesOwnVar reports whether the expression mentions a variable declared
// inside n (parameters included) — the task-indexed-subscript test.
func (g *graph) usesOwnVar(n *fnode, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(nd ast.Node) bool {
		if found {
			return false
		}
		id, ok := nd.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := n.pkg.Info.ObjectOf(id).(*types.Var); ok {
			if g.paramIndex(n, v) >= 0 || (!v.IsField() && !isPkgLevel(v) && v.Pos() >= n.pos && v.Pos() <= n.end) {
				found = true
			}
		}
		return !found
	})
	return found
}

func (g *graph) paramIndex(n *fnode, v types.Object) int {
	for i, p := range n.params {
		if p == v {
			return i
		}
	}
	return -1
}

func isPkgLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

func (g *graph) classifyRoot(n *fnode, obj types.Object) rootKind {
	v, ok := obj.(*types.Var)
	if !ok {
		return rootLocal
	}
	if g.paramIndex(n, v) >= 0 {
		return rootParam
	}
	if v.IsField() {
		return rootLocal // bare field ident: only reachable in method bodies via receiver
	}
	if isPkgLevel(v) {
		return rootGlobal
	}
	if v.Pos() >= n.pos && v.Pos() <= n.end {
		return rootLocal
	}
	if n.lit != nil {
		return rootCaptured
	}
	// Free variables of a declared function can only be package-level; a
	// position outside the declaration means another file's package var.
	return rootGlobal
}

// isClockSource reports whether fn is a wall-clock or global-RNG read — the
// wallclock rule's source set.
func isClockSource(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "time":
		return wallclockTime[fn.Name()]
	case "math/rand", "math/rand/v2":
		return wallclockRand[fn.Name()]
	}
	return false
}

// classifyCallSites fills the sanitized/boundary bits once resolution is
// complete.
func (g *graph) classifyCallSites() {
	mod := g.l.ModPath
	parPath := mod + "/internal/par"
	for _, n := range g.nodes {
		for _, c := range n.calls {
			callee := c.ext
			if callee == nil && len(c.callees) == 1 && c.callees[0].obj != nil {
				callee = c.callees[0].obj
			}
			if callee == nil || callee.Pkg() == nil {
				continue
			}
			path := callee.Pkg().Path()
			if rel, ok := strings.CutPrefix(path, mod+"/"); ok && !strings.Contains(rel, "testdata/") {
				// Fixture packages live under internal/lint/testdata but model
				// pipeline code; only the real analyzer/observability packages
				// sanitize edges.
				for _, p := range nondeterministicPkgs {
					if rel == strings.TrimSuffix(p, "/") || strings.HasPrefix(rel, p) {
						c.sanitized = true
						break
					}
				}
			}
			// par fan-out primitives: seam boundaries. Each closure handed
			// to them is independently verified as an entry point, so
			// reachability does not tunnel through the pool machinery
			// (whose own discipline the sharedmut rule and the -race tests
			// cover).
			if path == parPath {
				switch callee.Name() {
				case "Run", "MapErr", "Workers", "SeedFor", "SetClock":
					c.boundary = true
				}
			}
		}
	}
}
