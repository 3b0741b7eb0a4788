package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// ---------------------------------------------------------------------------
// wallclock: no wall-clock or global-RNG reads in deterministic packages.

// wallclockTime are the package-level time functions that read the clock.
// Methods on time.Time/time.Duration are pure and stay allowed.
var wallclockTime = map[string]bool{
	"Now": true, "Since": true, "Until": true,
}

// wallclockRand are the package-level math/rand and math/rand/v2 functions
// backed by the process-global source. Constructors (New, NewSource, NewPCG,
// NewChaCha8) and methods on an explicit *rand.Rand are allowed: those are
// exactly what par.SeedFor-derived generators use.
var wallclockRand = map[string]bool{
	"Int": true, "Intn": true, "IntN": true,
	"Int31": true, "Int31n": true, "Int32": true, "Int32N": true,
	"Int63": true, "Int63n": true, "Int64": true, "Int64N": true,
	"Uint": true, "UintN": true,
	"Uint32": true, "Uint32N": true, "Uint64": true, "Uint64N": true,
	"Float32": true, "Float64": true,
	"Perm": true, "Shuffle": true, "Seed": true,
	"NormFloat64": true, "ExpFloat64": true, "Read": true, "N": true,
}

func (r *runner) wallclock() {
	for id, obj := range r.p.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			continue // methods are fine; only package-level functions hit globals
		}
		switch fn.Pkg().Path() {
		case "time":
			if wallclockTime[fn.Name()] {
				r.report(id.Pos(), "wallclock",
					"time.%s in deterministic package %s: results must be a pure function of (inputs, options, seed)",
					fn.Name(), r.p.Name)
			}
		case "math/rand", "math/rand/v2":
			if wallclockRand[fn.Name()] {
				r.report(id.Pos(), "wallclock",
					"%s.%s uses the process-global RNG: construct a local generator from a par.SeedFor-derived seed instead",
					fn.Pkg().Path(), fn.Name())
			}
		}
	}
}

// ---------------------------------------------------------------------------
// maporder: map iteration must not feed ordered output or order-dependent
// state. Go randomizes map iteration order per run, so any such site makes
// results differ between runs — the exact failure class the
// parallel-equals-serial guarantee forbids.

func (r *runner) maporder() {
	for _, f := range r.p.Files {
		suppress := orderedComments(f, r.p.Fset)
		next := nextStmtMap(f)
		ast.Inspect(f, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok {
				r.checkRange(rs, next[rs], suppress)
			}
			return true
		})
	}
}

// orderedComments collects //lint:ordered suppressions, keyed by line.
func orderedComments(f *ast.File, fset *token.FileSet) map[int]string {
	m := map[int]string{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if rest, ok := strings.CutPrefix(text, "lint:ordered"); ok {
				m[fset.Position(c.Pos()).Line] = strings.TrimSpace(rest)
			}
		}
	}
	return m
}

// nextStmtMap maps each statement to its successor in the enclosing list, so
// the sorted-immediately-after exception can look one statement ahead.
func nextStmtMap(f *ast.File) map[ast.Stmt]ast.Stmt {
	next := map[ast.Stmt]ast.Stmt{}
	ast.Inspect(f, func(n ast.Node) bool {
		var list []ast.Stmt
		switch s := n.(type) {
		case *ast.BlockStmt:
			list = s.List
		case *ast.CaseClause:
			list = s.Body
		case *ast.CommClause:
			list = s.Body
		}
		for i := 0; i+1 < len(list); i++ {
			next[list[i]] = list[i+1]
		}
		return true
	})
	return next
}

func (r *runner) checkRange(rs *ast.RangeStmt, after ast.Stmt, suppress map[int]string) {
	tv, ok := r.p.Info.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if isBlankOrNil(rs.Key) && isBlankOrNil(rs.Value) {
		return // body cannot observe which element it is on
	}
	line := r.p.Fset.Position(rs.Pos()).Line
	if just, ok := suppress[line]; ok {
		r.requireJustification(rs.Pos(), just)
		return
	}
	if just, ok := suppress[line-1]; ok {
		r.requireJustification(rs.Pos(), just)
		return
	}

	mapObj := identObject(r.p.Info, rs.X)

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok != token.ASSIGN {
				return true // := defines locals; +=, |=, ... are commutative
			}
			for i, lhs := range s.Lhs {
				var rhs ast.Expr
				if len(s.Rhs) == len(s.Lhs) {
					rhs = s.Rhs[i]
				}
				r.checkOrderedAssign(rs, lhs, rhs, after, mapObj)
			}
		case *ast.CallExpr:
			r.checkOrderedCall(rs, s)
		}
		return true
	})
}

func (r *runner) requireJustification(pos token.Pos, just string) {
	if just == "" {
		r.report(pos, "maporder",
			"//lint:ordered needs a justification explaining why iteration order cannot affect results")
	}
}

func isBlankOrNil(e ast.Expr) bool {
	if e == nil {
		return true
	}
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// identObject resolves an expression to its object when it is a plain
// identifier; nil otherwise.
func identObject(info *types.Info, e ast.Expr) types.Object {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return info.ObjectOf(id)
	}
	return nil
}

// outer reports whether obj is declared outside the given range statement —
// writes to such variables leak iteration order out of the loop.
func outer(obj types.Object, rs *ast.RangeStmt) bool {
	if obj == nil {
		return false
	}
	return obj.Pos() < rs.Pos() || obj.Pos() > rs.End()
}

func (r *runner) checkOrderedAssign(rs *ast.RangeStmt, lhs, rhs ast.Expr, after ast.Stmt, mapObj types.Object) {
	// Writing into the ranged map itself: insertion during iteration is
	// unspecified (new entries may or may not be visited).
	if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
		if base := identObject(r.p.Info, idx.X); base != nil && mapObj != nil && base == mapObj {
			r.report(lhs.Pos(), "maporder",
				"writes into %s while ranging over it: whether new entries are visited is unspecified", base.Name())
		}
		return // index writes into other containers are keyed, hence order-free
	}

	// out = append(out, ...): accumulation in iteration order.
	if lhsObj := identObject(r.p.Info, lhs); lhsObj != nil && outer(lhsObj, rs) {
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isAppendTo(r.p.Info, call, lhsObj) {
			if !sortsIdent(r.p.Info, after, lhsObj) {
				r.report(lhs.Pos(), "maporder",
					"appends to %s in map-iteration order: sort keys first, sort %s immediately after the loop, or justify with //lint:ordered",
					lhsObj.Name(), lhsObj.Name())
			}
			return
		}
		if isConstExpr(r.p.Info, rhs) {
			return // setting a flag to a constant is idempotent across orders
		}
		r.report(lhs.Pos(), "maporder",
			"assigns %s inside map iteration: the surviving value depends on iteration order", lhsObj.Name())
		return
	}

	// field writes on an outer value: s.Best = cand and friends.
	if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
		if base := identObject(r.p.Info, sel.X); base != nil && outer(base, rs) && !isConstExpr(r.p.Info, rhs) {
			r.report(lhs.Pos(), "maporder",
				"assigns %s.%s inside map iteration: the surviving value depends on iteration order",
				base.Name(), sel.Sel.Name)
		}
	}
}

// checkOrderedCall flags output written during map iteration: fmt printing
// and Write/Print-family methods on values that outlive the loop.
func (r *runner) checkOrderedCall(rs *ast.RangeStmt, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, _ := r.p.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && (strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
		r.report(call.Pos(), "maporder",
			"fmt.%s inside map iteration emits output in unspecified order", fn.Name())
		return
	}
	switch fn.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Print", "Printf", "Println":
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() == nil {
			return
		}
		if base := identObject(r.p.Info, sel.X); base != nil && outer(base, rs) {
			r.report(call.Pos(), "maporder",
				"%s.%s inside map iteration emits output in unspecified order", base.Name(), fn.Name())
		}
	}
}

func isAppendTo(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); !isBuiltin {
		return false
	}
	return len(call.Args) > 0 && identObject(info, call.Args[0]) == obj
}

// sortsIdent reports whether stmt is a sort.*/slices.Sort* call mentioning
// obj — the "collected then sorted immediately" idiom, which is order-free.
func sortsIdent(info *types.Info, stmt ast.Stmt, obj types.Object) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() != "sort" && fn.Pkg().Path() != "slices" {
		return false
	}
	mentioned := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == obj {
				mentioned = true
			}
			return !mentioned
		})
	}
	return mentioned
}

// isConstExpr reports whether e is a compile-time constant (or nil), whose
// assignment is idempotent regardless of iteration order.
func isConstExpr(info *types.Info, e ast.Expr) bool {
	if e == nil {
		return false
	}
	tv, ok := info.Types[e]
	return ok && (tv.Value != nil || tv.IsNil())
}

// ---------------------------------------------------------------------------
// metricname: registry names must be literal package.snake_case, first
// segment equal to the registering package. Covers both registration paths
// into the shared registry: obs.C/G/H and the underlying metric.C/G/H
// (internal/metric exists so packages below obs, like circuit, can register
// without an import cycle). Replaces the regex walker that used to live in
// internal/obs/lint_test.go.

func (r *runner) metricname() {
	obsPath := r.l.ModPath + "/internal/obs"
	metricPath := r.l.ModPath + "/internal/metric"
	if r.p.Path == obsPath || r.p.Path == metricPath {
		// The registry implementation and obs's re-export shim forward the
		// name parameter; they register nothing themselves.
		return
	}
	for _, f := range r.p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := r.callee(call)
			if fn == nil || fn.Pkg() == nil ||
				(fn.Pkg().Path() != obsPath && fn.Pkg().Path() != metricPath) {
				return true
			}
			switch fn.Name() {
			case "C", "G", "H":
			default:
				return true
			}
			if len(call.Args) == 0 {
				return true
			}
			lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				r.report(call.Args[0].Pos(), "metricname",
					"obs.%s name must be a string literal so the registry is statically auditable", fn.Name())
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			if !metricNameRe.MatchString(name) {
				r.report(call.Args[0].Pos(), "metricname",
					"metric name %q does not match %s", name, metricNameRe.String())
				return true
			}
			if seg := name[:strings.IndexByte(name, '.')]; seg != r.p.Name {
				r.report(call.Args[0].Pos(), "metricname",
					"metric name %q: first segment %q must be the registering package name %q", name, seg, r.p.Name)
			}
			return true
		})
	}
}

func (r *runner) callee(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := r.p.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := r.p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// ---------------------------------------------------------------------------
// nodemut: circuit nodes are mutated only through the Circuit methods inside
// internal/circuit, which stamp every edit. A direct field write from
// outside skips the edit recorder, so incremental resynthesis and Freeze's
// level patch would silently miss the node.

func (r *runner) nodemut() {
	for _, f := range r.p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if s.Tok == token.DEFINE {
					return true
				}
				for _, lhs := range s.Lhs {
					r.checkNodeWrite(lhs)
				}
			case *ast.IncDecStmt:
				r.checkNodeWrite(s.X)
			}
			return true
		})
	}
}

func (r *runner) checkNodeWrite(e ast.Expr) {
	e = ast.Unparen(e)
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = ast.Unparen(x.X)
		case *ast.StarExpr:
			e = ast.Unparen(x.X)
		default:
			goto unwrapped
		}
	}
unwrapped:
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return
	}
	tv, ok := r.p.Info.Types[sel.X]
	if !ok || tv.Type == nil {
		return
	}
	named := namedOf(tv.Type)
	if named == nil {
		return
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != r.l.ModPath+"/internal/circuit" {
		return
	}
	switch obj.Name() {
	case "Node":
		r.report(sel.Pos(), "nodemut",
			"direct write to circuit.Node.%s outside internal/circuit skips the edit recorder: use the Circuit mutators (SetFanin, ReplaceUses, Kill, ...)",
			sel.Sel.Name)
	case "Circuit":
		switch sel.Sel.Name {
		case "Nodes", "Inputs", "Outputs":
			r.report(sel.Pos(), "nodemut",
				"direct write to circuit.Circuit.%s outside internal/circuit skips the edit recorder and cache invalidation: use the Circuit mutators",
				sel.Sel.Name)
		}
	}
}

func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		case *types.Alias:
			t = types.Unalias(u)
		default:
			return nil
		}
	}
}
