// The hot-path allocation analyzer. TestSimHotLoopAllocationFree proves the
// steady state allocates nothing, but only for the code paths the paper
// suite happens to execute; hotalloc complements it by statically rejecting
// alloc-inducing constructs anywhere in a function tagged //lab:hotpath,
// including branches the suite never takes. The tags live on the
// simulator's per-cycle machinery and the trace cursor accessors.

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// coldPkgs are the formatting packages whose calls box arguments into
// interfaces; in a hot function they are only tolerated inside a return
// statement (a failure exit, by construction not the steady state).
var coldPkgs = map[string]bool{"fmt": true, "errors": true, "log": true}

// analyzeHotpath checks every //lab:hotpath-tagged function for constructs
// that allocate: map/slice literals, address-taken composite literals,
// make/new, variable-capturing closures, string concatenation and
// conversion, fmt-style boxing outside error returns, defer, and go.
func analyzeHotpath(pkgs []*Package, _ Policy) []Finding {
	var out []Finding
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !hasDirective(fd.Doc, "hotpath") {
					continue
				}
				checkHotFunc(p, fd, &out)
			}
		}
	}
	return out
}

func checkHotFunc(p *Package, fd *ast.FuncDecl, out *[]Finding) {
	name := fd.Name.Name
	parents := parentMap(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CompositeLit:
			if t := p.Info.TypeOf(x); t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					p.report(out, "hotalloc", x.Pos(), "map literal in hot path %s allocates", name)
				case *types.Slice:
					p.report(out, "hotalloc", x.Pos(), "slice literal in hot path %s allocates", name)
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					p.report(out, "hotalloc", x.Pos(), "&composite literal in hot path %s escapes to the heap", name)
				}
			}
		case *ast.FuncLit:
			if capturesOuter(p, fd, x) {
				p.report(out, "hotalloc", x.Pos(), "closure capturing variables in hot path %s allocates", name)
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringExpr(p, x) && !isConstExpr(p, x) {
				p.report(out, "hotalloc", x.Pos(), "string concatenation in hot path %s allocates", name)
			}
		case *ast.DeferStmt:
			p.report(out, "hotalloc", x.Pos(), "defer in hot path %s allocates per call", name)
		case *ast.GoStmt:
			p.report(out, "hotalloc", x.Pos(), "goroutine launch in hot path %s", name)
		case *ast.CallExpr:
			checkHotCall(p, fd, x, parents, out)
		}
		return true
	})
}

func checkHotCall(p *Package, fd *ast.FuncDecl, call *ast.CallExpr, parents map[ast.Node]ast.Node, out *[]Finding) {
	name := fd.Name.Name
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, ok := p.Info.Uses[fun].(*types.Builtin); ok {
			switch fun.Name {
			case "make":
				p.report(out, "hotalloc", call.Pos(), "make in hot path %s allocates", name)
			case "new":
				p.report(out, "hotalloc", call.Pos(), "new in hot path %s allocates", name)
			}
		}
		if stringConversion(p, fun, call) {
			p.report(out, "hotalloc", call.Pos(), "conversion to string in hot path %s allocates", name)
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := p.Info.Uses[id].(*types.PkgName); ok && coldPkgs[pn.Imported().Path()] {
				if !inReturn(call, parents) {
					p.report(out, "hotalloc", call.Pos(),
						"%s.%s boxes its arguments in hot path %s; only failure-exit returns may format",
						pn.Imported().Name(), fun.Sel.Name, name)
				}
			}
		}
	}
}

// parentMap records each node's parent within root.
func parentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// inReturn reports whether n's innermost enclosing statement is a return —
// a failure exit, cold by construction in a hot function.
func inReturn(n ast.Node, parents map[ast.Node]ast.Node) bool {
	for cur := parents[n]; cur != nil; cur = parents[cur] {
		if _, isStmt := cur.(ast.Stmt); !isStmt {
			continue
		}
		_, isRet := cur.(*ast.ReturnStmt)
		return isRet
	}
	return false
}

// capturesOuter reports whether lit references a variable declared in fd
// outside lit itself (a capture forces the closure onto the heap).
func capturesOuter(p *Package, fd *ast.FuncDecl, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		if v.Pos() >= fd.Pos() && v.Pos() < lit.Pos() {
			captured = true
		}
		return true
	})
	return captured
}

func isStringExpr(p *Package, e ast.Expr) bool {
	t := p.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isConstExpr(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.Value != nil
}

// stringConversion reports whether call converts a non-string operand to a
// string type (string([]byte), string(rune) — both allocate).
func stringConversion(p *Package, fun *ast.Ident, call *ast.CallExpr) bool {
	tn, ok := p.Info.Uses[fun].(*types.TypeName)
	if !ok || len(call.Args) != 1 {
		return false
	}
	b, ok := tn.Type().Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsString == 0 {
		return false
	}
	return !isStringExpr(p, call.Args[0]) && !isConstExpr(p, call.Args[0])
}
