package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// groupCtors are the core.System spawn entry points whose body argument
// (index 3) becomes simulated process code.
var groupCtors = map[string]bool{"NewGroup": true, "NewGroupOpts": true}

// groupBody is one group-body callback found at a spawn call site.
type groupBody struct {
	call    *ast.CallExpr
	lit     *ast.FuncLit // inline or ident-bound literal; nil when the body is a named function
	decl    *ast.FuncDecl
	sharded bool // spawn call passes core.ShardByPlacement()
}

func (b groupBody) bodyNode() ast.Node {
	if b.lit != nil {
		return b.lit
	}
	if b.decl != nil {
		return b.decl.Body
	}
	return nil
}

// coreFunc resolves call to a function defined in repro/internal/core,
// or nil.
func coreFunc(p *Pkg, call *ast.CallExpr) *types.Func {
	fn := calleeOf(p, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "repro/internal/core" {
		return nil
	}
	return fn
}

// boundLits maps local objects to the function literals assigned to
// them (x := func(...){}, var x = func(...){}), so bodies passed to a
// spawn by name are found too.
func boundLits(p *Pkg, f *ast.File) map[types.Object]*ast.FuncLit {
	bound := map[types.Object]*ast.FuncLit{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				lit, ok := s.Rhs[i].(*ast.FuncLit)
				if !ok {
					continue
				}
				if obj := p.Info.Defs[id]; obj != nil {
					bound[obj] = lit
				} else if obj := p.Info.Uses[id]; obj != nil {
					bound[obj] = lit
				}
			}
		case *ast.ValueSpec:
			for i, id := range s.Names {
				if i >= len(s.Values) {
					break
				}
				if lit, ok := s.Values[i].(*ast.FuncLit); ok {
					if obj := p.Info.Defs[id]; obj != nil {
						bound[obj] = lit
					}
				}
			}
		}
		return true
	})
	return bound
}

// groupBodiesIn finds every group-body callback spawned in f: inline
// literals, ident-bound literals, and named package functions.
func groupBodiesIn(p *Pkg, f *ast.File) []groupBody {
	bound := boundLits(p, f)
	decls := map[types.Object]*ast.FuncDecl{}
	ast.Inspect(f, func(n ast.Node) bool {
		if fd, ok := n.(*ast.FuncDecl); ok && fd.Recv == nil {
			if obj := p.Info.Defs[fd.Name]; obj != nil {
				decls[obj] = fd
			}
		}
		return true
	})

	var out []groupBody
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := coreFunc(p, call)
		if fn == nil || !groupCtors[fn.Name()] || fn.Signature().Recv() == nil || len(call.Args) < 4 {
			return true
		}
		b := groupBody{call: call}
		switch arg := ast.Unparen(call.Args[3]).(type) {
		case *ast.FuncLit:
			b.lit = arg
		case *ast.Ident:
			if obj := p.Info.Uses[arg]; obj != nil {
				b.lit = bound[obj]
				if b.lit == nil {
					b.decl = decls[obj]
				}
			}
		}
		for _, arg := range call.Args[4:] {
			if oc, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
				if ofn := coreFunc(p, oc); ofn != nil && ofn.Name() == "ShardByPlacement" {
					b.sharded = true
				}
			}
		}
		if b.bodyNode() != nil {
			out = append(out, b)
		}
		return true
	})
	return out
}

// writtenObjs returns every variable the package mutates after its
// declaration: assigned, incremented, stored through (x[i] = v,
// x.f = v, *x = v) or address-taken. := definitions do not count —
// initialization is not mutation.
func writtenObjs(p *Pkg) map[types.Object]bool {
	written := map[types.Object]bool{}
	mark := func(e ast.Expr) {
		if id := baseIdent(e); id != nil {
			if obj := p.Info.Uses[id]; obj != nil {
				written[obj] = true
			}
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				// mark resolves through Info.Uses, so a := definition
				// (Defs) is not mutation while reassignment (Uses) is —
				// including the reused names of a mixed x, y := ....
				for _, lhs := range s.Lhs {
					mark(lhs)
				}
			case *ast.IncDecStmt:
				mark(s.X)
			case *ast.UnaryExpr:
				if s.Op == token.AND {
					mark(s.X)
				}
			case *ast.RangeStmt:
				if s.Tok == token.ASSIGN && s.Key != nil {
					mark(s.Key)
					if s.Value != nil {
						mark(s.Value)
					}
				}
			}
			return true
		})
	}
	return written
}

// baseIdent unwraps an lvalue to the identifier it mutates through:
// x, x[i], x.f, *x, x[i].f all resolve to x.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// freeVars returns the variables lit references that are declared
// outside it (its captures), with the position of the first use.
// The blank identifier and struct fields are excluded.
func freeVars(p *Pkg, lit *ast.FuncLit) map[*types.Var]token.Pos {
	out := map[*types.Var]token.Pos{}
	ast.Inspect(lit, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // declared inside the literal (params included)
		}
		if _, seen := out[v]; !seen {
			out[v] = id.Pos()
		}
		return true
	})
	return out
}

// loopsIn collects every for/range statement span in f.
type loopSpan struct{ start, end token.Pos }

func loopsIn(f *ast.File) []loopSpan {
	var out []loopSpan
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			out = append(out, loopSpan{n.Pos(), n.End()})
		}
		return true
	})
	return out
}

// enclosingLoops returns the loops whose span strictly contains pos,
// innermost last.
func enclosingLoops(loops []loopSpan, pos token.Pos) []loopSpan {
	var out []loopSpan
	for _, l := range loops {
		if l.start < pos && pos < l.end {
			out = append(out, l)
		}
	}
	return out
}
