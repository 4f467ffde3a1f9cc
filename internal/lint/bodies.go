package lint

import (
	"go/ast"
	"go/types"
)

// groupCtors are the core.System spawn entry points whose body argument
// (index 3) becomes simulated process code.
var groupCtors = map[string]bool{"NewGroup": true, "NewGroupOpts": true}

// groupBody is one group-body callback found at a spawn call site.
type groupBody struct {
	lit  *ast.FuncLit // inline or ident-bound literal; nil when the body is a named function
	decl *ast.FuncDecl
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
		var b groupBody
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
		if b.bodyNode() != nil {
			out = append(out, b)
		}
		return true
	})
	return out
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
