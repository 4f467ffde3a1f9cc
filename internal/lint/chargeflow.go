package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Chargeflow finds unaccounted compute inside charged contexts. The
// model's T/E/P totals — and the §3.1 predicted-vs-measured drift
// gauges — are only meaningful if every piece of work a simulated
// process performs is charged through the model (FpOps/IntOps/
// ChargeCost, or a charged substrate access that charges internally).
// A charged context that loops over data on the host with no charge
// anywhere in the segment does real work the model never sees.
//
// A charged context is a function that runs inside virtual time: a
// group-body literal or any function taking a *core.Ctx. The check
// walks each such segment: if it contains a loop performing data work
// (arithmetic, indexed access, or a call into a region-touching module
// function) and the segment issues no charge on any path — no charged
// Ctx op, no charged substrate access, and no call to a module
// function whose summary says it charges — the outermost working loop
// is flagged.
// A charge issued after the loop in the same segment accounts for it
// (the common "loop, then FpOps(n)" idiom), so the segment, not the
// loop, is the unit of account.
//
// The same accounting breaks when a *core.Ctx is stored in
// package-level state: the Ctx outlives the body it was handed to, and
// anything reading it later (another member, a host goroutine,
// post-run code) charges outside the owning process's virtual time.
func Chargeflow() *Analyzer {
	return &Analyzer{
		Name: "chargeflow",
		Doc:  "flag uncharged data loops in charged contexts (group bodies, Ctx helpers) and *core.Ctx retained in package state",
		Run: func(p *Pkg) []Finding {
			// The mechanism is outside the cost model by definition; the
			// observer packages watch a run without charging it by design.
			if mechanismPkgs[p.Path] || observerPkgs[p.Path] {
				return nil
			}
			var out []Finding
			for _, f := range p.Files {
				out = append(out, ctxRetention(p, f)...)
				bodies := map[ast.Node]bool{}
				for _, b := range groupBodiesIn(p, f) {
					bodies[b.bodyNode()] = true
				}
				// Named declarations: charged when Ctx-taking, or when
				// they are a spawn body.
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					fn, _ := p.Info.Defs[fd.Name].(*types.Func)
					if fn == nil {
						continue
					}
					if bodies[fd.Body] || isChargedContext(fn.Signature()) {
						out = append(out, unchargedLoops(p, fd.Body)...)
					}
				}
				// Literals: group bodies and Ctx-taking closures.
				ast.Inspect(f, func(n ast.Node) bool {
					lit, ok := n.(*ast.FuncLit)
					if !ok {
						return true
					}
					sig, _ := p.Info.TypeOf(lit).(*types.Signature)
					if bodies[lit] || (sig != nil && isChargedContext(sig)) {
						out = append(out, unchargedLoops(p, lit.Body)...)
						return false // a charged literal is one segment; nested charged lits re-enter here
					}
					return true
				})
			}
			return out
		},
	}
}

// isChargedContext reports whether sig marks a function as running
// inside virtual time: it takes a *core.Ctx.
func isChargedContext(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isCtxPtr(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// ctxRetention flags a *core.Ctx value assigned to a package-level
// variable, or stored through one (global map/slice element, field of
// a global).
func ctxRetention(p *Pkg, f *ast.File) []Finding {
	var out []Finding
	ast.Inspect(f, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if t := p.Info.TypeOf(rhs); t == nil || !isCtxPtr(t) {
				continue
			}
			id := baseIdent(as.Lhs[i])
			if id == nil {
				continue
			}
			v, ok := p.Info.Uses[id].(*types.Var)
			if !ok || v.IsField() || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
				continue
			}
			out = append(out, Finding{
				Pos:   p.Fset.Position(rhs.Pos()),
				Check: "chargeflow",
				Message: fmt.Sprintf("*core.Ctx stored in package-level %q outlives its process body; code reading it later charges outside the owning process's virtual time — keep the Ctx local to the body it was handed to",
					v.Name()),
			})
		}
		return true
	})
	return out
}

// unchargedLoops walks one segment body. If no charge is issued
// anywhere in the segment, every outermost working loop is flagged.
func unchargedLoops(p *Pkg, body *ast.BlockStmt) []Finding {
	if segmentCharges(p, body) {
		return nil
	}
	var out []Finding
	var walk func(n ast.Node, inFlagged bool)
	walk = func(n ast.Node, inFlagged bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == n {
				return true
			}
			switch l := m.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				var lbody *ast.BlockStmt
				if fs, ok := l.(*ast.ForStmt); ok {
					lbody = fs.Body
				} else {
					lbody = l.(*ast.RangeStmt).Body
				}
				if !inFlagged && loopDoesWork(p, lbody) {
					out = append(out, Finding{
						Pos:     p.Fset.Position(l.Pos()),
						Check:   "chargeflow",
						Message: "loop does data work in a charged context but no path through this segment issues a charge; the model never sees this compute — charge it (IntOps/FpOps/ChargeCost) or annotate why it is free",
					})
					walk(lbody, true)
				} else {
					walk(lbody, inFlagged)
				}
				return false
			case *ast.FuncLit:
				// Nested closures are their own segments (handled by
				// the top-level literal walk when Ctx-taking; plain
				// closures inherit this segment's census).
				return false
			}
			return true
		})
	}
	walk(body, false)
	return out
}

// segmentCharges reports whether any statement in body issues a charge:
// a charged Ctx method, a charged substrate access, or a call to a
// module function whose summary issues charges.
func segmentCharges(p *Pkg, body *ast.BlockStmt) bool {
	charged := false
	ast.Inspect(body, func(n ast.Node) bool {
		if charged {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok {
			// A nested Ctx-taking literal is its own segment; its
			// charges do not account for this one's loops. Plain
			// closures (e.g. an SRound callback) do count.
			if sig, _ := p.Info.TypeOf(lit).(*types.Signature); sig != nil && isChargedContext(sig) {
				return false
			}
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if m := ctxMethod(p, call); chargedCtxMethods[m] {
			charged = true
			return false
		}
		if isSubstrateAccess(p, call) {
			charged = true
			return false
		}
		// Passing the Ctx onward delegates the accounting: the callee
		// is itself a charged context — its loops are its own segment's
		// responsibility (module functions via their facts below, local
		// closures via their own unchargedLoops walk).
		for _, arg := range call.Args {
			if t := p.Info.TypeOf(arg); t != nil && isCtxPtr(t) {
				charged = true
				return false
			}
		}
		fn := calleeOf(p, call)
		if fn == nil {
			return true
		}
		if ff := p.Prog.FactsOf(fn); ff != nil && ff.Facts&FactIssuesCharge != 0 {
			charged = true
			return false
		}
		if seedFacts(pkgPathOf(fn), fn)&FactIssuesCharge != 0 {
			charged = true
			return false
		}
		return true
	})
	return charged
}

func pkgPathOf(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// loopDoesWork reports whether the loop body performs per-element data
// work the model should account for: arithmetic on non-constant
// operands, compound arithmetic assignment, indexed access, or a call
// into a region-touching module function. Pure control flow (counters,
// comparisons, appends of references) does not count.
func loopDoesWork(p *Pkg, body *ast.BlockStmt) bool {
	work := false
	ast.Inspect(body, func(n ast.Node) bool {
		if work {
			return false
		}
		switch x := n.(type) {
		case *ast.BinaryExpr:
			switch x.Op {
			case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
				token.SHL, token.SHR, token.AND, token.OR, token.XOR, token.AND_NOT:
				if !isConstExpr(p, x) && isNumeric(p, x.X) {
					work = true
				}
			}
		case *ast.AssignStmt:
			switch x.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN, token.REM_ASSIGN,
				token.SHL_ASSIGN, token.SHR_ASSIGN, token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN, token.AND_NOT_ASSIGN:
				work = true
			}
		case *ast.IndexExpr:
			// Indexing into a slice/array/map is a data access; generic
			// instantiation is not.
			if t := p.Info.TypeOf(x.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Array, *types.Map, *types.Pointer:
					work = true
				}
			}
		case *ast.CallExpr:
			if fn := calleeOf(p, x); fn != nil {
				if ff := p.Prog.FactsOf(fn); ff != nil && ff.Facts&FactTouchesRegion != 0 {
					work = true
				}
			}
		case *ast.FuncLit:
			return false // nested closure: its own segment
		}
		return true
	})
	return work
}

func isConstExpr(p *Pkg, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.Value != nil
}

func isNumeric(p *Pkg, e ast.Expr) bool {
	t := p.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsNumeric) != 0
}
