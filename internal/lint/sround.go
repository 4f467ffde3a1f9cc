package lint

import (
	"go/ast"
	"go/types"
)

// chargedCtxMethods are the core.Ctx operations that charge virtual
// time or move data through a substrate — the work the paper's round
// structure is supposed to contain.
var chargedCtxMethods = map[string]bool{
	"FpOps": true, "IntOps": true, "LocalOps": true,
	"HoldCost": true, "ChargeCost": true,
	"SendTo": true, "Recv": true, "RecvN": true, "BroadcastAll": true,
	"Atomically": true, "AtomicallyWait": true, "AtomicallyOrElse": true,
}

// substratePkgs are the packages whose methods taking a Ctx constitute
// charged substrate accesses (memory.Region.Read(ctx, ...), etc.).
var substratePkgs = map[string]bool{
	"repro/internal/memory":  true,
	"repro/internal/msgpass": true,
	"repro/internal/stm":     true,
}

// SRound enforces the model's structural grammar on group bodies:
// S-units and S-rounds may not nest (the runtime panics; the analyzer
// says so before you run), and a group body that performs charged
// substrate work without ever opening an S-round produces cost totals
// the per-round analysis cannot see — wrap the work or annotate why
// free-floating charges are intended.
func SRound() *Analyzer {
	return &Analyzer{
		Name: "sround",
		Doc:  "flag nested S-units/S-rounds and group bodies with charged ops but no rounds",
		Run: func(p *Pkg) []Finding {
			if p.Path == "repro/internal/core" {
				return nil // the implementation itself
			}
			var out []Finding
			for _, f := range p.Files {
				out = append(out, nestingFindings(p, f)...)
				out = append(out, roundlessBodies(p, f)...)
			}
			return out
		},
	}
}

// ctxMethod returns the method name when call is ctx.<Name>(...) on a
// *core.Ctx receiver, else "".
func ctxMethod(p *Pkg, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "repro/internal/core" {
		return ""
	}
	if fn.Signature().Recv() == nil {
		return ""
	}
	return fn.Name()
}

// structural reports whether call opens an S-unit or S-round, and
// returns its callback literal when passed inline.
func structural(p *Pkg, call *ast.CallExpr) (kind string, body *ast.FuncLit) {
	switch m := ctxMethod(p, call); m {
	case "SUnit", "SRound":
		if len(call.Args) == 1 {
			body, _ = call.Args[0].(*ast.FuncLit)
		}
		return m, body
	}
	return "", nil
}

// nestingFindings flags SUnit/SRound calls lexically inside another
// structural callback where the runtime would panic: a round in a
// round, a unit in a unit, a unit in a round.
func nestingFindings(p *Pkg, f *ast.File) []Finding {
	type span struct {
		kind       string
		start, end ast.Node
	}
	var spans []span
	var calls []*ast.CallExpr
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if kind, body := structural(p, call); kind != "" {
			calls = append(calls, call)
			if body != nil {
				spans = append(spans, span{kind, body, body})
			}
		}
		return true
	})
	var out []Finding
	for _, call := range calls {
		kind, _ := structural(p, call)
		for _, s := range spans {
			if call.Pos() <= s.start.Pos() || call.End() > s.end.End() {
				continue // not strictly inside this callback
			}
			var msg string
			switch {
			case kind == "SRound" && s.kind == "SRound":
				msg = "S-round opened inside an S-round; rounds may not nest (the runtime panics)"
			case kind == "SUnit" && s.kind == "SUnit":
				msg = "S-unit opened inside an S-unit; units may not nest (the runtime panics)"
			case kind == "SUnit" && s.kind == "SRound":
				msg = "S-unit opened inside an S-round; a round belongs to a unit, not the reverse"
			default:
				continue // SRound inside SUnit is the intended shape
			}
			out = append(out, Finding{Pos: p.Fset.Position(call.Pos()), Check: "sround", Message: msg})
			break
		}
	}
	return out
}

// roundlessBodies flags group bodies that perform charged substrate
// work but never open an S-round or S-unit anywhere. Body resolution
// (inline literal, ident-bound literal, named function) is the shared
// spawn-site layer in bodies.go.
func roundlessBodies(p *Pkg, f *ast.File) []Finding {
	seen := map[ast.Node]bool{}
	var out []Finding
	for _, b := range groupBodiesIn(p, f) {
		body := b.bodyNode()
		if seen[body] {
			continue
		}
		seen[body] = true
		if fnd, flagged := checkBody(p, body); flagged {
			out = append(out, fnd)
		}
	}
	return out
}

// isCtxPtr reports whether t is *core.Ctx, seeing through aliases
// (the public stamp package re-exports Ctx as a type alias).
func isCtxPtr(t types.Type) bool {
	ptr, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := types.Unalias(ptr.Elem()).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "repro/internal/core" && named.Obj().Name() == "Ctx"
}

// checkBody scans one group body: charged work with no structural
// call anywhere inside it is a finding.
func checkBody(p *Pkg, body ast.Node) (Finding, bool) {
	hasStructure := false
	var firstCharge *ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch m := ctxMethod(p, call); {
		case m == "SUnit" || m == "SRound":
			hasStructure = true
		case chargedCtxMethods[m]:
			if firstCharge == nil {
				firstCharge = call
			}
		case m == "" && isSubstrateAccess(p, call):
			if firstCharge == nil {
				firstCharge = call
			}
		}
		return true
	})
	if hasStructure || firstCharge == nil {
		return Finding{}, false
	}
	return Finding{
		Pos:     p.Fset.Position(firstCharge.Pos()),
		Check:   "sround",
		Message: "group body performs charged substrate ops but never opens an S-round; wrap the work in ctx.SRound (or annotate why free-floating charges are intended)",
	}, true
}

// isSubstrateAccess reports whether call is a memory/msgpass/stm
// method invocation handed a *core.Ctx (a charged substrate access).
func isSubstrateAccess(p *Pkg, call *ast.CallExpr) bool {
	var fn *types.Func
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		fn, _ = p.Info.Uses[fun.Sel].(*types.Func)
	case *ast.Ident:
		fn, _ = p.Info.Uses[fun].(*types.Func) // e.g. memory.FetchAdd via dot-import (none today)
	case *ast.IndexExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			fn, _ = p.Info.Uses[id].(*types.Func)
		}
	}
	if fn == nil || fn.Pkg() == nil || !substratePkgs[fn.Pkg().Path()] {
		return false
	}
	for _, arg := range call.Args {
		if t := p.Info.TypeOf(arg); t != nil && isCtxPtr(t) {
			return true
		}
	}
	return false
}
