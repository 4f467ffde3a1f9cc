package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Fact is one bit of a function summary. Summaries are computed
// bottom-up along the module's import DAG: a function's facts are its
// own syntax-level behaviour OR'd with the facts of every module
// function it (statically) calls, so a check can ask "does anything
// reachable from this body spawn a goroutine?" without walking other
// packages' ASTs.
type Fact uint8

const (
	// FactSpawnsGoroutine: a raw `go` statement — host concurrency
	// outside the kernel's virtual-time scheduler.
	FactSpawnsGoroutine Fact = 1 << iota
	// FactUsesChannel: a raw channel make/send/receive/close/select —
	// host synchronization invisible to virtual time.
	FactUsesChannel
	// FactUsesSyncLock: calls into package sync (Mutex, WaitGroup,
	// Once, ...) — host locking invisible to virtual time.
	FactUsesSyncLock
	// FactTouchesRegion: reads or writes memory.Region state.
	FactTouchesRegion
	// FactIssuesCharge: charges virtual time or energy through the
	// model (Ctx charge ops, or a charged substrate access).
	FactIssuesCharge
)

// factNames names each fact, indexed by bit position. Everything that
// walks a fact set walks it in this order, so messages are stable.
var factNames = [...]string{
	"spawns-goroutine",
	"uses-channel",
	"uses-sync-lock",
	"touches-region",
	"issues-charge",
}

// bit returns the fact at position i of factNames.
func bit(i int) Fact { return 1 << i }

func (f Fact) String() string {
	var parts []string
	for i, name := range factNames {
		if f&bit(i) != 0 {
			parts = append(parts, name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// FuncFacts is the summary of one named function or method.
type FuncFacts struct {
	Facts Fact
	// Via maps a propagated fact to the callee that carried it in —
	// one hop of the call-graph path, enough for an actionable
	// message. Empty string means the fact is the function's own
	// syntax.
	Via map[Fact]string

	// callees are the module-internal static call targets (by
	// canonical id), used during the intra-package fixed point and by
	// checks that walk one hop of the call graph.
	callees []string
}

// PkgFacts holds the summaries of every function declared in one
// package, keyed by canonical id (types.Func.FullName).
type PkgFacts struct {
	Funcs map[string]*FuncFacts
}

// mechanismPkgs are the packages that implement virtual time itself.
// Their internal goroutines, channels and locks ARE the mechanism, so
// those facts do not propagate out of them; what does propagate is the
// model-level behaviour they provide (region access, charging).
var mechanismPkgs = map[string]bool{
	"repro/internal/sim":     true,
	"repro/internal/core":    true,
	"repro/internal/msgpass": true,
	"repro/internal/stm":     true,
	"repro/internal/memory":  true,
}

// observerPkgs watch a run from the host side (streaming telemetry,
// tracing, race detection). Their channels and goroutines are the
// harness's delivery machinery, not simulated-code concurrency, so
// they get the same boundary mask as the mechanism packages.
var observerPkgs = map[string]bool{
	"repro/internal/obs":     true,
	"repro/internal/racedet": true,
}

// mechanismMask is the set of facts allowed to cross out of a
// mechanism or observer package.
const mechanismMask = FactTouchesRegion | FactIssuesCharge

// syncLockNames are the package sync methods that take or release host
// locks (or otherwise synchronize host goroutines).
var syncLockNames = map[string]bool{
	"Lock": true, "Unlock": true, "TryLock": true,
	"RLock": true, "RUnlock": true, "TryRLock": true,
	"Wait": true, "Done": true, "Add": true, "Do": true,
	"Broadcast": true, "Signal": true,
}

// funcID returns the canonical summary key for fn (its FullName, which
// is unique across the module: pkg-qualified, receiver included).
func funcID(fn *types.Func) string { return fn.FullName() }

// shortName compresses a canonical id for finding messages:
// "repro/internal/apps/jacobi.Run" -> "jacobi.Run",
// "(*repro/internal/core.Ctx).Recv" -> "core.Ctx.Recv".
func shortName(id string) string {
	s := strings.TrimPrefix(id, "(*")
	s = strings.ReplaceAll(s, ")", "")
	if i := strings.LastIndex(s, "/"); i >= 0 {
		s = s[i+1:]
	}
	return s
}

// calleeOf resolves the static call target of call, unwrapping
// parentheses and explicit generic instantiation. nil when the target
// is dynamic (a func value, an interface method, a field call).
func calleeOf(p *Pkg, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.IndexExpr:
		if id := instantiatedIdent(fun); id != nil {
			fn, _ := p.Info.Uses[id].(*types.Func)
			return fn
		}
	case *ast.IndexListExpr:
		if id := instantiatedIdent(fun); id != nil {
			fn, _ := p.Info.Uses[id].(*types.Func)
			return fn
		}
	}
	return nil
}

// seedFacts returns the definition-level facts of a mechanism-package
// function: the model behaviour its implementation provides, declared
// here rather than discovered by walking its (host-level) body.
func seedFacts(pkgPath string, fn *types.Func) Fact {
	var f Fact
	name := fn.Name()
	switch pkgPath {
	case "repro/internal/core":
		if fn.Signature().Recv() != nil && chargedCtxMethods[name] {
			f |= FactIssuesCharge
		}
	case "repro/internal/memory":
		f |= FactTouchesRegion
		if hasCtxParam(fn) {
			f |= FactIssuesCharge
		}
	case "repro/internal/msgpass":
		if strings.HasPrefix(name, "Send") || strings.HasPrefix(name, "Broadcast") ||
			strings.HasPrefix(name, "Recv") {
			f |= FactIssuesCharge
		}
	case "repro/internal/stm":
		if hasCtxParam(fn) || strings.HasPrefix(name, "Atomically") {
			f |= FactIssuesCharge
		}
	}
	return f
}

// hasCtxParam reports whether fn takes a *core.Ctx anywhere in its
// parameter list.
func hasCtxParam(fn *types.Func) bool {
	params := fn.Signature().Params()
	for i := 0; i < params.Len(); i++ {
		if isCtxPtr(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// computeFacts builds the package's function summaries: direct
// syntax-level facts plus propagation from callees — cross-package
// facts come from prog (already computed, import order), same-package
// recursion is closed by fixed-point iteration.
func computeFacts(p *Pkg) *PkgFacts {
	pf := &PkgFacts{Funcs: map[string]*FuncFacts{}}
	var decls []*FuncFacts // declaration order, so the fixed point's via choices are stable
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			ff := &FuncFacts{Via: map[Fact]string{}}
			ff.Facts |= seedFacts(p.Path, fn)
			collectDirectFacts(p, fd.Body, ff)
			pf.Funcs[funcID(fn)] = ff
			decls = append(decls, ff)
		}
	}

	// Same-package fixed point: propagate along local call edges until
	// stable (handles mutual recursion).
	for changed := true; changed; {
		changed = false
		for _, ff := range decls {
			for _, callee := range ff.callees {
				cf, ok := pf.Funcs[callee]
				if !ok {
					continue
				}
				if add := cf.Facts &^ ff.Facts; add != 0 {
					ff.addVia(add, callee)
					changed = true
				}
			}
		}
	}
	return pf
}

// addVia adds the facts in add, recording callee as the way each one
// came in.
func (ff *FuncFacts) addVia(add Fact, callee string) {
	for i := range factNames {
		if add&bit(i) != 0 {
			ff.Via[bit(i)] = shortName(callee)
		}
	}
	ff.Facts |= add
}

// collectDirectFacts walks one function body recording syntax-level
// facts, cross-package callee facts (masked at mechanism boundaries),
// and same-package call edges for the later fixed point.
func collectDirectFacts(p *Pkg, body ast.Node, ff *FuncFacts) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			ff.Facts |= FactSpawnsGoroutine
		case *ast.SendStmt:
			ff.Facts |= FactUsesChannel
		case *ast.SelectStmt:
			ff.Facts |= FactUsesChannel
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				ff.Facts |= FactUsesChannel
			}
		case *ast.RangeStmt:
			if t := p.Info.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					ff.Facts |= FactUsesChannel
				}
			}
		case *ast.CallExpr:
			collectCallFacts(p, x, ff)
		}
		return true
	})
}

func collectCallFacts(p *Pkg, call *ast.CallExpr, ff *FuncFacts) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "make":
				if t := p.Info.TypeOf(call); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						ff.Facts |= FactUsesChannel
					}
				}
			case "close":
				ff.Facts |= FactUsesChannel
			}
			return
		}
	}
	fn := calleeOf(p, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	switch {
	case path == "sync":
		if syncLockNames[fn.Name()] || fn.Signature().Recv() == nil {
			ff.Facts |= FactUsesSyncLock
		}
	case path == p.Path:
		ff.callees = append(ff.callees, funcID(fn))
	case p.Prog != nil && p.Prog.isModulePkg(path):
		cf := p.Prog.FuncFacts(path, funcID(fn))
		var add Fact
		if cf != nil {
			add = cf.Facts
		}
		// Seeds apply even when the callee package's own walk saw
		// nothing (mechanism bodies describe the host, not the model).
		add |= seedFacts(path, fn)
		if mechanismPkgs[path] || observerPkgs[path] {
			add &= mechanismMask
		}
		if add &^= ff.Facts; add != 0 {
			ff.addVia(add, funcID(fn))
		}
	}
}
