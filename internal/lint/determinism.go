package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// forbiddenTime are the package-level time functions that read or wait
// on the wall clock. (Formatting helpers like time.Duration.String are
// fine; constructing Durations is fine.)
var forbiddenTime = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTicker": true, "NewTimer": true,
}

// allowedRand are the math/rand package-level constructors that do NOT
// touch the global, nondeterministically-seeded source. Everything
// else at package level (Intn, Float64, Perm, Shuffle, ...) does.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

// Determinism keeps simulated code a pure function of its inputs, as
// the experiment goldens pin it bit-for-bit. It has two rules:
//
//  1. Wall clock and global randomness. The deterministic packages may
//     not read or wait on the wall clock, nor draw from the global,
//     nondeterministically-seeded math/rand source. Seeded generators
//     (rand.New(rand.NewSource(seed))) are fine.
//
//  2. Raw host concurrency. A `go` statement, channel operation or
//     sync lock in a deterministic package (or reachable from a group
//     body anywhere, via the function summaries) schedules work on the
//     host clock, invisible to virtual time. The kernel's own use of
//     these is the mechanism and is exempt; everything above it must
//     block and communicate through the model.
func Determinism() *Analyzer {
	return &Analyzer{
		Name: "determinism",
		Doc:  "forbid time.Now/Sleep and global math/rand in deterministic packages, and raw goroutines, channel ops or sync locks in simulated code",
		Run: func(p *Pkg) []Finding {
			var out []Finding
			if DeterministicPkgs[p.Path] {
				out = wallClockFindings(p)
			}
			if !mechanismPkgs[p.Path] {
				out = append(out, rawConcurrencyFindings(p)...)
			}
			return out
		},
	}
}

// wallClockFindings implements rule 1.
func wallClockFindings(p *Pkg) []Finding {
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if fn.Signature().Recv() != nil {
				return true // methods (e.g. on *rand.Rand) are fine
			}
			switch fn.Pkg().Path() {
			case "time":
				if forbiddenTime[fn.Name()] {
					out = append(out, Finding{
						Pos:     p.Fset.Position(sel.Pos()),
						Check:   "determinism",
						Message: fmt.Sprintf("time.%s reads the wall clock; deterministic packages run on virtual time only", fn.Name()),
					})
				}
			case "math/rand", "math/rand/v2":
				if !allowedRand[fn.Name()] {
					out = append(out, Finding{
						Pos:     p.Fset.Position(sel.Pos()),
						Check:   "determinism",
						Message: fmt.Sprintf("rand.%s uses the global, nondeterministically-seeded source; use rand.New(rand.NewSource(seed))", fn.Name()),
					})
				}
			}
			return true
		})
	}
	return out
}

// rawConcurrency names the host-concurrency facts rule 2 rejects.
const rawConcurrency = FactSpawnsGoroutine | FactUsesChannel | FactUsesSyncLock

// rawConcurrencyFindings implements rule 2: direct raw concurrency in
// deterministic packages, and (in any package) group bodies whose
// static callees reach raw concurrency per the summaries.
func rawConcurrencyFindings(p *Pkg) []Finding {
	var out []Finding
	report := func(pos token.Pos, what string) {
		out = append(out, Finding{
			Pos:   p.Fset.Position(pos),
			Check: "determinism",
			Message: what + " runs on the host clock, invisible to virtual time; simulated code must block and communicate through the kernel" +
				" (or annotate why this is outside the simulated run)",
		})
	}

	if DeterministicPkgs[p.Path] {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.GoStmt:
					report(x.Pos(), "raw go statement")
				case *ast.SendStmt:
					report(x.Pos(), "raw channel send")
				case *ast.SelectStmt:
					report(x.Pos(), "raw select")
				case *ast.UnaryExpr:
					if x.Op == token.ARROW {
						report(x.Pos(), "raw channel receive")
					}
				case *ast.CallExpr:
					if fn := calleeOf(p, x); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync" && syncLockNames[fn.Name()] {
						report(x.Pos(), "sync."+recvTypeName(fn)+fn.Name()+" locking")
					}
				}
				return true
			})
		}
	}

	// Group bodies anywhere: direct raw ops inside the body, and calls
	// to module functions whose summaries reach raw concurrency.
	for _, f := range p.Files {
		seen := map[ast.Node]bool{}
		for _, b := range groupBodiesIn(p, f) {
			body := b.bodyNode()
			if seen[body] {
				continue
			}
			seen[body] = true
			ast.Inspect(body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.GoStmt:
					if !DeterministicPkgs[p.Path] { // already reported above otherwise
						report(x.Pos(), "raw go statement in a group body")
					}
				case *ast.CallExpr:
					fn := calleeOf(p, x)
					if fn == nil || fn.Pkg() == nil {
						return true
					}
					ff := p.Prog.FactsOf(fn)
					if ff == nil || mechanismPkgs[fn.Pkg().Path()] || observerPkgs[fn.Pkg().Path()] {
						return true
					}
					if bad := ff.Facts & rawConcurrency; bad != 0 {
						via := ""
						for i := range factNames {
							if bad&bit(i) != 0 {
								if v := ff.Via[bit(i)]; v != "" {
									via = " via " + v
								}
								break
							}
						}
						report(x.Pos(), fmt.Sprintf("group body reaches %s (%s%s)", (bad).String(), shortName(funcID(fn)), via))
					}
				}
				return true
			})
		}
	}
	return out
}

// recvTypeName renders "Mutex." style prefixes for lock findings.
func recvTypeName(fn *types.Func) string {
	recv := fn.Signature().Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name() + "."
	}
	return ""
}
