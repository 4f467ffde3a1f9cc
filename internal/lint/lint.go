// Package lint implements stampvet, the repo's STAMP-aware analyzer
// engine (cmd/stamplint). It is stdlib-only — go/ast, go/parser and
// go/types over `go list -export` data, in the style of go vet — built
// around a whole-program layer: per-package function summaries
// (spawns-goroutine, uses-channel/sync-lock, touches-region,
// issues-charge) computed bottom-up in dependency order and consumed by
// the checks through a lightweight static call graph, with packages
// type-checked in parallel.
//
// The suite enforces the discipline the paper's cost formulas assume:
//
//   - determinism: no wall-clock time or global math/rand in the
//     deterministic packages (the simulator and everything above it
//     must be a pure function of its inputs), and no raw goroutines,
//     channel ops or sync locking in them or reachable from a group
//     body — host concurrency runs on the host clock, invisible to
//     virtual time;
//   - maprange: no map iteration in those packages unless the order
//     provably cannot reach an observable output (annotate why);
//   - backdoor: no uncharged memory/STM escapes (Peek, Poke, Fill,
//     Snapshot, SetValue) in non-test code — they bypass the d_r/d_w
//     accounting that T, E and P are built on;
//   - sround: no charged substrate work in a group body that never
//     opens an S-round, and no nested S-units/S-rounds (the model's
//     structural grammar);
//   - ckptsafe: no region element types the checkpoint layer cannot
//     serialize (raw pointers, funcs, channels, interfaces);
//   - chargeflow: no loops over data inside charged contexts (group
//     bodies, Ctx-taking helpers) whose work is never charged to the
//     model — unaccounted compute silently corrupts T, E, P and the
//     §3.1 drift gauges — and no *core.Ctx retained in package-level
//     state, where later readers charge outside the owning process.
//
// A finding is silenced, one site at a time, with an annotation on the
// same or the preceding line:
//
//	//stamplint:allow <check>: <reason>
//
// The reason is mandatory, and unused or malformed annotations are
// themselves findings, so suppressions cannot rot silently.
package lint

import (
	"fmt"
	"go/token"
	"runtime"
	"sort"
	"sync"
)

// Finding is one rule violation at one position.
type Finding struct {
	Pos     token.Position
	Check   string
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Check, f.Message)
}

// Analyzer is one check run over every loaded target package. Run sees
// the package after the whole program's function summaries are
// computed, so it may consult p.Prog for call-graph facts.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Pkg) []Finding
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Determinism(),
		MapRange(),
		Backdoor(),
		SRound(),
		Ckptsafe(),
		Chargeflow(),
	}
}

// DeterministicPkgs are the import paths whose behaviour must be a
// pure function of their inputs: the simulator kernel, the three
// substrates, the model layer, fault injection, and the experiment
// harness whose goldens pin every run bit-for-bit.
var DeterministicPkgs = map[string]bool{
	"repro/internal/sim":         true,
	"repro/internal/core":        true,
	"repro/internal/memory":      true,
	"repro/internal/msgpass":     true,
	"repro/internal/stm":         true,
	"repro/internal/fault":       true,
	"repro/internal/experiments": true,
}

// Result is the outcome of analyzing a program.
type Result struct {
	Findings    []Finding
	Annotations []Annotation
}

// Analyze runs every analyzer over every target package in prog (in
// parallel — packages are independent once facts exist), applies
// annotation suppression, reports unused/malformed annotations as
// findings, deduplicates identical findings, and returns everything
// sorted by position.
func (prog *Program) Analyze(analyzers []*Analyzer) Result {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}

	type pkgResult struct {
		findings []Finding
		anns     []Annotation
	}
	results := make([]pkgResult, len(prog.Pkgs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, p := range prog.Pkgs {
		if !p.Target {
			continue
		}
		wg.Add(1)
		go func(i int, p *Pkg) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			findings, anns := analyzePkg(p, analyzers, known)
			results[i] = pkgResult{findings, anns}
		}(i, p)
	}
	wg.Wait()

	var res Result
	seen := map[string]bool{}
	for _, r := range results {
		for _, f := range r.findings {
			// Two analyzers (or two rules of one) can land the same
			// diagnostic on the same position; report it once.
			key := f.Pos.String() + "\x00" + f.Check + "\x00" + f.Message
			if seen[key] {
				continue
			}
			seen[key] = true
			res.Findings = append(res.Findings, f)
		}
		res.Annotations = append(res.Annotations, r.anns...)
	}
	sort.Slice(res.Findings, func(i, j int) bool {
		a, b := res.Findings[i], res.Findings[j]
		if a.Pos != b.Pos {
			return posLess(a.Pos, b.Pos)
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	sort.Slice(res.Annotations, func(i, j int) bool { return posLess(res.Annotations[i].Pos, res.Annotations[j].Pos) })
	return res
}

// analyzePkg runs the suite over one parsed package: raw findings,
// in-package dedup, suppression, annotation findings.
func analyzePkg(p *Pkg, analyzers []*Analyzer, known map[string]bool) ([]Finding, []Annotation) {
	anns := collectAnnotations(p, known)
	var raw []Finding
	for _, a := range analyzers {
		raw = append(raw, a.Run(p)...)
	}
	var findings []Finding
	dup := map[string]bool{}
	for _, f := range raw {
		key := f.Pos.String() + "\x00" + f.Check + "\x00" + f.Message
		if dup[key] {
			continue
		}
		dup[key] = true
		if suppress(anns, f) {
			continue
		}
		findings = append(findings, f)
	}
	var out []Annotation
	for _, a := range anns {
		if a.Malformed != "" {
			findings = append(findings, Finding{
				Pos:     a.Pos,
				Check:   "annotation",
				Message: a.Malformed,
			})
		} else if !a.Used {
			findings = append(findings, Finding{
				Pos:     a.Pos,
				Check:   "annotation",
				Message: fmt.Sprintf("unused //stamplint:allow %s annotation (nothing to suppress here)", a.Check),
			})
		}
		out = append(out, *a)
	}
	return findings, out
}

func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

// suppress reports whether an annotation covers f (same file, same
// check, on the finding's line or the line directly above) and marks
// the matching annotation used.
func suppress(anns []*Annotation, f Finding) bool {
	ok := false
	for _, a := range anns {
		if a.Malformed != "" || a.Check != f.Check || a.Pos.Filename != f.Pos.Filename {
			continue
		}
		if a.Pos.Line == f.Pos.Line || a.Pos.Line == f.Pos.Line-1 {
			a.Used = true
			ok = true
		}
	}
	return ok
}
