package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
)

// Pkg is one loaded, type-checked module package.
type Pkg struct {
	Path   string
	Dir    string
	Target bool // named by the patterns (findings reported); deps carry facts only
	Fset   *token.FileSet
	Files  []*ast.File
	Types  *types.Package
	Info   *types.Info
	Prog   *Program

	goFiles []string  // absolute source paths, go list order
	imports []string  // module-internal imports
	facts   *PkgFacts // function summaries; set once, before the package's done channel closes
}

// Program is a whole-module analysis universe: every module package
// reachable from the requested patterns, in dependency order, each
// carrying the function summaries computed bottom-up over that order.
type Program struct {
	Dir    string
	Module string
	Fset   *token.FileSet
	Pkgs   []*Pkg // dependency order (deps before dependents)
	byPath map[string]*Pkg
}

// listEntry is the subset of `go list -json` output the loader needs.
type listEntry struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Imports    []string
	DepOnly    bool
	Standard   bool
	Module     *struct{ Path string }
}

// LoadProgram resolves patterns (e.g. "./...") in the module rooted at
// dir and builds the analysis program: every matched package plus its
// module-internal dependencies, parsed and type-checked in parallel
// against the toolchain's export data (shelling out to `go list -deps
// -export -json`, exactly like go vet's driver — no module machinery
// of our own, no non-stdlib imports).
func LoadProgram(dir string, patterns []string) (*Program, error) {
	args := append([]string{"list", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %v: %v\n%s", patterns, err, errb.String())
	}

	prog := &Program{
		Dir:    dir,
		Fset:   token.NewFileSet(),
		byPath: map[string]*Pkg{},
	}

	exports := map[string]string{} // import path -> export file
	dec := json.NewDecoder(&out)
	for dec.More() {
		var e listEntry
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
		if e.Standard || e.Module == nil || len(e.GoFiles) == 0 {
			continue
		}
		if prog.Module == "" && !e.DepOnly {
			prog.Module = e.Module.Path
		}
		p := &Pkg{
			Path:   e.ImportPath,
			Dir:    e.Dir,
			Target: !e.DepOnly,
			Fset:   prog.Fset,
			Prog:   prog,
		}
		for _, name := range e.GoFiles {
			p.goFiles = append(p.goFiles, filepath.Join(e.Dir, name))
		}
		p.imports = e.Imports
		prog.Pkgs = append(prog.Pkgs, p) // go list -deps emits deps first
		prog.byPath[p.Path] = p
	}
	if len(prog.Pkgs) == 0 {
		return nil, fmt.Errorf("lint: no packages matched %v", patterns)
	}

	// Restrict each package's import list to module-internal packages
	// we actually loaded — the facts scheduler's dependency edges.
	for _, p := range prog.Pkgs {
		var mod []string
		for _, imp := range p.imports {
			if _, ok := prog.byPath[imp]; ok {
				mod = append(mod, imp)
			}
		}
		p.imports = mod
	}

	if err := prog.parseAndCheck(exports); err != nil {
		return nil, err
	}
	prog.computeAllFacts()
	return prog, nil
}

// isModulePkg reports whether path is a module-internal package loaded
// into this program.
func (prog *Program) isModulePkg(path string) bool {
	_, ok := prog.byPath[path]
	return ok
}

// FuncFacts returns the summary of the named function in the named
// package, or nil when unknown (dynamic call, unparsed package).
//
// During the facts pass it is called only for packages the caller
// depends on, whose facts were stored before their done channel closed
// (see computeAllFacts), so the read needs no lock.
func (prog *Program) FuncFacts(pkgPath, id string) *FuncFacts {
	p := prog.byPath[pkgPath]
	if p == nil || p.facts == nil {
		return nil
	}
	return p.facts.Funcs[id]
}

// FactsOf resolves fn to its summary, nil when unknown.
func (prog *Program) FactsOf(fn *types.Func) *FuncFacts {
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	return prog.FuncFacts(fn.Pkg().Path(), funcID(fn))
}

// parseAndCheck parses and type-checks every package, in parallel.
// Each package checks against export data for its imports (never
// against our own in-progress type-checks), so package checks are
// mutually independent. Each check gets an importer of its own: go/types
// memoizes lazily into the objects an importer returns (alias targets,
// for one), so imported packages shared between concurrent checks
// would be written from several goroutines at once.
func (prog *Program) parseAndCheck(exports map[string]string) error {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(f)
	}

	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	for _, p := range prog.Pkgs {
		wg.Add(1)
		go func(p *Pkg) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var files []*ast.File
			for _, path := range p.goFiles {
				f, err := parser.ParseFile(prog.Fset, path, nil, parser.ParseComments)
				if err != nil {
					fail(fmt.Errorf("lint: parsing %s: %v", path, err))
					return
				}
				files = append(files, f)
			}
			info := &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Uses:       map[*ast.Ident]types.Object{},
				Defs:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
				Instances:  map[*ast.Ident]types.Instance{},
			}
			conf := types.Config{Importer: importer.ForCompiler(prog.Fset, "gc", lookup)}
			tpkg, err := conf.Check(p.Path, prog.Fset, files, info)
			if err != nil {
				fail(fmt.Errorf("lint: type-checking %s: %v", p.Path, err))
				return
			}
			p.Files = files
			p.Types = tpkg
			p.Info = info
		}(p)
	}
	wg.Wait()
	return firstErr
}

// computeAllFacts runs the bottom-up facts pass: packages analyze in
// parallel, each gated on its module-internal imports (the import DAG
// is the schedule). A package's facts are stored on its Pkg before its
// done channel closes, and dependents read them only after receiving
// from the done channels of their imports — transitively, every
// package they can call into — so the channel close orders every read
// after the write.
func (prog *Program) computeAllFacts() {
	done := map[string]chan struct{}{}
	for _, p := range prog.Pkgs {
		done[p.Path] = make(chan struct{})
	}
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for _, p := range prog.Pkgs {
		wg.Add(1)
		go func(p *Pkg) {
			defer wg.Done()
			for _, imp := range p.imports {
				<-done[imp]
			}
			sem <- struct{}{}
			p.facts = computeFacts(p)
			<-sem
			close(done[p.Path])
		}(p)
	}
	wg.Wait()
}
