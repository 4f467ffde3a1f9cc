package lint

import (
	"flag"
	"fmt"
	"io"
)

// Exit codes of the stamplint driver. Distinct codes let CI and
// scripts tell "clean" from "findings" from "could not even load".
const (
	ExitClean    = 0 // loaded, analyzed, no findings
	ExitFindings = 1 // loaded, analyzed, at least one finding
	ExitError    = 2 // load/usage failure; nothing was analyzed
)

// CLI is the stamplint driver: it parses args (flags plus optional
// positional package patterns, defaulting to ./...), loads the
// program rooted at dir, runs the full suite, renders the findings in
// the requested format, and returns the process exit code.
func CLI(dir string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stamplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	verbose := fs.Bool("v", false, "list the checks and every analyzed package")
	format := fs.String("format", "text", "output format: text or sarif")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: stamplint [flags] [package patterns]\n\n")
		fmt.Fprintf(stderr, "Analyzes the module rooted in the working directory (patterns default to ./...).\n")
		fmt.Fprintf(stderr, "Exit codes: %d clean, %d findings, %d load error.\n\nFlags:\n", ExitClean, ExitFindings, ExitError)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return ExitError
	}
	if *format != "text" && *format != "sarif" {
		fmt.Fprintf(stderr, "stamplint: unknown -format %q (want text or sarif)\n", *format)
		return ExitError
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	analyzers := Analyzers()
	if *verbose {
		fmt.Fprintf(stderr, "stamplint: checks:\n")
		for _, a := range analyzers {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}

	prog, err := LoadProgram(dir, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "stamplint: %v\n", err)
		return ExitError
	}
	if *verbose {
		for _, p := range prog.Pkgs {
			state := "deps-only"
			if p.Target {
				state = "analyzed"
			}
			fmt.Fprintf(stderr, "stamplint: %s: %s\n", p.Path, state)
		}
	}

	findings := prog.Analyze(analyzers).Findings
	if *format == "sarif" {
		err = WriteSARIF(stdout, dir, analyzers, findings)
	} else {
		err = WriteText(stdout, dir, findings)
	}
	if err != nil {
		fmt.Fprintf(stderr, "stamplint: writing output: %v\n", err)
		return ExitError
	}
	if len(findings) > 0 {
		return ExitFindings
	}
	return ExitClean
}
