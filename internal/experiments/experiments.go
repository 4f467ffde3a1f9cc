// Package experiments implements the reproduction harness: one
// generator per table, figure and analytical derivation in the paper's
// evaluation (see DESIGN.md's per-experiment index). Each experiment
// runs deterministic simulations and renders the same rows/series the
// paper reports, so `stampbench -experiment <id>` (or the root
// bench_test.go) regenerates every artifact.
package experiments

import (
	"bytes"
	"fmt"
	"sort"
	"text/tabwriter"
)

// Result is one experiment's rendered output plus machine-readable
// checks.
type Result struct {
	ID    string
	Title string
	Table string // the rendered rows/series
	// Checks are named pass/fail assertions about the paper's claims
	// (who wins, bounds hold, crossovers fall where argued).
	Checks []Check
}

// Check is one verifiable claim.
type Check struct {
	Name string
	Pass bool
	Note string
}

// Passed reports whether every check passed.
func (r Result) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// String renders the experiment block for harness output.
func (r Result) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "== %s — %s ==\n%s", r.ID, r.Title, r.Table)
	for _, c := range r.Checks {
		mark := "PASS"
		if !c.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "check %-40s %s", c.Name, mark)
		if c.Note != "" {
			fmt.Fprintf(&b, "  (%s)", c.Note)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Runner produces an experiment Result.
type Runner func() Result

var registry = map[string]Runner{}
var titles = map[string]string{}

func register(id, title string, r Runner) {
	registry[id] = r
	titles[id] = title
}

// IDs returns the registered experiment ids, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	//stamplint:allow maprange: the ids are sorted before being returned
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Title returns an experiment's title.
func Title(id string) string { return titles[id] }

// Run executes one experiment by id.
func Run(id string) (Result, error) {
	r, ok := registry[id]
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return r(), nil
}

// table is a tiny tabwriter helper.
type table struct {
	buf bytes.Buffer
	w   *tabwriter.Writer
}

func newTable() *table {
	t := &table{}
	t.w = tabwriter.NewWriter(&t.buf, 2, 4, 2, ' ', 0)
	return t
}

func (t *table) row(cells ...any) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.w, "\t")
		}
		fmt.Fprint(t.w, c)
	}
	fmt.Fprintln(t.w)
}

func (t *table) String() string {
	t.w.Flush()
	return t.buf.String()
}

// check builds a Check from a condition.
func check(name string, pass bool, noteFormat string, args ...any) Check {
	return Check{Name: name, Pass: pass, Note: fmt.Sprintf(noteFormat, args...)}
}
