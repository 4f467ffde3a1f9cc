package lint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// cliFixture is a minimal pinned module for driver-level tests: one
// deterministic file with two stable findings and one clean package.
var cliFixture = map[string]string{
	"go.mod": "module repro\n\ngo 1.24\n",

	"internal/sim/sim.go": `package sim

import "time"

func Bad() int64 {
	return time.Now().Unix() // finding: determinism
}

func Walk(m map[int]int) int {
	s := 0
	for _, v := range m { // finding: maprange
		s += v
	}
	return s
}
`,

	"tools/tools.go": `package tools

func Clean() int { return 42 }
`,
}

func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func runCLI(t *testing.T, dir string, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := CLI(dir, args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestCLIExitCodes(t *testing.T) {
	dir := writeModule(t, cliFixture)

	// Findings anywhere in the default ./... pattern: exit 1.
	if code, out, _ := runCLI(t, dir); code != ExitFindings {
		t.Errorf("dirty module: exit %d, want %d (stdout: %s)", code, ExitFindings, out)
	}

	// Positional patterns restrict the run: the clean package exits 0.
	code, out, _ := runCLI(t, dir, "./tools/...")
	if code != ExitClean {
		t.Errorf("clean package: exit %d, want %d (stdout: %s)", code, ExitClean, out)
	}
	if out != "" {
		t.Errorf("clean package: unexpected output %q", out)
	}

	// And the dirty package alone exits 1 with both findings.
	code, out, _ = runCLI(t, dir, "./internal/sim/...")
	if code != ExitFindings {
		t.Errorf("dirty package: exit %d, want %d", code, ExitFindings)
	}
	for _, want := range []string{"[determinism]", "[maprange]"} {
		if !strings.Contains(out, want) {
			t.Errorf("dirty package output missing %s:\n%s", want, out)
		}
	}

	// A pattern that matches nothing: load error, exit 2.
	if code, _, errOut := runCLI(t, dir, "./no/such/dir/..."); code != ExitError {
		t.Errorf("bad pattern: exit %d, want %d (stderr: %s)", code, ExitError, errOut)
	}

	// An unknown format is a usage error, exit 2.
	if code, _, _ := runCLI(t, dir, "-format", "xml"); code != ExitError {
		t.Errorf("bad format: exit %d, want %d", code, ExitError)
	}
}

func TestCLISARIFGolden(t *testing.T) {
	dir := writeModule(t, cliFixture)
	code, out, _ := runCLI(t, dir, "-format", "sarif", "./internal/sim/...")
	if code != ExitFindings {
		t.Fatalf("exit %d, want %d", code, ExitFindings)
	}
	compareGolden(t, "sarif.golden", out)

	var log struct {
		Version string
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string
					Rules []struct{ ID string }
				}
			}
			Results []struct{ RuleID string }
		}
	}
	if err := json.Unmarshal([]byte(out), &log); err != nil {
		t.Fatalf("output is not valid SARIF JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "stamplint" {
		t.Errorf("unexpected SARIF envelope: version=%q runs=%d", log.Version, len(log.Runs))
	}
	if got, want := len(log.Runs[0].Tool.Driver.Rules), len(Analyzers()); got < want {
		t.Errorf("SARIF declares %d rules, want at least %d", got, want)
	}
	if len(log.Runs[0].Results) != 2 {
		t.Errorf("SARIF has %d results, want 2", len(log.Runs[0].Results))
	}
}

// compareGolden diffs got against testdata/<name>. Findings paths are
// module-relative, so the output is machine-independent.
func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDENS") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden %s: %v (regenerate by updating testdata)", path, err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- want ---\n%s\n--- got ---\n%s", path, want, got)
	}
}

// TestAnalyzeDeduplicates pins the merge rule: when two analyzers (or
// two rules of one) land byte-identical diagnostics on one position,
// the result carries it once.
func TestAnalyzeDeduplicates(t *testing.T) {
	dir := writeModule(t, cliFixture)
	prog, err := LoadProgram(dir, []string{"./internal/sim/..."})
	if err != nil {
		t.Fatal(err)
	}
	dup := func(name string) *Analyzer {
		return &Analyzer{
			Name: name,
			Doc:  "test duplicate producer",
			Run: func(p *Pkg) []Finding {
				pos := p.Fset.Position(p.Files[0].Pos())
				return []Finding{
					{Pos: pos, Check: "dupcheck", Message: "same finding"},
					{Pos: pos, Check: "dupcheck", Message: "same finding"},
				}
			},
		}
	}
	res := prog.Analyze([]*Analyzer{dup("a"), dup("b")})
	n := 0
	for _, f := range res.Findings {
		if f.Check == "dupcheck" {
			n++
		}
	}
	if n != 1 {
		t.Errorf("identical findings from two analyzers reported %d times, want 1", n)
	}
}
