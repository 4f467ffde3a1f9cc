package lint

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
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

func TestCLIJSONGolden(t *testing.T) {
	dir := writeModule(t, cliFixture)
	code, out, _ := runCLI(t, dir, "-format", "json", "./internal/sim/...")
	if code != ExitFindings {
		t.Fatalf("exit %d, want %d", code, ExitFindings)
	}
	compareGolden(t, "json.golden", out)

	// And the document must round-trip as JSON.
	var doc struct {
		Findings []struct {
			File, Check, Message string
			Line, Column         int
		}
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(doc.Findings) != 2 {
		t.Errorf("got %d findings in JSON, want 2", len(doc.Findings))
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

func git(t *testing.T, dir string, args ...string) {
	t.Helper()
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(),
		"GIT_AUTHOR_NAME=t", "GIT_AUTHOR_EMAIL=t@t",
		"GIT_COMMITTER_NAME=t", "GIT_COMMITTER_EMAIL=t@t",
		"GIT_CONFIG_GLOBAL=/dev/null", "GIT_CONFIG_SYSTEM=/dev/null")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("git %v: %v\n%s", args, err, out)
	}
}

// TestCLIDiffMode builds a two-commit repo: the base commit already
// contains one finding, the second commit adds another. -diff <base>
// must report only the finding on lines changed since base.
func TestCLIDiffMode(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not available")
	}
	dir := writeModule(t, map[string]string{
		"go.mod": "module repro\n\ngo 1.24\n",
		"internal/sim/sim.go": `package sim

import "time"

func Old() int64 {
	return time.Now().Unix() // pre-existing finding
}
`,
	})
	git(t, dir, "init", "-q", "-b", "main")
	git(t, dir, "add", ".")
	git(t, dir, "commit", "-q", "-m", "base")

	src := `package sim

import "time"

func Old() int64 {
	return time.Now().Unix() // pre-existing finding
}

func New(m map[int]int) int {
	s := 0
	for _, v := range m { // new finding on a changed line
		s += v
	}
	return s
}
`
	if err := os.WriteFile(filepath.Join(dir, "internal/sim/sim.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	git(t, dir, "add", ".")
	git(t, dir, "commit", "-q", "-m", "add map walk")

	// Without -diff: both findings.
	code, out, _ := runCLI(t, dir)
	if code != ExitFindings || !strings.Contains(out, "[determinism]") || !strings.Contains(out, "[maprange]") {
		t.Fatalf("full run: exit %d, output:\n%s", code, out)
	}

	// With -diff HEAD~1: only the maprange finding on the added lines.
	code, out, _ = runCLI(t, dir, "-diff", "HEAD~1")
	if code != ExitFindings {
		t.Fatalf("diff run: exit %d, want %d (output: %s)", code, ExitFindings, out)
	}
	if strings.Contains(out, "[determinism]") {
		t.Errorf("diff run reports the pre-existing finding:\n%s", out)
	}
	if !strings.Contains(out, "[maprange]") {
		t.Errorf("diff run misses the new finding:\n%s", out)
	}

	// Against HEAD (no changes): clean exit.
	if code, out, _ := runCLI(t, dir, "-diff", "HEAD"); code != ExitClean {
		t.Errorf("diff vs HEAD: exit %d, want %d (output: %s)", code, ExitClean, out)
	}

	// A bogus ref is a load-level error.
	if code, _, _ := runCLI(t, dir, "-diff", "no-such-ref"); code != ExitError {
		t.Errorf("bogus ref: exit %d, want %d", code, ExitError)
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
