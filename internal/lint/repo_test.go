package lint

import (
	"bytes"
	"os/exec"
	"strings"
	"testing"
)

// moduleRoot asks the toolchain where the enclosing module lives.
func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("go list -m: %v", err)
	}
	return string(bytes.TrimSpace(out))
}

// TestRepoIsClean is the dogfood gate: stamplint over the whole repo
// must report nothing, and every //stamplint:allow annotation in the
// tree must be well-formed and actually suppressing a finding. It also
// pins the annotation census — adding or removing a suppression is a
// deliberate act that must touch this table.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole repo")
	}
	prog, err := LoadProgram(moduleRoot(t), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	res := prog.Analyze(Analyzers())
	for _, f := range res.Findings {
		t.Errorf("finding: %s", f)
	}

	perCheck := map[string]int{}
	for _, a := range res.Annotations {
		if a.Malformed != "" {
			t.Errorf("malformed annotation at %s: %s", a.Pos, a.Malformed)
			continue
		}
		if !a.Used {
			t.Errorf("unused annotation at %s (allow %s)", a.Pos, a.Check)
		}
		perCheck[a.Check]++
	}

	// The census: every suppression in the tree, by check. Backdoor
	// sites are cost-free setup/extraction outside the measured run
	// (examples, app init/extract loops, table1's post-run read);
	// maprange sites sort afterwards or reduce order-independently;
	// determinism sites are the experiment harness's own fan-out
	// (sweep in parallel.go); the sround site is the async pipeline example, whose free-
	// floating charges are the thing it demonstrates; chargeflow
	// sites are the adaptive controller's decision plane, whose
	// modeled cost is the migrations it orders, not its bookkeeping.
	want := map[string]int{
		"backdoor":    10,
		"chargeflow":  5,
		"determinism": 4,
		"maprange":    5,
		"sround":      1,
	}
	for check, n := range want {
		if perCheck[check] != n {
			t.Errorf("%d %s annotations in the tree, want %d — update the census if this is deliberate", perCheck[check], check, n)
		}
	}
	for check, n := range perCheck {
		if _, ok := want[check]; !ok {
			t.Errorf("%d unexpected %s annotations — extend the census", n, check)
		}
	}

	// Every deterministic package the ISSUE names must actually have
	// been loaded and checked (a rename would silently skip it).
	loaded := map[string]bool{}
	for _, p := range prog.Pkgs {
		loaded[p.Path] = true
	}
	for path := range DeterministicPkgs {
		if !loaded[path] {
			t.Errorf("deterministic package %s not found in the build — stale DeterministicPkgs entry?", path)
		}
	}

	// And the reasons must be real sentences, not placeholders.
	for _, a := range res.Annotations {
		if len(strings.Fields(a.Reason)) < 3 {
			t.Errorf("annotation at %s has a token reason %q — justify it", a.Pos, a.Reason)
		}
	}
}
