package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDumpMetricsSingleExperiment covers the `-experiment <id>
// -metrics-out DIR` path: one .prom file per selected experiment with
// the per-check gauges.
func TestDumpMetricsSingleExperiment(t *testing.T) {
	res, err := Run("models")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := DumpMetrics(dir, res); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "models.prom"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(b)
	for _, want := range []string{
		`stampbench_passed{experiment="models"} 1`,
		`stampbench_checks_failed{experiment="models"} 0`,
		"stampbench_check_passed{",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics dump missing %q:\n%s", want, text)
		}
	}
	if got := strings.Count(text, "stampbench_check_passed{"); got != len(res.Checks) {
		t.Errorf("dump has %d check gauges, want %d", got, len(res.Checks))
	}
}

// TestCheckRegistryFailedCheck asserts failed checks surface as 0
// gauges and flip the aggregate.
func TestCheckRegistryFailedCheck(t *testing.T) {
	r := Result{ID: "fake", Checks: []Check{
		{Name: "good", Pass: true},
		{Name: "bad", Pass: false, Note: "expected"},
	}}
	var sb strings.Builder
	if err := CheckRegistry(r).WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`stampbench_check_passed{check="good",experiment="fake"} 1`,
		`stampbench_check_passed{check="bad",experiment="fake"} 0`,
		`stampbench_checks_failed{experiment="fake"} 1`,
		`stampbench_passed{experiment="fake"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("registry missing %q:\n%s", want, text)
		}
	}
}
