package racedet_test

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/racedet"
)

// TestExperimentSuiteRaceCleanAndBitIdentical is the acceptance test
// for `stampbench -race`: with a detector attached to every System the
// harness builds, all experiment goldens must reproduce byte-for-byte
// (the detector is a pure observer) and the whole suite must be
// race-clean (every deliberate race declares AllowRaces).
func TestExperimentSuiteRaceCleanAndBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite")
	}
	var mu sync.Mutex
	var races []*racedet.Report
	remove := core.AddGlobalOption(func(sys *core.System) {
		d := racedet.Attach(sys)
		d.OnRace = func(r *racedet.Report) {
			mu.Lock()
			races = append(races, r)
			mu.Unlock()
		}
	})
	defer remove()

	for _, res := range experiments.RunAllParallel(1) {
		want, err := os.ReadFile(filepath.Join("..", "experiments", "testdata", "golden", res.ID+".golden"))
		if err != nil {
			t.Fatalf("golden for %s: %v", res.ID, err)
		}
		if got := res.String(); got != string(want) {
			t.Errorf("experiment %s diverged from its golden with the detector attached", res.ID)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, r := range races {
		t.Errorf("suite race:\n%s", r)
	}
}
